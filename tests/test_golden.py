"""Golden bits: SHA-256 digests of whole runs, pinned to the bit.

A digest covers every ``Frame`` field of every frame, in field order (the
floats as little-endian doubles, the bytes of ``w`` and ``z``), then
``n_steps``.  A change to the stepper or the frame builder that moves any
bit of any run shows here; a change meant to keep the numbers must leave
these digests as they are.
"""

import dataclasses
import hashlib
import struct

import numpy as np

from epifront import (
    BlowUpError,
    Frame,
    InfectionResponse,
    InitialData,
    ModelParams,
    SolverConfig,
    Verdict,
    simulate,
    simulate_batch,
)
from conftest import linear_response

UNIT = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=1.0)


def run_digest(traj) -> str:
    digest = hashlib.sha256()
    for frame in traj.frames:
        for field in dataclasses.fields(Frame):
            value = getattr(frame, field.name)
            digest.update(value.tobytes() if isinstance(value, np.ndarray)
                          else struct.pack("<d", value))
    digest.update(struct.pack("<q", traj.n_steps))
    return digest.hexdigest()


def test_batch_with_a_clipping_and_a_failing_member():
    # Member 1 decays at a11 dt = 1.5 per step, so the explicit update goes
    # negative and is clipped; member 2's a12 = 1e60 overflows its fields at
    # t = 0.4, a failure found before the solve.  Member 0 runs beside them.
    init = InitialData.cosine(1.0, UNIT.h0)
    resp = linear_response(2.0)
    members = [(UNIT, resp, init),
               (UNIT.with_(a11=30.0, mu=0.05), resp, init),
               (UNIT.with_(a12=1e60, mu=1e-200), resp, init)]
    cfg = SolverConfig(n_cells=64, dt_max=0.05, t_max=1.0, frame_stride=3, early_stop=False)
    with np.errstate(over="ignore", invalid="ignore"):
        (plain, _), (clipping, _), (failing, error) = simulate_batch(members, cfg)
    assert sum(f.clipped for f in clipping.frames) > 0.5
    assert isinstance(error, BlowUpError) and str(error) == "non-finite field values at t=0.4"
    assert [(t.n_steps, len(t.frames)) for t in (plain, clipping, failing)] == [
        (70, 25), (20, 8), (16, 6)]
    assert [run_digest(t) for t in (plain, clipping, failing)] == [
        "9f77b25334ffde77213e2be5aa7cb43778bb3b95f8b62eb8ec3ada0ba9fa2ebe",
        "e6773f29989b4157a4d331d47d89448524c52949575cb5f8a114bbf938f49239",
        "90ec38a8130739ee236c6b3b4bb5a34b3964dbec579e0b848aa67b019faeeb57",
    ]


def test_simulate_with_record_times():
    cfg = SolverConfig(n_cells=256, t_max=1.0, frame_stride=40, record_times=(0.1, 0.25, 0.6))
    traj, cls = simulate(UNIT, InfectionResponse.monod(2.0), InitialData.cosine(1.0, UNIT.h0), cfg)
    assert cls.verdict is Verdict.UNDETERMINED
    assert (traj.n_steps, len(traj.frames), traj.terminated_by) == (1001, 27, "t_max")
    assert run_digest(traj) == "67abb9524c76709025727e9259e7450e4645d7e6d4e7974f622873d098465d0c"
