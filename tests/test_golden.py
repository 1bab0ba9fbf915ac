"""Golden bits: SHA-256 digests of whole runs, pinned to the bit.

A run digest covers every ``Frame`` field of every frame, in field order
(the floats as little-endian doubles, the bytes of ``w`` and ``z``), then
``n_steps``.  A command digest covers every file a ``cli`` command writes.
A change to the stepper or the frame builder that moves any bit of any run
shows here, and so does one that moves a byte on the way from a config file
to the outputs (the init factories, the certificate, the threshold seed);
a change meant to keep the numbers must leave these digests as they are.
"""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

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
from epifront.cli import main
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
    init = InitialData.cosine(1.0)
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
        "04a0d94efa1fb20cf00b963aac8412e903fb9a2a22ee9efbfc8da17128cb021d",
        "2a98ac36313fc9810648277dc27b8de15a7f522972153fc1c2db781cfd8264b5",
        "7347358c52d3129ce1fe791834a78c3f07c9334c818354ca9b1ed5258c129037",
    ]


def test_simulate_with_record_times():
    cfg = SolverConfig(n_cells=256, t_max=1.0, frame_stride=40, record_times=(0.1, 0.25, 0.6))
    traj, cls = simulate(UNIT, InfectionResponse.monod(2.0), InitialData.cosine(1.0), cfg)
    assert cls.verdict is Verdict.UNDETERMINED
    assert (traj.n_steps, len(traj.frames), traj.terminated_by) == (271, 10, "t_max")
    assert run_digest(traj) == "83d4e6cfdf28fd29eb105576b6ab920cf75fc86448d921c9512616ce8bd516b0"


# One config per command path: the cosine and the skewed data, the Monod and
# the table response, both threshold targets and a 2 x 2 sweep.
_MONITORS = "monitors.bounds = true\nmonitors.symmetry = true\nmonitors.speed = true\n"
_BRACKET = ("model.h0 = 1.2566370614359172\nsolver.n_cells = 32\nsolver.dt_max = 0.08\n"
            "solver.t_max = 60\nthreshold.tol = 0.5\n")
COMMANDS = {
    "run_cosine": (
        ["run", "--svg", "--profiles", "0.5,1.0"],
        "model.h0 = 1.0\nresponse.a21 = 2.0\ninit.sigma = 1.0\nsolver.n_cells = 64\n"
        "solver.t_max = 2.0\nsolver.frame_stride = 20\n" + _MONITORS,
        {"fronts.svg": "538697612f38b1617530b91a4c83f5fbc5dbee7f1e569119ff3eddf434521da2",
         "profiles.csv": "f2cdad7aa1978b49f67d8326a7c83a517ffb77891fb1ef281d9e93f21c40b8ce",
         "summary.json": "6c7609c5d14d504f5f97727eb0a2201be2ceb650ced3da266ac3d288a75899b5",
         "supnorms.svg": "570630a841b420bdea4a23613595de5e8f98a111b076c182a3cbbffac5befdec",
         "trajectory.csv": "2cf9ca7e0a080eaeee00b302b6241d0571b0397077f3c1ca536fa32a14356739"}),
    "run_skewed_table": (
        ["run"],
        "model.h0 = 1.0\nresponse.kind = table\nresponse.z_values = 0,1,2,4\n"
        "response.g_values = 0,1.5,2,2.5\ninit.shape = skewed_cosine\ninit.skew = 0.4\n"
        "init.sigma = 0.8\nsolver.n_cells = 64\nsolver.t_max = 2.0\nsolver.frame_stride = 20\n",
        {"summary.json": "0c685da914f105c4e6210bddc5e2ec48a59a45d7f41eb949473b07dfe90e7a89",
         "trajectory.csv": "1b7058f5cf2d9e2b7be8f0057ada7519e80703fc83bdfcde300710c75e9f6979"}),
    "threshold_sigma": (
        ["threshold", "--target", "sigma"],
        _BRACKET,
        {"threshold.json": "fb44588e75e480758e979d90d42fa6ac7a3db61655259939fa35a8b9594438e1"}),
    "threshold_mu": (
        ["threshold", "--target", "mu"],
        _BRACKET + "init.sigma = 0.1\n",
        {"threshold.json": "c1497a529f54191ef06d732706b6f8c267ea4ba6566a3bbb1e16a7a7fe509aae"}),
    "sweep": (
        ["sweep", "--svg"],
        "model.h0 = 1.0\nsolver.n_cells = 32\nsolver.dt_max = 0.02\nsolver.t_max = 4\n"
        "sweep.sigma = 0.05,1.0\nsweep.mu = 0.5,2.0\n",
        {"phase.csv": "8aef112372ea03ae8e60e70a4d9a75c56516458d0b3577b6ff52488e7eeb7974",
         "phase.svg": "45aecd2514dc523e63d6366b4ff32587de8c9d8a8a528e5c4fea329736c6ea68"}),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_cli_outputs(name, tmp_path):
    argv, text, expected = COMMANDS[name]
    config = tmp_path / "config.txt"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())} == expected
