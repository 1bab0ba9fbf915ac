"""The model's similarity maps hold exactly, run by run.

Only u diffuses, and the fronts move at -mu u_x.  So

* the space map x -> x sqrt(d) takes a run of (1, h0, mu) to a run of
  (d, h0 sqrt(d), mu d) at the same times, and
* the time map t -> k t takes a run to one with d, a11, a12, a22, mu and
  G divided by k,

and the discrete scheme maps onto itself under both: the diffusion ratio,
the upwind term, the front CFL limit and the default dt_max = 1e-3 h0^2/d
and t_max = 200/min(a11, a22) carry over.  For factors that are powers of
2 every floating-point operation scales exactly, so the tests compare with
``==``: a dt rule, a limit or a tolerance that is not dimensionally
consistent shows here as a changed bit.  One ``InitialData`` serves both
partners, because the shapes read h0 from the model they run on.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from epifront import (
    BisectConfig,
    Frame,
    InfectionResponse,
    InitialData,
    ModelParams,
    SolverConfig,
    Trajectory,
    Verdict,
    classify,
    find_threshold,
    simulate,
    sweep,
)

A21 = 2.0
BASE = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=0.4 * math.pi)
CONFIG = SolverConfig(n_cells=64, dt_max=0.04, t_max=60.0)
SIGMAS = (0.02, 0.04, 0.1)
INITS = {sigma: InitialData.cosine(sigma) for sigma in SIGMAS}

# Frame fields and evidence details that scale with length under the space
# map: positions, widths, integrals over x and front speeds.  Every other
# field and detail (the R0F margin, the sup ratio) is unchanged.
LENGTHS = ("g", "h", "width", "mass", "g_speed", "h_speed", "reaction", "clipped",
           "trailing_width_growth")
# Frame fields that are rates, divided by k under the time map; t is times k.
RATES = ("g_speed", "h_speed", "reaction")


def time_map(p: ModelParams, k: float) -> tuple[ModelParams, InfectionResponse]:
    """The model on a clock k times slower: every rate divided by k."""
    return (p.with_(d=p.d / k, a11=p.a11 / k, a12=p.a12 / k, a22=p.a22 / k, mu=p.mu / k),
            InfectionResponse.monod(A21 / k))


def run(p, resp, init, config):
    traj, cls = simulate(p, resp, init, config)
    assert traj.n_steps > 0
    return traj, cls


def assert_scaled(base, partner, scale: dict[str, float]):
    """Every frame field and evidence detail of ``partner`` is the base value
    times its factor in ``scale`` (1 when absent), with ``==``; so are the
    step counts."""
    (traj, cls), (traj2, cls2) = base, partner
    assert (traj2.n_steps, traj2.terminated_by) == (traj.n_steps, traj.terminated_by)
    assert len(traj2.frames) == len(traj.frames)
    for frame, frame2 in zip(traj.frames, traj2.frames):
        for f in fields(Frame):
            a, b = getattr(frame, f.name), getattr(frame2, f.name)
            factor = scale.get(f.name, 1.0)
            if isinstance(a, np.ndarray):
                assert np.array_equal(b, a * factor), f.name
            else:
                assert b == a * factor, (f.name, frame.t, a, b)
    assert cls2.verdict is cls.verdict
    assert cls2.evidence.criterion == cls.evidence.criterion
    assert cls2.evidence.time == cls.evidence.time * scale.get("t", 1.0)
    assert cls2.evidence.r0f == cls.evidence.r0f
    details, details2 = cls.evidence.details, cls2.evidence.details
    assert details2.keys() == details.keys()
    for key, value in details.items():
        assert details2[key] == value * scale.get(key, 1.0), (key, value, details2[key])


@pytest.fixture(scope="module")
def base_runs():
    resp = InfectionResponse.monod(A21)
    return {sigma: run(BASE, resp, INITS[sigma], CONFIG) for sigma in SIGMAS}


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("d", (4.0, 0.25))
def test_space_map(base_runs, sigma, d):
    root = math.sqrt(d)
    partner = BASE.with_(d=d, h0=BASE.h0 * root, mu=BASE.mu * d)
    traj = run(partner, InfectionResponse.monod(A21), INITS[sigma], CONFIG)
    assert_scaled(base_runs[sigma], traj, dict.fromkeys(LENGTHS, root))


def time_scale(k: float) -> dict[str, float]:
    return {"t": k, **dict.fromkeys(RATES, 1.0 / k)}


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("k", (2.0, 0.5))
def test_time_map(base_runs, sigma, k):
    p, resp = time_map(BASE, k)
    config = replace(CONFIG, dt_max=CONFIG.dt_max * k, t_max=CONFIG.t_max * k)
    traj = run(p, resp, INITS[sigma], config)
    assert_scaled(base_runs[sigma], traj, time_scale(k))


@pytest.mark.parametrize("k", (2.0, 0.5))
def test_time_map_with_default_step_and_horizon(k):
    # Each model takes its first error-controlled step 1e-3 h0^2/d and resolves
    # t_max = 200/min(a11, a22) for itself, and both defaults scale with the clock.
    config = SolverConfig(n_cells=64)
    init = InitialData.cosine(0.1)
    base = run(BASE, InfectionResponse.monod(A21), init, config)
    p, resp = time_map(BASE, k)
    assert config.first_step(p) == config.first_step(BASE) * k
    assert_scaled(base, run(p, resp, init, config), time_scale(k))


def test_time_map_needs_a_scaled_step(base_runs):
    # Self-check: the comparison sees a dt_max that does not follow the clock.
    p, resp = time_map(BASE, 2.0)
    traj = run(p, resp, INITS[0.1], replace(CONFIG, t_max=CONFIG.t_max * 2.0))
    with pytest.raises(AssertionError):
        assert_scaled(base_runs[0.1], traj, time_scale(2.0))


@pytest.mark.parametrize("target, sigma, bracket", [
    pytest.param("sigma", 1.0, (0.0354, 0.039062), id="sigma"),
    pytest.param("mu", 0.05, (0.71875, 0.765625), id="mu"),
])
def test_threshold_under_the_space_map(target, sigma, bracket):
    # sigma is a density and keeps its value under the map; mu scales by d.
    resp = InfectionResponse.monod(A21)
    init = InitialData.cosine(sigma)
    bisect = BisectConfig(rel_tol=0.1)
    base = find_threshold(target, BASE, resp, init, CONFIG, bisect)
    partner = find_threshold(target, BASE.with_(d=4.0, h0=2.0 * BASE.h0, mu=4.0), resp, init,
                             CONFIG, bisect)
    k = 4.0 if target == "mu" else 1.0
    assert (base.status, round(base.lo, 6), round(base.hi, 6)) == ("bracketed", *bracket)
    assert (partner.status, partner.lo, partner.hi) == (base.status, k * base.lo, k * base.hi)
    assert base.speculative
    for runs, partner_runs in ((base.probes, partner.probes),
                               (base.speculative, partner.speculative)):
        assert partner_runs == [replace(r, value=k * r.value, final_width=2.0 * r.final_width)
                                for r in runs]


def test_sweep_under_the_space_map():
    resp = InfectionResponse.monod(A21)
    inits = list(INITS.values())
    mus = (0.5, 1.0)
    base = sweep([BASE.with_(mu=mu) for mu in mus], resp, inits, CONFIG)
    partner = sweep([BASE.with_(d=4.0, h0=2.0 * BASE.h0, mu=4.0 * mu) for mu in mus], resp,
                    inits, CONFIG)
    assert len(partner) == len(base) == len(mus) * len(inits)
    for cell, cell2 in zip(base, partner):
        assert (cell2.sigma, cell2.verdict, cell2.criterion, cell2.time, cell2.final_width) == (
            cell.sigma, cell.verdict, cell.criterion, cell.time, 2.0 * cell.final_width)


def mapped(traj: Trajectory, p: ModelParams, resp: InfectionResponse,
           scale: dict[str, float]) -> Trajectory:
    """The frames of ``traj`` carried over to the model (p, resp): each
    frame field times its factor in ``scale`` (1 when absent)."""
    names = [f.name for f in fields(Frame) if f.name in scale]
    frames = [replace(f, **{name: getattr(f, name) * scale[name] for name in names})
              for f in traj.frames]
    return Trajectory(p, resp, frames)


def assert_same_classification(traj: Trajectory, partner: Trajectory,
                               scale: dict[str, float]) -> set[Verdict]:
    """``classify`` on every prefix of the partner's frames gives the base
    verdict, with its evidence time and details scaled, compared with ``==``;
    returns the verdicts compared."""
    verdicts = set()
    for k in range(1, len(traj.frames) + 1):
        base = classify(Trajectory(traj.params, traj.resp, traj.frames[:k]))
        cls = classify(Trajectory(partner.params, partner.resp, partner.frames[:k]))
        assert (cls.verdict, cls.evidence.criterion, cls.evidence.r0f) == (
            base.verdict, base.evidence.criterion, base.evidence.r0f), k
        assert cls.evidence.time == base.evidence.time * scale.get("t", 1.0), k
        assert cls.evidence.details == {key: value * scale.get(key, 1.0)
                                        for key, value in base.evidence.details.items()}, k
        verdicts.add(base.verdict)
    return verdicts


def test_classify_under_the_maps(base_runs):
    # classify on its own, fed frames mapped by hand, with no run in between.
    # The small hump runs on to t = 200, where it vanishes.
    resp = InfectionResponse.monod(A21)
    vanishing, _ = run(BASE, resp, INITS[0.02], replace(CONFIG, t_max=200.0))
    space = dict.fromkeys(LENGTHS, 2.0)
    wide = BASE.with_(d=4.0, h0=2.0 * BASE.h0, mu=4.0)
    verdicts = set()
    for traj in [vanishing, *(base_runs[sigma][0] for sigma in SIGMAS)]:
        verdicts |= assert_same_classification(traj, mapped(traj, wide, resp, space), space)
        for k in (2.0, 0.5):
            scale = time_scale(k)
            verdicts |= assert_same_classification(
                traj, mapped(traj, *time_map(BASE, k), scale), scale)
    assert verdicts == set(Verdict)  # every verdict is compared
