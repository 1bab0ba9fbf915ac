"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the expensive trajectories are
shared through session fixtures.
"""

import math

import numpy as np
import pytest

from epifront import (
    BisectConfig,
    InfectionResponse,
    InitialData,
    ModelParams,
    Monitors,
    SolverConfig,
    Verdict,
    bound_certificate,
    dominance_check,
    eigen_check,
    equilibrium_convergence,
    find_threshold,
    ode_solve,
    refinement_study,
    sample_physical,
    simulate,
    sweep,
)

H_STAR = math.pi  # for d = a11 = 1 and G'(0) a12 / a22 = 2

MONOD2 = InfectionResponse.monod(2.0)
MONOD08 = InfectionResponse.monod(0.8)
MONOD15 = InfectionResponse.monod(1.5)

UNIT = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=1.0)
# habitat already 10% above critical width: spreading from t = 0
P_SUPER = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=1.1 * H_STAR / 2)
# habitat at 80% of critical width: sharp sigma threshold exists
P_SUB = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=0.4 * H_STAR)


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="session")
def vanishing_run():
    init = InitialData.cosine(1.0)
    monitors = Monitors(bound_certificate(UNIT, MONOD08, init))
    traj, cls = simulate(UNIT, MONOD08, init, SolverConfig(t_max=100.0), monitors=monitors)
    return traj, cls, monitors.certificate


@pytest.fixture(scope="session")
def spreading_run():
    init = InitialData.cosine(1.0)
    monitors = Monitors(bound_certificate(P_SUPER, MONOD2, init))
    cfg = SolverConfig(t_max=80.0, dt_max=2e-3, early_stop=False)
    traj, cls = simulate(P_SUPER, MONOD2, init, cfg, monitors=monitors)
    return traj, cls, monitors.certificate


@pytest.fixture(scope="session")
def sigma_sweep_cells():
    sigmas = np.logspace(math.log10(0.005), math.log10(10.0), 20)
    inits = [InitialData.cosine(float(s)) for s in sigmas]
    cfg = SolverConfig(n_cells=256, dt_max=2.5e-3, t_max=250.0)
    return sweep([P_SUB], MONOD2, inits, cfg)


@pytest.fixture(scope="session")
def sigma_star_results():
    init = InitialData.cosine(1.0)
    out = {}
    for n_cells, dt in ((128, 5e-3), (256, 2.5e-3)):
        cfg = SolverConfig(n_cells=n_cells, dt_max=dt, t_max=250.0)
        out[n_cells] = find_threshold("sigma", P_SUB, MONOD2, init, cfg,
                                      BisectConfig(rel_tol=1e-2))
    return out


def test_criterion_01_vanishing_under_subcritical_r0(vanishing_run):
    traj, cls, _ = vanishing_run
    m0 = traj.frames[0].mass
    width_cap = 1.05 * (2.0 * UNIT.h0 + (UNIT.mu / UNIT.d) * m0)
    sup0 = traj.frames[0].sup_w + traj.frames[0].sup_z
    sup_ratio = (traj.final.sup_w + traj.final.sup_z) / sup0
    ok = (
        cls.verdict is Verdict.VANISHING
        and traj.final.width <= width_cap
        and sup_ratio < 1e-6
    )
    check(1, "vanishing-under-subcritical-r0", ok,
          f"verdict={cls.verdict.value} width={traj.final.width:.3f}<={width_cap:.3f} "
          f"sup_ratio={sup_ratio:.2e}")


def test_criterion_02_spreading_supercritical_habitat(spreading_run):
    traj, cls, _ = spreading_run
    widths = traj.column("width")
    eq_errs = equilibrium_convergence(traj, P_SUPER.h0)
    ok = (
        cls.verdict is Verdict.SPREADING
        and bool(np.all(np.diff(widths) >= 0))
        and traj.final.width > 10.0 * H_STAR
        and eq_errs[-1] <= 0.05 * 2.0
    )
    check(2, "spreading-supercritical-habitat", ok,
          f"verdict={cls.verdict.value} width={traj.final.width:.2f}>{10 * H_STAR:.2f} "
          f"eq_err={eq_errs[-1]:.4f}<=0.1")


def test_criterion_03_vanishing_width_dichotomy(sigma_sweep_cells):
    vanishing = [c for c in sigma_sweep_cells if c.verdict is Verdict.VANISHING]
    worst = max(c.final_width for c in vanishing)
    monotone = True
    seen_spreading = False
    for cell in sigma_sweep_cells:  # ascending sigma
        if cell.verdict is Verdict.SPREADING:
            seen_spreading = True
        elif seen_spreading:
            monotone = False
    ok = (
        bool(vanishing)
        and all(c.final_width <= 1.02 * H_STAR for c in vanishing)
        and monotone
    )
    check(3, "vanishing-width-dichotomy", ok,
          f"{len(vanishing)} vanishing cells, worst width {worst:.4f} <= "
          f"{1.02 * H_STAR:.4f}, verdicts monotone={monotone}")


def test_criterion_04_sharp_sigma_threshold(sigma_star_results):
    coarse = sigma_star_results[128]
    fine = sigma_star_results[256]
    init = InitialData.cosine(1.0)
    confirm_cfg = SolverConfig(n_cells=256, dt_max=2.5e-3, t_max=500.0)
    _, lo_cls = simulate(P_SUB, MONOD2, init.with_sigma(0.9 * fine.lo), confirm_cfg)
    _, hi_cls = simulate(P_SUB, MONOD2, init.with_sigma(1.1 * fine.hi), confirm_cfg)
    shift = abs(fine.midpoint - coarse.midpoint)
    width = coarse.hi - coarse.lo
    ok = (
        coarse.status == "bracketed"
        and fine.status == "bracketed"
        and fine.rel_width <= 1e-2
        and coarse.rel_width <= 1e-2
        and lo_cls.verdict is Verdict.VANISHING
        and hi_cls.verdict is Verdict.SPREADING
        and shift < width
    )
    check(4, "sharp-sigma-threshold", ok,
          f"bracket=[{fine.lo:.5f},{fine.hi:.5f}] relw={fine.rel_width:.4f} "
          f"0.9lo={lo_cls.verdict.value} 1.1hi={hi_cls.verdict.value} "
          f"shift={shift:.2e}<width={width:.2e}")


def test_criterion_05_comparison_monotonicity():
    times = (0.5, 1.0, 2.0)
    cfg = SolverConfig(t_max=2.0, record_times=times, early_stop=False,
                       frame_stride=10**9)
    runs = {}
    for sigma in (0.5, 1.0, 2.0):
        traj, _ = simulate(UNIT, MONOD2, InitialData.cosine(sigma), cfg)
        runs[sigma] = traj
    cert = bound_certificate(UNIT, MONOD2, InitialData.cosine(2.0))
    tol = 1e-3 * cert.c1
    worst = -math.inf
    nested = True
    for lo_s, hi_s in ((0.5, 1.0), (1.0, 2.0), (0.5, 2.0)):
        for target in times:
            f_lo = next(f for f in runs[lo_s].frames if f.t == target)
            f_hi = next(f for f in runs[hi_s].frames if f.t == target)
            nested &= f_hi.g <= f_lo.g + 1e-10 and f_lo.h <= f_hi.h + 1e-10
            xs = np.linspace(f_lo.g, f_lo.h, 401)
            u_lo, v_lo = sample_physical(f_lo, xs)
            u_hi, v_hi = sample_physical(f_hi, xs)
            worst = max(worst, float(np.max(u_lo - u_hi)), float(np.max(v_lo - v_hi)))
    ok = nested and worst <= tol
    check(5, "comparison-monotonicity", ok,
          f"fronts nested={nested}, worst ordering excess {worst:.2e} <= {tol:.1e}")


def test_criterion_06_symmetry_band():
    cfg = SolverConfig(t_max=15.0, early_stop=False)
    asym = InitialData.skewed_cosine(1.0, 0.5)
    traj_a, _ = simulate(UNIT, MONOD2, asym, cfg)
    centers = max(abs(f.g + f.h) for f in traj_a.frames)
    sym = InitialData.cosine(1.0)
    traj_s, _ = simulate(UNIT, MONOD2, sym, cfg)
    drift = max(abs(f.g + f.h) for f in traj_s.frames)
    ok = centers < 2.0 * UNIT.h0 and drift < 1e-8
    check(6, "symmetry-band", ok,
          f"asym max|g+h|={centers:.4f}<{2 * UNIT.h0}, sym drift={drift:.2e}<1e-8")


def test_criterion_07_apriori_bounds_and_speeds(vanishing_run, spreading_run):
    ok = True
    details = []
    for label, (traj, _, cert) in (("vanishing", vanishing_run),
                                   ("spreading", spreading_run)):
        sup_w = traj.column("sup_w")
        sup_z = traj.column("sup_z")
        h_speeds = traj.column("h_speed")
        g_speeds = traj.column("g_speed")
        bounds_ok = bool(np.all(sup_w <= cert.c1 + 1e-8) and np.all(sup_z <= cert.c2 + 1e-8))
        # the cosine data has nonzero boundary slope, so speeds are strict
        # from the first frame on
        signs_ok = bool(np.all(h_speeds > 0) and np.all(g_speeds < 0))
        cap_ok = bool(np.all(h_speeds <= 1.1 * cert.c3) and np.all(-g_speeds <= 1.1 * cert.c3))
        ok &= bounds_ok and signs_ok and cap_ok
        details.append(f"{label}: sup_u<=C1={cert.c1:.2f} ok={bounds_ok} "
                       f"signs={signs_ok} speed<=1.1C3={cap_ok}")
    check(7, "apriori-bounds-and-speeds", ok, "; ".join(details))


def test_criterion_08_mass_balance_refinement():
    p = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=0.25, h0=1.0)
    study = refinement_study(p, MONOD2, InitialData.cosine(1.0),
                             SolverConfig(n_cells=64, dt_max=4e-3), t_end=1.0)
    ratios = [study.residuals[k] / study.residuals[k + 1] for k in range(2)]
    ok = study.conclusive and all(r >= 1.8 for r in ratios)
    check(8, "mass-balance-refinement", ok,
          f"residuals={['%.3e' % r for r in study.residuals]} "
          f"halving ratios={['%.2f' % r for r in ratios]} >= 1.8")


def test_criterion_09_ode_dominance(vanishing_run, spreading_run):
    ok = True
    details = []
    for label, resp, params, (traj, _, cert) in (
        ("vanishing", MONOD08, UNIT, vanishing_run),
        ("spreading", MONOD2, P_SUPER, spreading_run),
    ):
        ode = ode_solve(params, resp, traj.frames[0].sup_w, traj.frames[0].sup_z,
                        traj.final.t)
        tol = 1e-6 * (cert.c1 + cert.c2)
        violation = dominance_check(traj, ode, tol)
        ok &= violation == 0.0
        details.append(f"{label}: violation={violation:.2e} (tol {tol:.1e})")
    check(9, "ode-dominance", ok, "; ".join(details))


def test_criterion_10_ode_threshold():
    sub = ode_solve(UNIT, InfectionResponse.monod(0.5), 1.0, 1.0, 100.0)
    sub_ok = max(sub.u[-1], sub.v[-1]) < 1e-8
    sup = ode_solve(UNIT, MONOD2, 0.5, 0.5, 100.0)
    r0 = 2.0
    u_star = r0 - 1.0
    v_star = 2.0 * (r0 - 1.0) / (UNIT.a22 * r0)
    err = max(abs(sup.u[-1] - u_star), abs(sup.v[-1] - v_star))
    ok = sub_ok and err < 1e-4
    check(10, "ode-threshold", ok,
          f"subcritical end={max(sub.u[-1], sub.v[-1]):.1e}, "
          f"supercritical err={err:.1e}<1e-4")


def test_criterion_11_eigen_consistency():
    e_coarse = eigen_check(UNIT, MONOD2, H_STAR, 256)
    e_fine = eigen_check(UNIT, MONOD2, H_STAR, 512)
    order = math.log2(abs(e_coarse) / abs(e_fine))
    ok = abs(e_coarse) < 1e-3 and order >= 1.7
    check(11, "eigen-consistency", ok,
          f"|disc|={abs(e_coarse):.2e}<1e-3, observed order={order:.2f}>=1.7")


def test_criterion_12_comparison_certificates():
    from epifront import small_data_vanishing_bound, spreading_subsolution_delta

    # extinction certificate: R0F(0) < 1 < R0
    bound = small_data_vanishing_bound(UNIT, MONOD15)
    shape = InitialData.cosine(1.0).phi
    half = 0.5 * bound.eps
    init_small = InitialData(
        1.0,
        phi=lambda x, h0: half * shape(x, h0),
        psi=lambda x, h0: half * bound.v_factor * shape(x, h0),
    )
    _, small_cls = simulate(UNIT, MONOD15, init_small, SolverConfig(t_max=100.0))

    # invasion certificate: R0F(0) > 1
    sub = spreading_subsolution_delta(P_SUPER, MONOD2)
    init_sub = InitialData(
        1.0,
        phi=lambda x, h0: sub.delta * shape(x, h0),
        psi=lambda x, h0: sub.delta * sub.v_factor * shape(x, h0),
    )
    traj_sub, sub_cls = simulate(P_SUPER, MONOD2, init_sub,
                                 SolverConfig(t_max=30.0, early_stop=False))
    sup_w = traj_sub.column("sup_w")
    tail = sup_w[int(0.9 * (len(sup_w) - 1)):]
    persistent = bool(np.all(tail >= sub.delta * 0.99))  # psi(0) = 1

    ok = (
        small_cls.verdict is Verdict.VANISHING
        and sub_cls.verdict is Verdict.SPREADING
        and persistent
    )
    check(12, "comparison-certificates", ok,
          f"half-eps data -> {small_cls.verdict.value}; subsolution data -> "
          f"{sub_cls.verdict.value}, trailing sup_u >= delta={sub.delta:.4f}: {persistent}")
