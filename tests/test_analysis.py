import dataclasses
import math

import numpy as np
import pytest

from epifront import (
    CertificateError,
    DomainError,
    InfectionResponse,
    InitialData,
    ModelParams,
    MonitorViolation,
    Monitors,
    SolverConfig,
    Verdict,
    bound_certificate,
    classify,
    critical_width,
    equilibrium_convergence,
    mass_balance_residual,
    simulate,
    simulate_batch,
)
from epifront.analysis import SPREADING_R0F
from conftest import linear_response


@pytest.fixture(scope="module")
def quiet_vanishing_run(unit_params):
    resp = InfectionResponse.monod(0.8)
    init = InitialData.cosine(1.0)
    traj, cls = simulate(unit_params, resp, init, SolverConfig(t_max=100.0))
    return resp, init, traj, cls


class TestBoundCertificate:
    def test_spec_pair_is_valid(self, monod2):
        # the pair (3, 2) satisfies both strict inequalities for Monod a21=2
        assert -1.0 * 3 + 1.0 * 2 < 0
        assert -1.0 * 2 + monod2(3.0) < 0

    def test_returned_pair_valid_and_dominates(self, unit_params, monod2):
        init = InitialData.cosine(0.5)
        cert = bound_certificate(unit_params, monod2, init)
        assert -unit_params.a11 * cert.c1 + unit_params.a12 * cert.c2 < 0
        assert -unit_params.a22 * cert.c2 + monod2(cert.c1) < 0
        assert cert.c1 >= 0.5
        assert cert.c2 >= 0.5
        assert cert.c3 == pytest.approx(2.0 * cert.m * cert.c1 * unit_params.mu)

    def test_uncapped_linear_response_fails(self, unit_params):
        init = InitialData.cosine(1.0)
        with pytest.raises(CertificateError):
            bound_certificate(unit_params, linear_response(2.0), init)

    def test_zero_initial_data(self, unit_params, monod2):
        cert = bound_certificate(unit_params, monod2, InitialData.cosine(0.0))
        assert cert.c1 > 0 and cert.c2 > 0
        assert -unit_params.a11 * cert.c1 + unit_params.a12 * cert.c2 < 0


class TestMassBalance:
    def test_zero_run_zero_residual(self, unit_params, monod2):
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(0.0),
            SolverConfig(t_max=1.0, early_stop=False),
        )
        res = mass_balance_residual(traj)
        assert np.all(res == 0.0)

    def test_one_frame_balances_to_zero(self, unit_params, monod2):
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0),
            SolverConfig(t_max=0.001, early_stop=False),
        )
        traj.frames = traj.frames[:1]
        assert mass_balance_residual(traj).tolist() == [0.0]
        traj.frames = []
        with pytest.raises(DomainError, match="empty"):
            mass_balance_residual(traj)

    def test_subthreshold_width_bound(self, unit_params, quiet_vanishing_run):
        # the integral identity caps the habitat: (d/mu) width <= M(0) + (d/mu) 2 h0
        resp, _, traj, _ = quiet_vanishing_run
        m0 = traj.frames[0].mass
        cap = m0 + (unit_params.d / unit_params.mu) * 2.0 * unit_params.h0
        scaled = (unit_params.d / unit_params.mu) * traj.column("width")
        assert np.all(scaled <= cap * 1.01)


class TestSymmetryBand:
    def test_symmetric_run(self, unit_params, monod2):
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0),
            SolverConfig(t_max=2.0, early_stop=False),
        )
        assert max(abs(f.g + f.h) for f in traj.frames) < 1e-8

    def test_asymmetric_hump_respects_band(self, unit_params, monod2):
        init = InitialData.skewed_cosine(1.0, 0.5)
        traj, _ = simulate(unit_params, monod2, init, SolverConfig(t_max=10.0, early_stop=False))
        centers = max(abs(f.g + f.h) for f in traj.frames)
        assert 1e-6 < centers < 2.0 * unit_params.h0  # genuinely asymmetric, inside the band


class TestClassify:
    def test_subthreshold_vanishes(self, unit_params):
        resp = InfectionResponse.monod(0.5)
        _, cls = simulate(unit_params, resp, InitialData.cosine(2.0),
                          SolverConfig(t_max=120.0))
        assert cls.verdict is Verdict.VANISHING
        assert cls.evidence.criterion == "decay_plateau"

    def test_marginal_habitat_spreads(self, monod2):
        # R0F(0) = 1 exactly: no trigger at t = 0, but the fronts move and
        # the reproduction number crosses 1 immediately after.
        p = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=math.pi / 2)
        traj, cls = simulate(p, monod2, InitialData.cosine(1.0),
                             SolverConfig(t_max=30.0))
        assert traj.frames[0].r0f == pytest.approx(1.0, abs=1e-12)
        assert cls.verdict is Verdict.SPREADING
        assert cls.evidence.criterion == "r0f_threshold"
        assert cls.evidence.time > 0.0

    def test_tiny_data_vanishes_below_critical_width(self, unit_params, monod2):
        h_star = critical_width(unit_params, monod2)
        traj, cls = simulate(unit_params, monod2, InitialData.cosine(0.01),
                             SolverConfig(t_max=150.0))
        assert cls.verdict is Verdict.VANISHING
        assert traj.final.width <= h_star * 1.02

    def test_r0f_series_nondecreasing(self, unit_params, monod2, quiet_vanishing_run):
        # classify relies on it: the fronts only move outward, so the recorded
        # width, and R0F with it, never decrease, not even by rounding.
        _, _, traj, _ = quiet_vanishing_run
        spreading, cls = simulate(unit_params, monod2, InitialData.cosine(1.0),
                                  SolverConfig(t_max=3.0, frame_stride=1, early_stop=False))
        assert cls.verdict is Verdict.SPREADING
        trajectories = [traj, spreading]
        config = SolverConfig(n_cells=64, dt_max=0.01, t_max=5.0, frame_stride=1,
                              early_stop=False)
        for a21 in (1.5, 2.0, 4.0):
            resp = InfectionResponse.monod(a21)
            grid = [(unit_params.with_(h0=h0), resp, InitialData.skewed_cosine(sigma, 0.5))
                    for h0 in (0.5, 1.0, 2.0) for sigma in (0.1, 1.0)]
            trajectories += [batch_traj for batch_traj, _ in simulate_batch(grid, config)]
        for run in trajectories:
            assert np.all(np.diff(run.column("width")) >= 0.0)
            assert np.all(np.diff(run.column("r0f")) >= 0.0)

    def test_spreading_time_is_located_between_frames(self, unit_params, monod2):
        # R0F is interpolated linearly between the first frame at or past
        # 1 + margin and the frame before it; a first frame past it is its own time.
        from epifront.solver import Trajectory, initial_state

        start = initial_state(unit_params, monod2, InitialData.cosine(1.0), 16)
        frames = [dataclasses.replace(start, t=t, r0f=r0f)
                  for t, r0f in ((0.0, 0.9), (1.0, 0.98), (3.0, 1.02), (4.0, 1.1))]
        located = 1.0 + 2.0 * (SPREADING_R0F - 0.98) / (1.02 - 0.98)
        for prefix, time, r0f in ((frames, located, 1.02), (frames[2:], 3.0, 1.02)):
            cls = classify(Trajectory(unit_params, monod2, prefix))
            assert cls.verdict is Verdict.SPREADING
            assert (cls.evidence.time, cls.evidence.r0f) == (time, r0f)

    def test_empty_trajectory_rejected(self, unit_params, monod2):
        from epifront.solver import Trajectory

        with pytest.raises(DomainError):
            classify(Trajectory(unit_params, monod2))

    def test_infinite_initial_data_is_not_vanishing(self, unit_params, monod2):
        from epifront.solver import Trajectory, initial_state

        init = InitialData(1.0, phi=lambda x, h0: np.cos(np.pi * x / 2),
                           psi=lambda x, h0: np.where(np.abs(x) < 0.5, np.inf, 0.0))
        start = initial_state(unit_params, monod2, init, 64)
        assert start.sup_z == math.inf
        assert classify(Trajectory(unit_params, monod2, [start])).verdict is Verdict.UNDETERMINED

    def test_undetermined_at_short_horizon(self, unit_params, monod2):
        _, cls = simulate(unit_params, monod2, InitialData.cosine(0.05),
                          SolverConfig(t_max=0.5))
        assert cls.verdict is Verdict.UNDETERMINED
        assert cls.evidence.criterion == "horizon"


class TestEquilibriumConvergence:
    def test_vanishing_run_tends_to_full_distance(self, unit_params, monod2):
        traj, cls = simulate(unit_params, monod2, InitialData.cosine(0.01),
                             SolverConfig(t_max=150.0))
        errs = equilibrium_convergence(traj, 0.5)
        assert cls.verdict is Verdict.VANISHING
        assert errs[-1] == pytest.approx(2.0, rel=1e-4)  # u* + v* = 2

    def test_uncovered_window_counts_equilibrium(self, unit_params, monod2):
        from epifront import endemic_equilibrium

        traj, _ = simulate(unit_params, monod2, InitialData.cosine(1.0),
                           SolverConfig(t_max=0.01, early_stop=False))
        errs = equilibrium_convergence(traj, 5.0)
        u_star, v_star = endemic_equilibrium(unit_params, monod2)
        assert errs[0] >= u_star + v_star

    def test_absent_equilibrium_rejected(self, quiet_vanishing_run):
        _, _, traj, _ = quiet_vanishing_run
        with pytest.raises(DomainError):
            equilibrium_convergence(traj, 1.0)


class TestMonitors:
    def test_clean_run_passes_all(self, unit_params, monod2):
        init = InitialData.cosine(1.0)
        monitors = Monitors(bound_certificate(unit_params, monod2, init))
        traj, _ = simulate(unit_params, monod2, init,
                           SolverConfig(t_max=3.0, frame_stride=5, early_stop=False),
                           monitors=monitors)
        assert len(traj.frames) > 10

    def test_bound_violation_detected(self, unit_params, monod2):
        init = InitialData.cosine(1.0)
        monitors = Monitors(bound_certificate(unit_params, monod2, init))
        traj, _ = simulate(unit_params, monod2, init, SolverConfig(t_max=0.1))
        frame = traj.frames[-1]
        # Twice the certified bound on sup u and sup v; clipped mass equal to the mass.
        for field, value, breach in (("sup_w", 2 * monitors.certificate.c1, "sup u"),
                                     ("sup_z", 2 * monitors.certificate.c2, "sup v"),
                                     ("clipped", frame.mass, "clipped mass")):
            doctored = dataclasses.replace(frame, **{field: value})
            with pytest.raises(MonitorViolation, match=f"'bounds'.*{breach}"):
                monitors.on_frame(doctored, traj)

    def test_symmetry_violation_detected(self, unit_params, monod2):
        init = InitialData.cosine(1.0)
        monitors = Monitors(bound_certificate(unit_params, monod2, init))
        traj, _ = simulate(unit_params, monod2, init, SolverConfig(t_max=0.1))
        doctored = dataclasses.replace(traj.frames[-1], g=1.5, h=2.6)
        with pytest.raises(MonitorViolation, match="symmetry"):
            monitors.on_frame(doctored, traj)

    def test_speed_violation_detected(self, unit_params, monod2):
        init = InitialData.cosine(1.0)
        monitors = Monitors(bound_certificate(unit_params, monod2, init))
        traj, _ = simulate(unit_params, monod2, init, SolverConfig(t_max=0.1))
        doctored = dataclasses.replace(traj.frames[-1], h_speed=monitors.certificate.c3 * 2)
        with pytest.raises(MonitorViolation, match="speed"):
            monitors.on_frame(doctored, traj)
