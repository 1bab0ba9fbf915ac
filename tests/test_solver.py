import dataclasses
import math

import numpy as np
import pytest

from epifront import (
    BlowUpError,
    DomainError,
    Frame,
    InfectionResponse,
    InitialData,
    ModelParams,
    SolverConfig,
    Verdict,
    front_speeds,
    initial_state,
    sample_physical,
    simulate,
    simulate_batch,
    step,
    sweep,
    transform_coefficients,
)
from conftest import zero_response


class TestTransformCoefficients:
    def test_identity_at_start(self, unit_params):
        y = np.linspace(-1.0, 1.0, 9)
        a, b = transform_coefficients(unit_params, -1.0, 1.0, 0.0, 0.0, y)
        assert np.all(a == 0.0)
        assert b == pytest.approx(unit_params.d)

    def test_substitution_example(self, unit_params):
        a, b = transform_coefficients(unit_params, -2.0, 2.0, -1.0, 1.0, 1.0)
        assert a == pytest.approx(0.5)
        assert b == pytest.approx(unit_params.d / 4.0)

    def test_symmetric_fronts_give_odd_coefficient(self, unit_params):
        y = np.linspace(-1.0, 1.0, 33)
        a, _ = transform_coefficients(unit_params, -3.0, 3.0, -0.7, 0.7, y)
        assert a[16] == 0.0
        assert np.allclose(a + a[::-1], 0.0, atol=1e-15)

    def test_degenerate_domain(self, unit_params):
        with pytest.raises(DomainError):
            transform_coefficients(unit_params, 1.0, 1.0, 0.0, 0.0, 0.0)


class TestFrontSpeeds:
    def test_zero_field(self, unit_params):
        init = InitialData(0.0, phi=lambda x: np.cos(np.pi * x / 2), psi=lambda x: 0.0 * x)
        state = initial_state(unit_params, init, 64)
        assert front_speeds(state, unit_params) == (0.0, 0.0)

    def test_cosine_matches_analytic_slope_second_order(self, unit_params):
        # exact boundary derivative of cos(pi y / (2 h0)) gives h' = mu pi/(2 h0)
        exact = unit_params.mu * math.pi / 2.0
        errors = []
        for n in (64, 128, 256):
            state = initial_state(unit_params, InitialData.cosine(1.0, 1.0), n)
            g_speed, h_speed = front_speeds(state, unit_params)
            assert g_speed == pytest.approx(-h_speed, abs=1e-14)
            errors.append(abs(h_speed - exact))
        orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
        assert min(orders) > 1.7

    def test_signs_once_positive(self, unit_params, monod2):
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0, 1.0),
            SolverConfig(t_max=0.5, frame_stride=10, early_stop="none"),
        )
        for frame in traj.frames:
            assert frame.h_speed > 0.0
            assert frame.g_speed < 0.0


class TestStep:
    def test_preserves_end_zeros_exactly(self, unit_params, monod2):
        state = initial_state(unit_params, InitialData.cosine(1.0, 1.0), 64)
        new = step(state, unit_params, monod2, SolverConfig(n_cells=64))
        assert new.w[0] == 0.0 and new.w[-1] == 0.0
        assert new.z[0] == 0.0 and new.z[-1] == 0.0
        assert new.t > 0.0
        assert new.h > state.h and new.g < state.g

    def test_dt_cap_respected(self, unit_params, monod2):
        state = initial_state(unit_params, InitialData.cosine(1.0, 1.0), 64)
        new = step(state, unit_params, monod2, SolverConfig(n_cells=64), dt_cap=1e-5)
        assert new.t == pytest.approx(1e-5)

    def test_interior_decay_matches_fine_grid_reference(self, unit_params):
        # With G = 0 and v0 = 0 the infective field stays zero and the
        # bacteria decay like the leading Dirichlet mode while the fronts
        # creep; an 8x finer run serves as the reference solution.
        init = InitialData(1.0, phi=lambda x: np.cos(np.pi * x / 2), psi=lambda x: 0.0 * x)
        resp = zero_response()
        centers = {}
        for n, dt in ((64, 1e-3), (512, 1.25e-4)):
            traj, _ = simulate(
                unit_params, resp, init,
                SolverConfig(n_cells=n, dt_max=dt, t_max=0.5, record_times=(0.5,),
                             early_stop="none", frame_stride=10**9),
            )
            frame = traj.final
            centers[n] = frame.w[n // 2]
            assert np.all(frame.z == 0.0)
        assert abs(centers[64] - centers[512]) / centers[512] < 0.01

    def test_non_positive_step_rejected(self, unit_params, monod2):
        state = initial_state(unit_params, InitialData.cosine(1.0, 1.0), 64)
        with pytest.raises(DomainError, match="non-positive step size"):
            step(state, unit_params, monod2, SolverConfig(n_cells=64), dt_cap=0.0)

    def test_blow_up_detected(self, unit_params):
        diverging = InfectionResponse(
            lambda z: np.full_like(np.asarray(z, dtype=float), np.inf),
            lambda z: np.ones_like(np.asarray(z, dtype=float)),
            1.0,
        )
        state = initial_state(unit_params, InitialData.cosine(1.0, 1.0), 64)
        with pytest.raises(BlowUpError):
            step(state, unit_params, diverging, SolverConfig(n_cells=64))


class TestSimulate:
    def test_subthreshold_run_vanishes(self, unit_params):
        resp = InfectionResponse.monod(0.5)
        traj, cls = simulate(
            unit_params, resp, InitialData.cosine(1.0, 1.0), SolverConfig(t_max=120.0)
        )
        assert cls.verdict is Verdict.VANISHING
        widths = traj.widths
        assert np.all(np.diff(widths) >= 0)

    def test_supercritical_habitat_spreads(self, monod2):
        p = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=0.6 * math.pi)
        traj, cls = simulate(p, monod2, InitialData.cosine(1.0, p.h0), SolverConfig(t_max=30.0))
        assert cls.verdict is Verdict.SPREADING
        assert cls.evidence.criterion == "r0f_threshold"

    def test_zero_data_stays_zero(self, unit_params, monod2):
        traj, cls = simulate(
            unit_params, monod2, InitialData.cosine(0.0, 1.0), SolverConfig(t_max=2.0)
        )
        final = traj.final
        assert final.sup_w == 0.0 and final.sup_z == 0.0
        assert final.g == -1.0 and final.h == 1.0
        assert cls.verdict is Verdict.VANISHING

    def test_record_times_hit_exactly(self, unit_params, monod2):
        times = (0.25, 0.5, 0.75)
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0, 1.0),
            SolverConfig(t_max=1.0, record_times=times, early_stop="none"),
        )
        recorded = traj.times
        for target in times:
            assert np.any(recorded == target)

    def test_clipping_stays_negligible(self, unit_params, monod2):
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0, 1.0),
            SolverConfig(t_max=2.0, early_stop="none"),
        )
        clipped = traj.column("clipped")
        masses = traj.column("mass")
        assert np.all(clipped <= 1e-8 * (masses + 1e-300))

    def test_symmetric_run_stays_symmetric(self, unit_params, monod2):
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0, 1.0),
            SolverConfig(t_max=5.0, early_stop="none"),
        )
        drift = max(abs(f.g + f.h) for f in traj.frames)
        assert drift < 1e-10

    def test_front_self_convergence(self, unit_params, monod2):
        # halving both mesh and step shrinks the final-front change by the
        # first-order factor
        finals = []
        for n, dt in ((64, 2e-3), (128, 1e-3), (256, 5e-4)):
            traj, _ = simulate(
                unit_params, monod2, InitialData.cosine(1.0, 1.0),
                SolverConfig(n_cells=n, dt_max=dt, t_max=1.0, record_times=(1.0,),
                             early_stop="none", frame_stride=10**9),
            )
            finals.append(traj.final.h)
        d1 = abs(finals[1] - finals[0])
        d2 = abs(finals[2] - finals[1])
        assert d1 / d2 >= 1.8

    def test_comparison_monotonicity_quick(self, unit_params, monod2):
        frames = {}
        for sigma in (0.5, 2.0):
            traj, _ = simulate(
                unit_params, monod2, InitialData.cosine(sigma, 1.0),
                SolverConfig(t_max=1.0, record_times=(1.0,), early_stop="none",
                             frame_stride=10**9),
            )
            frames[sigma] = traj
        small, big = frames[0.5].final, frames[2.0].final
        assert big.g <= small.g + 1e-12
        assert small.h <= big.h + 1e-12
        xs = np.linspace(small.g, small.h, 201)
        from epifront.solver import SolverState

        st_small = SolverState(small.t, small.g, small.h, small.w, small.z,
                               frames[0.5].y_grid(), 1.0)
        st_big = SolverState(big.t, big.g, big.h, big.w, big.z, frames[2.0].y_grid(), 1.0)
        u_small, v_small = sample_physical(st_small, xs)
        u_big, v_big = sample_physical(st_big, xs)
        assert np.all(u_small <= u_big + 1e-3)
        assert np.all(v_small <= v_big + 1e-3)

    @pytest.mark.parametrize("mode", ["both", "vanishing", "spreading", "none"])
    def test_early_stop_modes(self, unit_params, monod2, mode):
        wide = unit_params.with_(h0=0.6 * math.pi)
        runs = {
            "spreading": (wide, InitialData.cosine(1.0, wide.h0)),
            "vanishing": (unit_params, InitialData.cosine(0.0, unit_params.h0)),
        }
        cfg = SolverConfig(n_cells=64, t_max=1.0, frame_stride=5, early_stop=mode)
        for verdict, (p, init) in runs.items():
            traj, cls = simulate(p, monod2, init, cfg)
            assert cls.verdict.value == verdict
            stopped = mode in ("both", verdict)
            assert traj.terminated_by == (f"classifier:{verdict}" if stopped else "t_max")
            assert (traj.final.t < cfg.t_max) == stopped

    def test_rejects_shape_not_vanishing_at_ends(self, unit_params, monod2):
        bad = InitialData(1.0, phi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                          psi=lambda x: 0.0 * x)
        with pytest.raises(DomainError, match="vanish"):
            simulate(unit_params, monod2, bad, SolverConfig(t_max=1.0))

    def test_rejects_negative_shape(self, unit_params, monod2):
        bad = InitialData(1.0, phi=lambda x: -np.cos(np.pi * x / 2), psi=lambda x: 0.0 * x)
        with pytest.raises(DomainError, match="nonnegative"):
            simulate(unit_params, monod2, bad, SolverConfig(t_max=1.0))


def assert_same_run(got, solo):
    """``got`` equals the solo run ``solo`` exactly: every Frame field (the
    w/z arrays included), the step count, the stop reason and the verdict."""
    (traj, cls), (traj_solo, cls_solo) = got, solo
    assert (traj.n_steps, traj.terminated_by) == (traj_solo.n_steps, traj_solo.terminated_by)
    assert cls == cls_solo
    assert len(traj.frames) == len(traj_solo.frames)
    for frame, frame_solo in zip(traj.frames, traj_solo.frames):
        for name in (f.name for f in dataclasses.fields(Frame)):
            assert np.array_equal(getattr(frame, name), getattr(frame_solo, name)), name


class TestSimulateBatch:
    P = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=0.4 * math.pi)

    def test_members_equal_solo_runs(self, monod2):
        # The perfbench sweep_grid grid, shortened, plus a member with another d;
        # dt_max is left to each member's own resolution (1e-3 h0^2 / d).
        members = [(self.P.with_(mu=mu), monod2, InitialData.cosine(sigma, self.P.h0))
                   for mu in (0.5, 1.0) for sigma in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)]
        members.append((self.P.with_(d=0.6), monod2, InitialData.cosine(0.3, self.P.h0)))
        cfg = SolverConfig(n_cells=64, t_max=2.0, record_times=(0.7,))
        results = simulate_batch(members, cfg)
        assert len(results) == len(members)
        for member, got in zip(members, results):
            assert_same_run(got, simulate(*member, cfg))
        steps = {traj.n_steps for traj, _ in results}
        assert len(steps) > 1  # members left the batch at different steps
        assert all(np.any(traj.times == 0.7) for traj, _ in results if traj.final.t > 0.7)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the bad row
    def test_failure_stays_in_its_member(self, monod2):
        # The second member's infinite bacteria make its explicit update non-finite
        # at the first step; the stacked solve must not carry that to the others.
        h0 = self.P.h0
        bad = InitialData(1.0, phi=lambda x: np.cos(np.pi * x / (2 * h0)),
                          psi=lambda x: np.where(np.abs(x) < 0.5, np.inf, 0.0))
        inits = [InitialData.cosine(s, h0) for s in (0.5, 1.0, 2.0)]
        inits.insert(1, bad)
        members = [(self.P, monod2, init) for init in inits]
        cfg = SolverConfig(n_cells=64, dt_max=0.005, t_max=1.0)
        results = simulate_batch(members, cfg)
        traj, err = results[1]
        assert isinstance(err, BlowUpError)
        assert (err.t, err.g, err.h) == (0.0, -h0, h0)
        assert len(traj.frames) == 1
        for i in (0, 2, 3):
            assert_same_run(results[i], simulate(*members[i], cfg))
        cells = sweep([self.P], monod2, inits, cfg)
        assert cells[1].verdict is None
        assert cells[1].error.startswith("BlowUpError: non-finite field values")
        assert [cells[i].verdict for i in (0, 2, 3)] == [results[i][1].verdict for i in (0, 2, 3)]

    def test_singular_solve_ends_every_member(self, monod2, monkeypatch):
        from epifront import solver as solver_mod

        real = solver_mod.dgtsv

        def singular(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 5)

        monkeypatch.setattr(solver_mod, "dgtsv", singular)
        members = [(self.P, monod2, InitialData.cosine(s, self.P.h0)) for s in (0.5, 1.0)]
        for traj, outcome in simulate_batch(members, SolverConfig(n_cells=64, t_max=1.0)):
            assert isinstance(outcome, np.linalg.LinAlgError)
            assert len(traj.frames) == 1

    def test_members_must_share_the_response(self, monod2):
        init = InitialData.cosine(1.0, self.P.h0)
        with pytest.raises(DomainError, match="share one InfectionResponse"):
            simulate_batch([(self.P, monod2, init), (self.P, InfectionResponse.monod(2.0), init)])

    def test_empty_batch(self):
        assert simulate_batch([]) == []


class TestSamplePhysical:
    def test_dirichlet_at_fronts(self, unit_params, monod2):
        state = initial_state(unit_params, InitialData.cosine(1.0, 1.0), 64)
        assert sample_physical(state, state.g) == (0.0, 0.0)
        assert sample_physical(state, state.h) == (0.0, 0.0)
        assert sample_physical(state, 5.0) == (0.0, 0.0)

    def test_initial_identity_map(self, unit_params, monod2):
        init = InitialData.cosine(1.3, 1.0)
        state = initial_state(unit_params, init, 256)
        xs = np.linspace(-0.95, 0.95, 41)
        u, v = sample_physical(state, xs)
        assert np.allclose(u, init.u0(xs), atol=2e-4)
        assert np.allclose(v, init.v0(xs), atol=2e-4)

    def test_midpoint_equals_center_node(self, unit_params, monod2):
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0, 1.0),
            SolverConfig(t_max=1.0, early_stop="none"),
        )
        f = traj.final
        from epifront.solver import SolverState

        state = SolverState(f.t, f.g, f.h, f.w, f.z, traj.y_grid(), 1.0)
        mid = 0.5 * (f.g + f.h)
        u, _ = sample_physical(state, mid)
        assert u == pytest.approx(f.w[traj.n_cells // 2], rel=1e-9)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(n_cells=15)
        with pytest.raises(DomainError):
            SolverConfig(n_cells=17)
        with pytest.raises(DomainError):
            SolverConfig(dt_max=-1.0)
        with pytest.raises(DomainError, match="frame_stride"):
            SolverConfig(frame_stride=0)
        with pytest.raises(DomainError):
            SolverConfig(early_stop="sometimes")

    @pytest.mark.parametrize("name", ["dt_max", "cfl_adv", "front_cfl", "t_max"])
    def test_infinite_value_rejected(self, name):
        with pytest.raises(DomainError, match=name):
            SolverConfig(**{name: math.inf})

    def test_resolved_defaults(self, unit_params):
        cfg = SolverConfig().resolved(unit_params)
        assert cfg.dt_max == pytest.approx(1e-3)
        assert cfg.t_max == pytest.approx(200.0)
        p2 = ModelParams(d=4.0, a11=2.0, a12=1.0, a22=0.5, mu=1.0, h0=2.0)
        cfg2 = SolverConfig().resolved(p2)
        assert cfg2.dt_max == pytest.approx(1e-3 * 4.0 / 4.0)
        assert cfg2.t_max == pytest.approx(400.0)
