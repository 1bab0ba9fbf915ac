import dataclasses
import math

import numpy as np
import pytest

from epifront import (
    BlowUpError,
    BoundCertificate,
    DomainError,
    Frame,
    InfectionResponse,
    InitialData,
    ModelParams,
    MonitorViolation,
    Monitors,
    SolverConfig,
    Trajectory,
    Verdict,
    bound_certificate,
    classify,
    front_speeds,
    initial_state,
    sample_physical,
    simulate,
    simulate_batch,
    step,
    sweep,
)
from conftest import zero_response
from test_golden import run_digest


class TestFrontSpeeds:
    def test_zero_field(self, unit_params, monod2):
        init = InitialData(0.0, phi=lambda x, h0: np.cos(np.pi * x / 2), psi=lambda x, h0: 0.0 * x)
        frame = initial_state(unit_params, monod2, init, 64)
        assert front_speeds(frame) == (0.0, 0.0)

    def test_cosine_matches_analytic_slope_second_order(self, unit_params, monod2):
        # exact boundary derivative of cos(pi y / (2 h0)) gives h' = mu pi/(2 h0)
        exact = unit_params.mu * math.pi / 2.0
        errors = []
        for n in (64, 128, 256):
            frame = initial_state(unit_params, monod2, InitialData.cosine(1.0), n)
            g_speed, h_speed = front_speeds(frame)
            assert g_speed == pytest.approx(-h_speed, abs=1e-14)
            errors.append(abs(h_speed - exact))
        orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
        assert min(orders) > 1.7

    def test_first_frame_matches_initial_state(self, monod2, unit_params, cosine_init):
        # front_speeds reads a frame's speeds off it.
        p = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.3, h0=0.7)
        init = InitialData.skewed_cosine(1.0, 0.4)
        traj, _ = simulate(p, monod2, init, SolverConfig(n_cells=64, t_max=0.01))
        first = traj.frames[0]
        speeds = front_speeds(first)
        assert (first.g_speed, first.h_speed) == speeds
        # initial_state is the first frame simulate records, every field of it.
        start = initial_state(p, monod2, init, 64)
        for name in (f.name for f in dataclasses.fields(Frame)):
            assert np.array_equal(getattr(start, name), getattr(first, name)), name
        assert speeds[0] < 0.0 < speeds[1] and speeds[0] != -speeds[1]
        # step chained from initial_state gives the run's next frames, every field of them.
        cfg = SolverConfig(n_cells=64, dt_max=1e-3, frame_stride=1, early_stop=False, t_max=0.05)
        for model, data in ((unit_params, cosine_init), (p, init)):
            traj, _ = simulate(model, monod2, data, cfg)
            frame = initial_state(model, monod2, data, cfg.n_cells)
            for expected in traj.frames[1:6]:
                frame = step(frame, model, monod2, cfg)
                for name in (f.name for f in dataclasses.fields(Frame)):
                    assert np.array_equal(getattr(frame, name), getattr(expected, name)), name

    def test_signs_once_positive(self, unit_params, monod2):
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0),
            SolverConfig(t_max=0.5, frame_stride=10, early_stop=False),
        )
        for frame in traj.frames:
            assert frame.h_speed > 0.0
            assert frame.g_speed < 0.0


class TestStep:
    def test_preserves_end_zeros_exactly(self, unit_params, monod2):
        frame = initial_state(unit_params, monod2, InitialData.cosine(1.0), 64)
        new = step(frame, unit_params, monod2, SolverConfig(n_cells=64))
        assert new.w[0] == 0.0 and new.w[-1] == 0.0
        assert new.z[0] == 0.0 and new.z[-1] == 0.0
        assert new.t > 0.0
        assert new.h > frame.h and new.g < frame.g

    def test_front_limit_sets_dt(self, unit_params, monod2):
        # At dt_max = 1 the step is set by the front limit: the faster front
        # moves exactly 0.2 of a physical cell.
        frame = initial_state(unit_params, monod2, InitialData.cosine(1.0), 64)
        g_speed, h_speed = front_speeds(frame)
        speed = max(h_speed, -g_speed)
        h0 = unit_params.h0
        dx_phys = (2.0 * h0 / 64) * frame.width / (2.0 * h0)
        new = step(frame, unit_params, monod2, SolverConfig(n_cells=64, dt_max=1.0))
        assert new.t == 0.2 * dx_phys / speed
        assert new.h - frame.h == pytest.approx(0.2 * dx_phys, rel=1e-12)

    def test_interior_decay_matches_fine_grid_reference(self, unit_params):
        # With G = 0 and v0 = 0 the infective field stays zero and the
        # bacteria decay like the leading Dirichlet mode while the fronts
        # creep; an 8x finer run serves as the reference solution.
        init = InitialData(1.0, phi=lambda x, h0: np.cos(np.pi * x / 2), psi=lambda x, h0: 0.0 * x)
        resp = zero_response()
        centers = {}
        for n, dt in ((64, 1e-3), (512, 1.25e-4)):
            traj, _ = simulate(
                unit_params, resp, init,
                SolverConfig(n_cells=n, dt_max=dt, t_max=0.5, record_times=(0.5,),
                             early_stop=False, frame_stride=10**9),
            )
            frame = traj.final
            centers[n] = frame.w[n // 2]
            assert np.all(frame.z == 0.0)
        assert abs(centers[64] - centers[512]) / centers[512] < 0.01

    def test_non_positive_step_rejected(self, unit_params, monod2):
        # The run loop caps a step at the time left to its next target; a
        # cap of 0 fails the member instead of taking a zero step.
        from epifront import solver as solver_mod

        frame = initial_state(unit_params, monod2, InitialData.cosine(1.0), 64)
        m = solver_mod._Run(Trajectory(unit_params, monod2, [frame]), frame.t, frame.g, frame.h)
        _, failed = solver_mod._step_batch([m], *solver_mod._block([m], 64), [0.0])
        assert list(failed) == [0] and isinstance(failed[0], DomainError)
        assert str(failed[0]) == "non-positive step size 0.0"
        assert (m.t, m.g, m.h) == (frame.t, frame.g, frame.h)

    def test_blow_up_detected(self, unit_params):
        diverging = InfectionResponse(
            lambda z: np.full_like(np.asarray(z, dtype=float), np.inf),
            lambda z: np.ones_like(np.asarray(z, dtype=float)),
        )
        frame = initial_state(unit_params, diverging, InitialData.cosine(1.0), 64)
        with pytest.raises(BlowUpError):
            step(frame, unit_params, diverging, SolverConfig(n_cells=64))


class TestSimulate:
    def test_subthreshold_run_vanishes(self, unit_params):
        resp = InfectionResponse.monod(0.5)
        traj, cls = simulate(
            unit_params, resp, InitialData.cosine(1.0), SolverConfig(t_max=120.0)
        )
        assert cls.verdict is Verdict.VANISHING
        widths = traj.column("width")
        assert np.all(np.diff(widths) >= 0)

    def test_dirichlet_ends_stay_exactly_zero_at_large_r(self, unit_params, monod2):
        # n = 256 with the default error-controlled steps, which grow past 0.1,
        # gives r = dt b / dy^2 in the thousands, where a solve that couples the
        # end rows pivots and leaves round-off there; 2 half - full keeps the 0.
        traj, cls = simulate(unit_params, monod2, InitialData.cosine(0.02),
                             SolverConfig(n_cells=256))
        assert cls.verdict is Verdict.VANISHING and len(traj.frames) > 50
        for frame in traj.frames:
            assert frame.w[0] == frame.w[-1] == 0.0
            assert frame.clipped == 0.0

    def test_supercritical_habitat_spreads(self, monod2):
        p = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=0.6 * math.pi)
        traj, cls = simulate(p, monod2, InitialData.cosine(1.0), SolverConfig(t_max=30.0))
        assert cls.verdict is Verdict.SPREADING
        assert cls.evidence.criterion == "r0f_threshold"

    def test_zero_data_stays_zero(self, unit_params, monod2):
        traj, cls = simulate(
            unit_params, monod2, InitialData.cosine(0.0), SolverConfig(t_max=2.0)
        )
        final = traj.final
        assert final.sup_w == 0.0 and final.sup_z == 0.0
        assert final.g == -1.0 and final.h == 1.0
        assert cls.verdict is Verdict.VANISHING

    def test_record_times_hit_exactly(self, unit_params, monod2):
        times = (0.25, 0.5, 0.75)
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0),
            SolverConfig(t_max=1.0, record_times=times, early_stop=False),
        )
        recorded = traj.column("t")
        for target in times:
            assert np.any(recorded == target)

    def test_record_time_next_to_t_max_gets_its_own_frame(self, unit_params, monod2):
        # The run lands on 1 - 1e-12 exactly, then takes a step of 1e-12 to t_max.
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(0.1),
            SolverConfig(n_cells=64, dt_max=0.01, t_max=1.0, record_times=(1.0 - 1e-12,),
                         early_stop=False),
        )
        assert (traj.n_steps, len(traj.frames)) == (101, 4)
        assert traj.frame_at(1.0 - 1e-12) is traj.frames[-2]
        assert traj.frames[-2].t == 1.0 - 1e-12 and traj.final.t == 1.0
        assert traj.terminated_by == "t_max"

    def test_clipping_stays_negligible(self, unit_params, monod2):
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0),
            SolverConfig(t_max=2.0, early_stop=False),
        )
        clipped = traj.column("clipped")
        masses = traj.column("mass")
        assert np.all(clipped <= 1e-8 * (masses + 1e-300))

    def test_symmetric_run_stays_symmetric(self, unit_params, monod2):
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0),
            SolverConfig(t_max=5.0, early_stop=False),
        )
        drift = max(abs(f.g + f.h) for f in traj.frames)
        assert drift < 1e-10

    def test_front_self_convergence(self, unit_params, monod2):
        # halving both mesh and step shrinks the final-front change by the
        # first-order factor
        finals = []
        for n, dt in ((64, 2e-3), (128, 1e-3), (256, 5e-4)):
            traj, _ = simulate(
                unit_params, monod2, InitialData.cosine(1.0),
                SolverConfig(n_cells=n, dt_max=dt, t_max=1.0, record_times=(1.0,),
                             early_stop=False, frame_stride=10**9),
            )
            finals.append(traj.final.h)
        d1 = abs(finals[1] - finals[0])
        d2 = abs(finals[2] - finals[1])
        assert d1 / d2 >= 1.8

    def test_comparison_monotonicity_quick(self, unit_params, monod2):
        frames = {}
        for sigma in (0.5, 2.0):
            traj, _ = simulate(
                unit_params, monod2, InitialData.cosine(sigma),
                SolverConfig(t_max=1.0, record_times=(1.0,), early_stop=False,
                             frame_stride=10**9),
            )
            frames[sigma] = traj
        small, big = frames[0.5].final, frames[2.0].final
        assert big.g <= small.g + 1e-12
        assert small.h <= big.h + 1e-12
        xs = np.linspace(small.g, small.h, 201)
        u_small, v_small = sample_physical(small, xs)
        u_big, v_big = sample_physical(big, xs)
        assert np.all(u_small <= u_big + 1e-3)
        assert np.all(v_small <= v_big + 1e-3)

    # The ids keep the names of the old early_stop modes that meant the same:
    # stop on both verdicts, or on none.
    @pytest.mark.parametrize("early_stop", [pytest.param(True, id="both"),
                                            pytest.param(False, id="none")])
    def test_early_stop_modes(self, unit_params, monod2, early_stop):
        # Neither run is decided by its initial frame: R0F(0) < 1 for both,
        # and the vanishing one (R0 = 0.02) takes until t = 1.42 to decay.
        wide = unit_params.with_(h0=1.2)
        fast_decay = unit_params.with_(a11=10.0, a22=10.0)
        runs = {
            "spreading": (wide, InitialData.cosine(2.0)),
            "vanishing": (fast_decay, InitialData.cosine(1.0)),
        }
        cfg = SolverConfig(n_cells=64, dt_max=0.01, t_max=2.0, frame_stride=5,
                           early_stop=early_stop)
        for verdict, (p, init) in runs.items():
            traj, cls = simulate(p, monod2, init, cfg)
            assert cls.verdict.value == verdict
            assert traj.terminated_by == (f"classifier:{verdict}" if early_stop else "t_max")
            assert (traj.final.t < cfg.t_max) == early_stop
            if early_stop:
                # The run ends on the first recorded frame that decides it.
                before = classify(Trajectory(p, monod2, traj.frames[:-1]))
                assert before.verdict is Verdict.UNDETERMINED
                if cls.verdict is Verdict.SPREADING:
                    # It ends on the crossing frame: the located time lies
                    # between it and the frame before it.
                    assert traj.frames[-2].t <= cls.evidence.time <= traj.final.t

    def test_first_frame_decides_early_stopped_run(self, unit_params, monod2):
        # R0F(0) = 1.18 >= 1 + margin spreads and zero data vanishes: the first
        # frame decides both, so an early-stopped run ends there, with no step.
        wide = unit_params.with_(h0=0.6 * math.pi)
        runs = ((wide, InitialData.cosine(1.0), Verdict.SPREADING),
                (unit_params, InitialData.cosine(0.0), Verdict.VANISHING))
        cfg = SolverConfig(n_cells=64, t_max=0.5, frame_stride=5)
        for p, init, verdict in runs:
            traj, cls = simulate(p, monod2, init, cfg)
            assert cls.verdict is verdict and cls.evidence.time == 0.0
            assert (traj.n_steps, len(traj.frames), traj.final.t) == (0, 1, 0.0)
            assert traj.terminated_by == f"classifier:{verdict.value}"
            traj, cls = simulate(p, monod2, init, dataclasses.replace(cfg, early_stop=False))
            assert cls.verdict is verdict
            assert (traj.final.t, traj.terminated_by) == (cfg.t_max, "t_max")

    def test_spreading_run_ends_on_its_crossing_step(self, unit_params, monod2):
        # The step on which R0F first reaches 1 + margin is recorded whatever
        # the stride, so a stride-50 run ends on the step a stride-1 run ends on.
        from epifront.analysis import SPREADING_R0F

        p = unit_params.with_(h0=1.2)
        cfg = SolverConfig(n_cells=64, dt_max=0.01, t_max=2.0, frame_stride=50)
        traj, cls = simulate(p, monod2, InitialData.cosine(2.0), cfg)
        every, _ = simulate(p, monod2, InitialData.cosine(2.0),
                            dataclasses.replace(cfg, frame_stride=1))
        assert cls.verdict is Verdict.SPREADING and traj.n_steps % 50 != 0
        assert traj.n_steps == every.n_steps and traj.final.t == every.final.t
        assert traj.frames[-2].r0f < SPREADING_R0F <= traj.final.r0f
        assert traj.frames[-2].t < cls.evidence.time <= traj.final.t

    @staticmethod
    def recorded_steps(monkeypatch, *args):
        """The run ``simulate(*args)`` and the step count at each frame it recorded."""
        from epifront import solver as solver_mod

        steps = []
        real = solver_mod._Run.record

        def spy(run, frame):
            steps.append(run.traj.n_steps)
            real(run, frame)

        monkeypatch.setattr(solver_mod._Run, "record", spy)
        traj, _ = simulate(*args)
        return traj, steps

    def test_crossing_recorded_once_off_the_stride(self, unit_params, monod2, monkeypatch):
        # Without early stop the run goes on past its crossing step: that step
        # is recorded once, and the stride then counts from it.
        from epifront.analysis import SPREADING_R0F

        cfg = SolverConfig(n_cells=64, dt_max=0.002, t_max=1.0, frame_stride=50, early_stop=False)
        traj, steps = self.recorded_steps(monkeypatch, unit_params.with_(h0=1.2), monod2,
                                          InitialData.cosine(2.0), cfg)
        r0f = traj.column("r0f")
        crossed = [k for k in range(1, len(r0f)) if r0f[k - 1] < SPREADING_R0F <= r0f[k]]
        assert len(crossed) == 1 and steps[crossed[0]] % 50 != 0
        k = crossed[0]
        assert traj.final.t == cfg.t_max and steps[-1] == traj.n_steps
        assert all(b - a == 50 for a, b in zip(steps[k:-2], steps[k + 1:-1]))
        assert all(b - a == 50 for a, b in zip(steps[:k - 1], steps[1:k]))
        assert 0 < steps[k] - steps[k - 1] < 50 and 0 < steps[-1] - steps[-2] <= 50

    def test_no_crossing_below_the_spreading_level(self, unit_params, monkeypatch):
        # R0 = 1 + 5e-7 lies below the level R0F must reach, so no step is
        # recorded off the stride and the run ends at t_max.
        from epifront.analysis import SPREADING_R0F

        cfg = SolverConfig(n_cells=64, dt_max=0.01, t_max=2.0, frame_stride=50)
        traj, steps = self.recorded_steps(monkeypatch, unit_params,
                                          InfectionResponse.monod(1.0 + 5e-7),
                                          InitialData.cosine(2.0), cfg)
        assert traj.column("r0f").max() < SPREADING_R0F
        assert traj.terminated_by == "t_max" and traj.final.t == cfg.t_max
        assert steps == [*range(0, traj.n_steps, 50), traj.n_steps]

    def test_rejects_shape_not_vanishing_at_ends(self, unit_params, monod2):
        bad = InitialData(1.0, phi=lambda x, h0: np.ones_like(np.asarray(x, dtype=float)),
                          psi=lambda x, h0: 0.0 * x)
        with pytest.raises(DomainError, match="vanish"):
            simulate(unit_params, monod2, bad, SolverConfig(t_max=1.0))

    def test_rejects_negative_shape(self, unit_params, monod2):
        bad = InitialData(1.0, phi=lambda x, h0: -np.cos(np.pi * x / 2), psi=lambda x, h0: 0.0 * x)
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
        # dt_max is unset, so each member takes its own error-controlled steps
        # from its own first step 1e-3 h0^2 / d.
        members = [(self.P.with_(mu=mu), monod2, InitialData.cosine(sigma))
                   for mu in (0.5, 1.0) for sigma in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)]
        members.append((self.P.with_(d=0.6), monod2, InitialData.cosine(0.3)))
        cfg = SolverConfig(n_cells=64, t_max=2.0, record_times=(0.7,))
        results = simulate_batch(members, cfg)
        assert len(results) == len(members)
        for member, got in zip(members, results):
            assert_same_run(got, simulate(*member, cfg))
        steps = {traj.n_steps for traj, _ in results}
        assert len(steps) > 1  # members left the batch at different steps
        assert all(np.any(traj.column("t") == 0.7) for traj, _ in results if traj.final.t > 0.7)

    def test_member_with_a_rejected_step_equals_its_solo_run(self, unit_params, monod2,
                                                             monkeypatch):
        # sigma = 2 rejects a step where sigma = 0.5 accepts every one, so in the
        # batch one member retries while the other moves on.  Each accepted or
        # rejected attempt is three stepper calls.
        from epifront import solver as solver_mod

        members = [(unit_params, monod2, InitialData.cosine(sigma)) for sigma in (2.0, 0.5)]
        cfg = SolverConfig(n_cells=64, t_max=1.0, frame_stride=5, early_stop=False)
        real = solver_mod._step_batch
        calls = []
        monkeypatch.setattr(solver_mod, "_step_batch",
                            lambda *args: calls.append(0) or real(*args))
        solos, attempts = [], []
        for member in members:
            calls.clear()
            solos.append(simulate(*member, cfg))
            attempts.append(len(calls) // 3)
        assert attempts[0] > solos[0][0].n_steps and attempts[1] == solos[1][0].n_steps
        for got, solo in zip(simulate_batch(members, cfg), solos):
            assert_same_run(got, solo)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the bad row
    def test_failure_stays_in_its_member(self, monod2):
        # The second member's infinite bacteria make its explicit update non-finite
        # at the first step; the stacked solve must not carry that to the others.
        # The fifth member's certificate puts C1 below sup u0, so its monitor
        # fails on its initial frame, before the member joins the batch.  The
        # sixth member's d = 1e308 overflows its diffusion ratio r at the first
        # step, so it ends before its field update.  The seventh member's initial
        # shape does not vanish at +/-h0, so it fails before its first frame.
        h0 = self.P.h0
        bad = InitialData(1.0, phi=lambda x, h0: np.cos(np.pi * x / (2 * h0)),
                          psi=lambda x, h0: np.where(np.abs(x) < 0.5, np.inf, 0.0))
        inits = [InitialData.cosine(s) for s in (0.5, 1.0, 2.0)]
        inits.insert(1, bad)
        members = [(self.P, monod2, init) for init in inits + [InitialData.cosine(1.0)]]
        members.append((self.P.with_(d=1e308), monod2, InitialData.cosine(1.0)))
        flat = InitialData(1.0, phi=lambda x, h0: np.ones_like(np.asarray(x, dtype=float)),
                           psi=lambda x, h0: 0.0 * x)
        members.append((self.P, monod2, flat))
        tight = Monitors(BoundCertificate(c1=0.5, c2=10.0, c3=1e9, m=1.0))
        cfg = SolverConfig(n_cells=64, dt_max=0.005, t_max=1.0)
        results = simulate_batch(members, cfg, [None] * 4 + [tight, None, None])
        for i in (1, 5):
            traj, err = results[i]
            assert isinstance(err, BlowUpError)
            assert str(err) == "non-finite field values at t=0.005"
            assert (err.t, err.g, err.h) == (0.0, -h0, h0)
            assert len(traj.frames) == 1 and traj.n_steps == 0
        traj, err = results[4]
        assert isinstance(err, MonitorViolation)
        assert (err.monitor, err.t) == ("bounds", 0.0)
        assert len(traj.frames) == 1 and traj.n_steps == 0
        traj, err = results[6]
        assert isinstance(err, DomainError) and "must vanish" in str(err)
        assert traj.frames == [] and traj.n_steps == 0 and traj.params.h0 == h0
        with pytest.raises(DomainError, match="must vanish") as raised:
            simulate(*members[6], cfg)
        assert raised.value.trajectory.frames == []
        for i in (0, 2, 3):
            assert_same_run(results[i], simulate(*members[i], cfg))
        cells = sweep([self.P], monod2, inits, cfg)
        assert cells[1].verdict is None
        assert cells[1].error.startswith("BlowUpError: non-finite field values")
        assert [cells[i].verdict for i in (0, 2, 3)] == [results[i][1].verdict for i in (0, 2, 3)]

    @staticmethod
    def spy_nonfinite_rows(monkeypatch) -> list:
        """Record what every _nonfinite_rows call of the stepper returns."""
        from epifront import solver as solver_mod

        real = solver_mod._nonfinite_rows
        flagged = []

        def spy(block):
            flagged.append(real(block))
            return flagged[-1]

        monkeypatch.setattr(solver_mod, "_nonfinite_rows", spy)
        return flagged

    def test_overflow_in_the_solve_is_caught_after_it(self, monkeypatch):
        # The right-hand side, about 1e307, and every step before the solve
        # are finite, but the elimination overflows; only the check on the
        # solved block (the second _nonfinite_rows call, after the one on the
        # stacked w, z block) flags the member.
        flagged = self.spy_nonfinite_rows(monkeypatch)
        p = ModelParams(d=1e6, a11=1e-300, a12=1e-300, a22=1e-300, mu=1e-320, h0=1.0)
        cfg = SolverConfig(n_cells=16, dt_max=1e-3, early_stop=False)
        with np.errstate(over="ignore"):
            [(traj, err)] = simulate_batch([(p, zero_response(), InitialData.cosine(1e307))], cfg)
        assert isinstance(err, BlowUpError)
        assert str(err) == "non-finite field values at t=0.001" and err.t == 0.0
        assert len(traj.frames) == 1 and traj.frames[0].t == 0.0 and traj.n_steps == 0
        assert flagged == [[], [0]]

    def test_overflowing_diagonal_is_caught_before_the_solve(self, monod2, monkeypatch):
        # r = dt b / dy^2 is about 9.6e307, finite, but the diagonal 1 + 2r of
        # its solve overflows, so the per-member loop fails the member and
        # neither check on the field blocks flags it.
        flagged = self.spy_nonfinite_rows(monkeypatch)
        p = ModelParams(d=1e300, a11=1.0, a12=1.0, a22=1.0, mu=1e-300, h0=1.0)
        cfg = SolverConfig(n_cells=16, dt_max=1.5e6, t_max=1e7)
        [(traj, err)] = simulate_batch([(p, monod2, InitialData.cosine(1.0))], cfg)
        assert isinstance(err, BlowUpError)
        assert str(err) == "non-finite field values at t=1.5e+06" and err.t == 0.0
        assert len(traj.frames) == 1 and traj.frames[0].t == 0.0 and traj.n_steps == 0
        assert flagged == [[], []]

    def test_singular_solve_ends_every_member(self, monod2, monkeypatch):
        from epifront import solver as solver_mod

        real = solver_mod.dgtsv

        def singular(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 5)

        monkeypatch.setattr(solver_mod, "dgtsv", singular)
        members = [(self.P, monod2, InitialData.cosine(s)) for s in (0.5, 1.0)]
        results = simulate_batch(members, SolverConfig(n_cells=64, t_max=1.0))
        for traj, outcome in results:
            assert isinstance(outcome, np.linalg.LinAlgError)
            assert len(traj.frames) == 1
        # One error ends the whole batch: every member holds that one object.
        assert results[0][1] is results[1][1]

    def test_solve_that_returns_a_copy_is_written_back(self, monod2, monkeypatch):
        # dgtsv overwrites the right-hand side in place when it can; a LAPACK
        # wrapper that hands back a copy instead must give the same run.
        from epifront import solver as solver_mod

        real = solver_mod.dgtsv

        def copying(*args, **kwargs):
            *out, x, info = real(*args, **kwargs)
            return (*out, x.copy(), info)

        members = [(self.P, monod2, InitialData.cosine(s)) for s in (0.5, 1.0)]
        cfg = SolverConfig(n_cells=64, t_max=0.5, frame_stride=10)
        expected = simulate_batch(members, cfg)
        monkeypatch.setattr(solver_mod, "dgtsv", copying)
        for got, want in zip(simulate_batch(members, cfg), expected):
            assert_same_run(got, want)

    def test_member_decided_at_start_leaves_the_batch(self, monod2, monkeypatch):
        from epifront import analysis as analysis_mod

        real = analysis_mod.classify
        classified = []

        def spy(traj):
            classified.append(traj)
            return real(traj)

        monkeypatch.setattr(analysis_mod, "classify", spy)
        members = [(self.P, monod2, InitialData.cosine(0.0)),
                   (self.P, monod2, InitialData.cosine(1.0))]
        cfg = SolverConfig(n_cells=64, t_max=0.5, frame_stride=10)
        (zero, zero_cls), live = simulate_batch(members, cfg)
        assert zero_cls.verdict is Verdict.VANISHING
        assert (zero.n_steps, len(zero.frames), zero.terminated_by) == (
            0, 1, "classifier:vanishing")
        assert sum(traj is zero for traj in classified) == 1
        # The live member, classified on its first frame too, runs as it would alone.
        assert sum(traj is live[0] for traj in classified) == len(live[0].frames)
        assert_same_run(live, simulate(*members[1], cfg))

    def test_members_must_share_the_response(self, monod2):
        init = InitialData.cosine(1.0)
        with pytest.raises(DomainError, match="share one InfectionResponse"):
            simulate_batch([(self.P, monod2, init), (self.P, InfectionResponse.monod(2.0), init)])

    def test_empty_batch(self):
        assert simulate_batch([]) == []


class TestSamplePhysical:
    def test_dirichlet_at_fronts(self, unit_params, monod2):
        frame = initial_state(unit_params, monod2, InitialData.cosine(1.0), 64)
        assert sample_physical(frame, frame.g) == (0.0, 0.0)
        assert sample_physical(frame, frame.h) == (0.0, 0.0)
        assert sample_physical(frame, 5.0) == (0.0, 0.0)

    def test_initial_identity_map(self, unit_params, monod2):
        init = InitialData.cosine(1.3)
        frame = initial_state(unit_params, monod2, init, 256)
        xs = np.linspace(-0.95, 0.95, 41)
        u, v = sample_physical(frame, xs)
        assert np.allclose(u, init.u0(xs, unit_params.h0), atol=2e-4)
        assert np.allclose(v, init.v0(xs, unit_params.h0), atol=2e-4)

    def test_midpoint_equals_center_node(self, unit_params, monod2):
        traj, _ = simulate(
            unit_params, monod2, InitialData.cosine(1.0),
            SolverConfig(t_max=1.0, early_stop=False),
        )
        f = traj.final
        mid = 0.5 * (f.g + f.h)
        u, _ = sample_physical(f, mid)
        assert u == pytest.approx(f.w[f.w.size // 2], rel=1e-9)


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
        # An old mode name or a number is no bool, even where it reads as true.
        for value in ("none", 1):
            with pytest.raises(DomainError, match="early_stop must be a bool") as info:
                SolverConfig(early_stop=value)
            assert info.value.field == "early_stop"
        with pytest.raises(DomainError, match="record_times"):
            SolverConfig(record_times=(math.nan,))
        # A float n_cells fails later in simulate; a float stride records every ceil(stride) steps.
        with pytest.raises(DomainError, match="n_cells must be an integer"):
            SolverConfig(n_cells=64.0)
        with pytest.raises(DomainError, match="frame_stride must be an integer"):
            SolverConfig(frame_stride=2.5)
        with pytest.raises(DomainError, match="frame_stride must be an integer"):
            SolverConfig(frame_stride=True)

    @pytest.mark.parametrize("name", ["dt_max", "t_max"])
    def test_infinite_value_rejected(self, name):
        with pytest.raises(DomainError, match=name):
            SolverConfig(**{name: math.inf})

    def test_resolved_defaults(self, unit_params):
        # An unset dt_max stays unset (error-controlled steps) and derives the first step.
        cfg = SolverConfig().resolved(unit_params)
        assert cfg.dt_max is None
        assert cfg.first_step(unit_params) == pytest.approx(1e-3)
        assert cfg.t_max == pytest.approx(200.0)
        p2 = ModelParams(d=4.0, a11=2.0, a12=1.0, a22=0.5, mu=1.0, h0=2.0)
        cfg2 = SolverConfig().resolved(p2)
        assert cfg2.first_step(p2) == pytest.approx(1e-3 * 4.0 / 4.0)
        assert cfg2.t_max == pytest.approx(400.0)
        assert SolverConfig(dt_max=0.02).resolved(p2).first_step(p2) == 0.02


class TestErrorControlledSteps:
    """dt_max unset: step doubling with local Richardson extrapolation."""

    def test_more_accurate_than_the_fixed_first_step(self, unit_params, monod2):
        # The n = 64 vanish model at t = 4 against the fixed-step Richardson value
        # 2 X(dt/2) - X(dt) at dt = 5e-4, whose own error is O(dt^2).
        init = InitialData.cosine(0.02)

        def run(dt_max):
            cfg = SolverConfig(n_cells=64, dt_max=dt_max, t_max=4.0, early_stop=False)
            return simulate(unit_params, monod2, init, cfg)[0]

        coarse, fine = run(5e-4).final, run(2.5e-4).final
        ref = [2.0 * getattr(fine, name) - getattr(coarse, name) for name in ("width", "sup_w")]

        def errors(traj):
            return [abs(traj.final.width - ref[0]), abs(traj.final.sup_w - ref[1])]

        controlled, fixed = run(None), run(1e-3)  # 1e-3 h0^2/d, the first step
        assert all(e < e_fixed for e, e_fixed in zip(errors(controlled), errors(fixed)))
        assert controlled.n_steps < fixed.n_steps / 10

    def test_spreading_time_matches_the_fixed_step_limit(self, unit_params, monod2):
        # The perfbench recorded_spread model.  Its fixed-step limit 5.8843 is
        # extrapolated from 5.874 (dt = 1e-3) and 5.88175 (dt = 2.5e-4) at stride 1.
        cfg = SolverConfig(n_cells=256, t_max=8.0, frame_stride=1)
        _, cls = simulate(unit_params, monod2, InitialData.cosine(0.3), cfg)
        assert cls.verdict is Verdict.SPREADING
        assert abs(cls.evidence.time - 5.8843) <= 2e-3

    def test_rerun_is_byte_identical_and_widths_never_decrease(self, unit_params, monod2):
        cfg = SolverConfig(n_cells=64, t_max=10.0, frame_stride=1, early_stop=False)
        first, second = (simulate(unit_params, monod2, InitialData.cosine(0.3), cfg)[0]
                         for _ in range(2))
        assert run_digest(first) == run_digest(second)
        assert np.all(np.diff(first.column("width")) >= 0.0)
        assert first.n_steps < 10.0 / 1e-3 / 10  # far fewer than fixed 1e-3 steps

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow in the bad row
    def test_failed_member_leaves_its_batch_mate_as_its_solo_run(self, unit_params, monod2):
        # cosine(1e300) overflows on its first attempt; its rows are zeroed
        # before the error norms, so the other member never sees them.
        cfg = SolverConfig(n_cells=64, t_max=2.0)
        members = [(unit_params, monod2, InitialData.cosine(s)) for s in (1e300, 1.0)]
        (traj, err), got = simulate_batch(members, cfg)
        assert isinstance(err, BlowUpError)
        assert traj.n_steps == 0 and len(traj.frames) == 1
        assert_same_run(got, simulate(*members[1], cfg))

    def test_floored_extrapolation_is_clipped_mass(self, unit_params, monod2):
        # A narrow bump: 2 half - full dips below 0 in its tails, and the
        # floored mass joins the frame's clipped mass.
        def bump(x, h0):
            return np.cos(np.pi * x / (2 * h0)) ** 50

        init = InitialData(1.0, phi=bump, psi=bump)
        cfg = SolverConfig(n_cells=64, t_max=3.0, frame_stride=1)
        monitors = Monitors(bound_certificate(unit_params, monod2, init))
        traj, _ = simulate(unit_params, monod2, init, cfg, monitors)
        clipped = traj.column("clipped")
        assert clipped.max() > 0.0
        assert (clipped / traj.column("mass")).max() < 1e-13  # the monitor allows 1e-8
        assert all(f.w.min() >= 0.0 and f.z.min() >= 0.0 for f in traj.frames)
        rerun, _ = simulate(unit_params, monod2, init, cfg, monitors)
        assert run_digest(rerun) == run_digest(traj)

    def test_second_half_step_cut_by_the_front_limit_is_rejected(self, unit_params, monod2,
                                                                 monkeypatch):
        # cos^2 data has flat ends, so the fronts start at rest and the full
        # step is not cut; after the first half step they are fast (mu = 1e4),
        # and the front limit cuts the second.  Each attempt is three stepper
        # calls: the full step, then the two half steps.
        from epifront import solver as solver_mod

        def flat_ends(x, h0):
            return np.cos(np.pi * x / (2 * h0)) ** 2

        real = solver_mod._step_batch
        calls = []  # per call: (t, g, h) before, the member's field rows, the step taken, the cap

        def spy(members, f, y, caps):
            m = members[0]
            before = (m.t, m.g, m.h)
            out = real(members, f, y, caps)
            calls.append((before, f[:, 0].copy(), m.dt, caps[0]))
            return out

        monkeypatch.setattr(solver_mod, "_step_batch", spy)
        init = InitialData(1.0, phi=flat_ends, psi=flat_ends)
        simulate(unit_params.with_(mu=1e4), monod2, init, SolverConfig(n_cells=64, t_max=2.0))
        attempts = [calls[k:k + 3] for k in range(0, len(calls), 3)]
        cut = [k for k, (*_, (_, _, dt, cap)) in enumerate(attempts) if dt != cap]
        assert cut == [0]
        assert attempts[0][0][0] == (0.0, -1.0, 1.0) and attempts[0][0][2] == 1e-3
        # The retry starts from the same state, at twice the half step that fit.
        (state, rows, _, _), retry = attempts[0][0], attempts[1][0]
        assert retry[0] == state and np.array_equal(retry[1], rows)
        assert retry[2] == 2.0 * attempts[0][2][2] < attempts[0][0][2] / 2.0
