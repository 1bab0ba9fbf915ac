import dataclasses
import math

import numpy as np
import pytest

from epifront import (
    BlowUpError,
    DomainError,
    InfectionResponse,
    InitialData,
    ModelParams,
    SolverConfig,
    bound_certificate,
    dominance_check,
    eigen_check,
    endemic_equilibrium,
    ode_solve,
    refinement_study,
    simulate,
)
from conftest import linear_response, zero_response


class TestOdeSolve:
    def test_decoupled_linear_decay(self, unit_params):
        series = ode_solve(unit_params, zero_response(), 1.0, 0.0, 5.0)
        assert series.u[-1] == pytest.approx(math.exp(-5.0), rel=1e-8)
        assert series.v[-1] == pytest.approx(0.0, abs=1e-15)

    def test_supercritical_reaches_equilibrium(self, unit_params, monod2):
        series = ode_solve(unit_params, monod2, 0.5, 0.5, 100.0)
        assert series.u[-1] == pytest.approx(1.0, abs=1e-6)
        assert series.v[-1] == pytest.approx(1.0, abs=1e-6)

    def test_subcritical_extinction(self, unit_params):
        resp = InfectionResponse.monod(0.5)
        series = ode_solve(unit_params, resp, 1.0, 1.0, 100.0)
        assert series.u[-1] < 1e-10 and series.v[-1] < 1e-10

    def test_rejects_bad_inputs(self, unit_params, monod2):
        with pytest.raises(DomainError):
            ode_solve(unit_params, monod2, -1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            ode_solve(unit_params, monod2, 1.0, 1.0, 0.0)
        with pytest.raises(BlowUpError, match="non-finite"):
            ode_solve(unit_params, linear_response(1e6), 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("a21", [1.5, 2.0, 4.0])
    def test_equilibrium_matches_model(self, unit_params, a21):
        resp = InfectionResponse.monod(a21)
        series = ode_solve(unit_params, resp, 0.7, 0.7, 150.0)
        u_star, v_star = endemic_equilibrium(unit_params, resp)
        assert series.u[-1] == pytest.approx(u_star, rel=1e-6)
        assert series.v[-1] == pytest.approx(v_star, rel=1e-6)

    def test_weighted_mass_nonincreasing_subcritical(self, unit_params):
        # u + (a12/a22) v decays along the flow when R0 <= 1
        resp = InfectionResponse.monod(0.9)
        series = ode_solve(unit_params, resp, 1.0, 1.0, 20.0)
        energy = series.u + (unit_params.a12 / unit_params.a22) * series.v
        assert np.all(np.diff(energy) <= 1e-12)


class TestDominance:
    def test_zero_data_no_violation(self, unit_params, monod2):
        traj, _ = simulate(unit_params, monod2, InitialData.cosine(0.0),
                           SolverConfig(t_max=1.0, early_stop=False))
        ode = ode_solve(unit_params, monod2, 0.0, 0.0, traj.final.t)
        assert dominance_check(traj, ode, 0.0) == 0.0

    def test_pde_below_ode_envelope(self, unit_params, monod2):
        init = InitialData.cosine(1.0)
        traj, _ = simulate(unit_params, monod2, init,
                           SolverConfig(t_max=3.0, early_stop=False))
        cert = bound_certificate(unit_params, monod2, init)
        ode = ode_solve(unit_params, monod2, traj.frames[0].sup_w, traj.frames[0].sup_z,
                        traj.final.t)
        tol = 1e-6 * (cert.c1 + cert.c2)
        assert dominance_check(traj, ode, tol) == 0.0

    def test_corrupted_frame_flagged(self, unit_params, monod2):
        init = InitialData.cosine(1.0)
        traj, _ = simulate(unit_params, monod2, init,
                           SolverConfig(t_max=1.0, early_stop=False))
        cert = bound_certificate(unit_params, monod2, init)
        last = traj.frames[-1]
        # A frame's sup_w is the max of its w, so the doctored frame carries both.
        traj.frames[-1] = dataclasses.replace(last, w=last.w + cert.c1, sup_w=last.sup_w + cert.c1)
        ode = ode_solve(unit_params, monod2, traj.frames[0].sup_w, traj.frames[0].sup_z,
                        traj.final.t)
        assert dominance_check(traj, ode, 1e-6 * (cert.c1 + cert.c2)) > 0.0


class TestRefinementStudy:
    def test_orders_first_order_scheme(self, monod2):
        p = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=0.25, h0=1.0)
        study = refinement_study(p, monod2, InitialData.cosine(1.0),
                                 SolverConfig(n_cells=64, dt_max=4e-3), t_end=1.0)
        assert study.conclusive
        assert all(0.8 <= order <= 1.5 for order in study.front_orders)
        assert all(order >= 0.8 for order in study.residual_orders)

    def test_unset_step_rejected(self, unit_params, monod2):
        # Error-controlled steps have no dt to halve; the check is no assert, so
        # python -O keeps it.
        with pytest.raises(DomainError, match="refines a fixed step") as info:
            refinement_study(unit_params, monod2, InitialData.cosine(1.0),
                             SolverConfig(n_cells=32), t_end=0.5)
        assert info.value.field == "dt_max"

    def test_zero_solution_inconclusive(self, unit_params, monod2):
        study = refinement_study(unit_params, monod2, InitialData.cosine(0.0),
                                 SolverConfig(n_cells=32, dt_max=4e-3), t_end=0.5)
        assert not study.conclusive
        assert len(set(study.final_h)) == 1


class TestEigenCheck:
    def test_small_discrepancy(self, unit_params, monod2):
        assert abs(eigen_check(unit_params, monod2, math.pi, 256)) < 1e-3

    def test_second_order_in_dx(self, unit_params, monod2):
        e1 = eigen_check(unit_params, monod2, math.pi, 256)
        e2 = eigen_check(unit_params, monod2, math.pi, 512)
        ratio = abs(e1) / abs(e2)
        assert 4.0 * 0.7 <= ratio <= 4.0 * 1.3

    def test_linearization_shift_cancels(self, unit_params):
        # the G'(0) a12/a22 term shifts both the discrete quotient and the
        # closed form identically, so the discrepancy is response-free
        d1 = eigen_check(unit_params, InfectionResponse.monod(2.0), 2.0, 128)
        d2 = eigen_check(unit_params, InfectionResponse.monod(5.0), 2.0, 128)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_rejects_bad_width(self, unit_params, monod2):
        with pytest.raises(DomainError):
            eigen_check(unit_params, monod2, 0.0)
