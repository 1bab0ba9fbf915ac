import math

import numpy as np
import pytest

from epifront import (
    BisectConfig,
    Classification,
    Evidence,
    InfectionResponse,
    InitialData,
    ModelParams,
    ProbeRecord,
    SolverConfig,
    ThresholdResult,
    ThresholdUndefinedError,
    Verdict,
    find_mu_star,
    find_sigma_star,
    simulate,
    simulate_batch,
    sweep,
)
from epifront.threshold import _MAX_EXPAND, _find_threshold

# A habitat at 80% of the critical width: R0F(0) < 1 < R0, thresholds exist
# and the near-critical transients stay short enough for coarse probing.
P_SUB = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=0.4 * math.pi)
FAST_SIM = SolverConfig(n_cells=64, dt_max=5e-3, t_max=120.0)
COARSE = BisectConfig(rel_tol=0.05)


@pytest.fixture(scope="module")
def sigma_star_result(monod2):
    init = InitialData.cosine(1.0, P_SUB.h0)
    return find_sigma_star(P_SUB, monod2, init.phi, init.psi, FAST_SIM, COARSE)


class TestSigmaStar:
    def test_no_threshold_below_r0_one(self, unit_params):
        resp = InfectionResponse.monod(0.8)
        init = InitialData.cosine(1.0, 1.0)
        with pytest.raises(ThresholdUndefinedError):
            find_sigma_star(unit_params, resp, init.phi, init.psi, FAST_SIM, COARSE)

    def test_degenerate_bracket_when_supercritical(self, monod2):
        p = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=0.6 * math.pi)
        init = InitialData.cosine(1.0, p.h0)
        result = find_sigma_star(p, monod2, init.phi, init.psi, FAST_SIM, COARSE)
        assert result.status == "degenerate"
        assert (result.lo, result.hi) == (0.0, 0.0)
        assert result.n_sims == 0

    def test_bracket_invariants(self, sigma_star_result):
        result = sigma_star_result
        assert result.status == "bracketed"
        assert 0 < result.lo < result.hi
        assert result.rel_width <= COARSE.rel_tol
        by_value = {r.value: r.verdict for r in result.probes}
        assert by_value[result.hi] is Verdict.SPREADING
        assert by_value[result.lo] in (Verdict.VANISHING, Verdict.UNDETERMINED)
        assert result.monotone

    def test_endpoints_confirm(self, monod2, sigma_star_result):
        result = sigma_star_result
        init = InitialData.cosine(1.0, P_SUB.h0)
        confirm = SolverConfig(n_cells=64, dt_max=5e-3, t_max=400.0)
        _, lo_cls = simulate(P_SUB, monod2, init.with_sigma(0.8 * result.lo), confirm)
        _, hi_cls = simulate(P_SUB, monod2, init.with_sigma(1.2 * result.hi), confirm)
        assert lo_cls.verdict is Verdict.VANISHING
        assert hi_cls.verdict is Verdict.SPREADING


class TestMuStar:
    def test_no_threshold_below_r0_one(self, unit_params):
        resp = InfectionResponse.monod(0.8)
        with pytest.raises(ThresholdUndefinedError):
            find_mu_star(unit_params, resp, InitialData.cosine(1.0, 1.0), FAST_SIM, COARSE)

    def test_degenerate_when_supercritical(self, monod2):
        p = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=0.6 * math.pi)
        result = find_mu_star(p, monod2, InitialData.cosine(1.0, p.h0), FAST_SIM, COARSE)
        assert result.status == "degenerate"
        assert (result.lo, result.hi) == (0.0, 0.0)

    def test_bracket_and_monotonicity(self, monod2):
        init = InitialData.cosine(0.05, P_SUB.h0)
        result = find_mu_star(P_SUB, monod2, init, FAST_SIM, COARSE)
        assert result.status == "bracketed"
        assert result.monotone
        by_value = {r.value: r.verdict for r in result.probes}
        assert by_value[result.hi] is Verdict.SPREADING
        assert by_value[result.lo] in (Verdict.VANISHING, Verdict.UNDETERMINED)

    def test_tiny_mu_vanishes(self, monod2):
        # fixed moderate data, R0F(0) < 1: a sluggish front cannot rescue it
        p = P_SUB.with_(mu=1e-3)
        _, cls = simulate(p, monod2, InitialData.cosine(0.5, P_SUB.h0),
                          SolverConfig(n_cells=64, dt_max=5e-3, t_max=150.0))
        assert cls.verdict is Verdict.VANISHING


def synthetic_search(spreads, seed):
    """``_find_threshold`` on P_SUB with ``spreads(value)`` in place of a simulation."""

    def run(value, config):
        verdict = Verdict.SPREADING if spreads(value) else Verdict.VANISHING
        return Classification(verdict, Evidence("synthetic", 0.0, 0.0, 0.0, 0.0, 0.0))

    return _find_threshold("sigma", P_SUB, InfectionResponse.monod(2.0), FAST_SIM, COARSE,
                           run, lambda bisect: seed)


class TestBracketSearch:
    def test_hi_doubles_up_to_the_step(self):
        result = synthetic_search(lambda v: v >= 5.0, seed=0.1)
        assert result.status == "bracketed"
        assert result.lo < 5.0 <= result.hi
        assert result.rel_width <= COARSE.rel_tol
        assert 6.4 in {r.value for r in result.probes}  # 0.1 doubled six times
        assert result.monotone

    def test_always_spreading_exhausts_lo_halvings(self):
        result = synthetic_search(lambda v: True, seed=1.0)
        assert result.status == "inconclusive"
        assert result.n_sims == 1 + _MAX_EXPAND
        assert all(r.verdict is Verdict.SPREADING for r in result.probes)

    def test_never_spreading_exhausts_hi_doublings(self):
        result = synthetic_search(lambda v: False, seed=1.0)
        assert result.status == "inconclusive"
        assert result.n_sims == _MAX_EXPAND == 40
        assert result.hi == 2.0**_MAX_EXPAND

    def test_monotone_false_when_spreading_below_vanishing(self):
        def probe(value, verdict):
            return ProbeRecord(value, verdict, "synthetic", 0.0, 0.0)

        def monotone(*probes):
            return ThresholdResult("sigma", "bracketed", 1.0, 2.0, list(probes)).monotone

        assert not monotone(probe(2.0, Verdict.VANISHING), probe(1.0, Verdict.SPREADING))
        assert monotone(probe(2.0, Verdict.SPREADING), probe(1.0, Verdict.VANISHING))


class TestSweep:
    def test_single_cell_matches_simulate(self, unit_params, monod2):
        init = InitialData.cosine(1.0, 1.0)
        cfg = SolverConfig(n_cells=64, t_max=40.0)
        cells = sweep([unit_params], monod2, [init], cfg)
        assert len(cells) == 1
        _, direct = simulate(unit_params, monod2, init, cfg)
        assert cells[0].verdict is direct.verdict

    def test_ascending_sigma_verdicts_monotone(self, monod2):
        inits = [InitialData.cosine(s, P_SUB.h0) for s in (0.005, 0.02, 0.5, 2.0)]
        cells = sweep([P_SUB], monod2, inits, FAST_SIM)
        seen_spreading = False
        for cell in cells:
            if cell.verdict is Verdict.SPREADING:
                seen_spreading = True
            else:
                assert not seen_spreading

    def test_empty_grid(self, unit_params, monod2):
        assert sweep([], monod2, [], FAST_SIM) == []
        assert sweep([unit_params], monod2, [], FAST_SIM) == []

    def test_grid_is_one_batch(self, monod2, monkeypatch):
        from epifront import threshold as threshold_mod

        calls = []

        def counted(members, config=None, monitors=None):
            calls.append(len(members))
            return simulate_batch(members, config, monitors)

        monkeypatch.setattr(threshold_mod, "simulate_batch", counted)
        params = [P_SUB.with_(mu=mu) for mu in (0.5, 1.0)]
        inits = [InitialData.cosine(s, P_SUB.h0) for s in (0.1, 1.0)]
        cells = sweep(params, monod2, inits, SolverConfig(n_cells=64, dt_max=5e-3, t_max=1.0))
        assert calls == [4]
        assert [(c.params.mu, c.sigma) for c in cells] == [(0.5, 0.1), (0.5, 1.0),
                                                          (1.0, 0.1), (1.0, 1.0)]

    def test_cell_error_recorded_not_fatal(self, unit_params, monod2):
        bad = InitialData(1.0, phi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                          psi=lambda x: 0.0 * x)
        good = InitialData.cosine(0.0, 1.0)
        cells = sweep([unit_params], monod2, [bad, good],
                      SolverConfig(n_cells=64, t_max=1.0))
        assert cells[0].verdict is None
        assert "DomainError" in cells[0].error
        assert cells[1].verdict is Verdict.VANISHING
