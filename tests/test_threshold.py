import math
from types import SimpleNamespace

import numpy as np
import pytest

from epifront import (
    BisectConfig,
    BlowUpError,
    Classification,
    DomainError,
    Evidence,
    InfectionResponse,
    InitialData,
    ModelParams,
    ProbeRecord,
    SolverConfig,
    ThresholdResult,
    ThresholdUndefinedError,
    Verdict,
    find_threshold,
    simulate,
    simulate_batch,
    sweep,
)
from epifront import threshold as threshold_mod
from epifront.threshold import _MAX_EXPAND, _search

# A habitat at 80% of the critical width: R0F(0) < 1 < R0, thresholds exist
# and the near-critical transients stay short enough for coarse probing.
P_SUB = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=0.4 * math.pi)
FAST_SIM = SolverConfig(n_cells=64, dt_max=5e-3, t_max=120.0)
COARSE = BisectConfig(rel_tol=0.05)


@pytest.fixture(scope="module")
def sigma_star_result(monod2):
    init = InitialData.cosine(1.0)
    return find_threshold("sigma", P_SUB, monod2, init, FAST_SIM, COARSE)


class TestSigmaStar:
    def test_no_threshold_below_r0_one(self, unit_params):
        resp = InfectionResponse.monod(0.8)
        init = InitialData.cosine(1.0)
        with pytest.raises(ThresholdUndefinedError):
            find_threshold("sigma", unit_params, resp, init, FAST_SIM, COARSE)

    def test_zero_phi_rejected(self, monod2):
        # sigma scales phi, so no sigma can make a zero shape spread.
        def zero(x, h0):
            return np.zeros_like(x)

        with pytest.raises(DomainError, match="phi must be positive"):
            find_threshold("sigma", P_SUB, monod2, InitialData(1.0, zero, zero),
                           FAST_SIM, COARSE)

    def test_degenerate_bracket_when_supercritical(self, monod2):
        p = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=0.6 * math.pi)
        init = InitialData.cosine(1.0)
        result = find_threshold("sigma", p, monod2, init, FAST_SIM, COARSE)
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
        init = InitialData.cosine(1.0)
        confirm = SolverConfig(n_cells=64, dt_max=5e-3, t_max=400.0)
        _, lo_cls = simulate(P_SUB, monod2, init.with_sigma(0.8 * result.lo), confirm)
        _, hi_cls = simulate(P_SUB, monod2, init.with_sigma(1.2 * result.hi), confirm)
        assert lo_cls.verdict is Verdict.VANISHING
        assert hi_cls.verdict is Verdict.SPREADING


class TestMuStar:
    def test_no_threshold_below_r0_one(self, unit_params):
        resp = InfectionResponse.monod(0.8)
        with pytest.raises(ThresholdUndefinedError):
            find_threshold("mu", unit_params, resp, InitialData.cosine(1.0), FAST_SIM,
                           COARSE)

    def test_degenerate_when_supercritical(self, monod2):
        p = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=0.6 * math.pi)
        result = find_threshold("mu", p, monod2, InitialData.cosine(1.0), FAST_SIM, COARSE)
        assert result.status == "degenerate"
        assert (result.lo, result.hi) == (0.0, 0.0)

    def test_bracket_and_monotonicity(self, monod2):
        init = InitialData.cosine(0.05)
        result = find_threshold("mu", P_SUB, monod2, init, FAST_SIM, COARSE)
        assert result.status == "bracketed"
        assert result.monotone
        by_value = {r.value: r.verdict for r in result.probes}
        assert by_value[result.hi] is Verdict.SPREADING
        assert by_value[result.lo] in (Verdict.VANISHING, Verdict.UNDETERMINED)

    def test_tiny_mu_vanishes(self, monod2):
        # fixed moderate data, R0F(0) < 1: a sluggish front cannot rescue it
        p = P_SUB.with_(mu=1e-3)
        _, cls = simulate(p, monod2, InitialData.cosine(0.5),
                          SolverConfig(n_cells=64, dt_max=5e-3, t_max=150.0))
        assert cls.verdict is Verdict.VANISHING


def synthetic_search(monkeypatch, spreads, seed_factor, batches=None):
    """``find_threshold("sigma", ...)`` on P_SUB with ``spreads(sigma)`` in
    place of a simulation.  The search starts from seed_factor·u*/sup phi,
    with u* = 1 to about 1e-10 and sup phi = 1; its first probe is that seed.

    ``spreads`` returns a bool, a Verdict, or an exception that ends the
    run; ``batches``, when given, collects the sigmas of each run call."""

    def outcome(sigma):
        verdict = spreads(sigma)
        traj = SimpleNamespace(final=SimpleNamespace(width=0.0), sigma=sigma)
        if isinstance(verdict, Exception):
            return traj, verdict
        if not isinstance(verdict, Verdict):
            verdict = Verdict.SPREADING if verdict else Verdict.VANISHING
        return traj, Classification(verdict, Evidence("synthetic", 0.0, 0.0))

    def simulate(p, resp, init, config):
        if batches is not None:
            batches.append([init.sigma])
        traj, result = outcome(init.sigma)
        if isinstance(result, Exception):
            result.trajectory = traj
            raise result
        return traj, result

    def simulate_batch(members, config):
        if batches is not None:
            batches.append([init.sigma for _, _, init in members])
        return [outcome(init.sigma) for _, _, init in members]

    monkeypatch.setattr(threshold_mod, "simulate", simulate)
    monkeypatch.setattr(threshold_mod, "simulate_batch", simulate_batch)
    bisect = BisectConfig(rel_tol=COARSE.rel_tol, hi_seed_factor=seed_factor)
    return find_threshold("sigma", P_SUB, InfectionResponse.monod(2.0),
                          InitialData.cosine(1.0), FAST_SIM, bisect)


def one_at_a_time(verdict_of, hi, rel_tol=COARSE.rel_tol):
    """The reference search: :func:`_search` given the verdict of
    ``verdict_of`` for the value it stops at, one value at a time.  Returns
    (status, lo, hi) and the (value, verdict) of each distinct value asked
    for, in order."""
    asked = {}
    while True:
        path = []
        found = _search(asked, hi, rel_tol, path)
        if found is not None:
            return found, list(asked.items())
        asked[path[-1]] = verdict_of(path[-1])


# Verdict maps in sigma, for a search from the seed 0.1.
VERDICT_MAPS = {
    "threshold": lambda v: Verdict.SPREADING if v >= 5.0 else Verdict.VANISHING,
    "undetermined_band": lambda v: (Verdict.SPREADING if v >= 5.0 else
                                    Verdict.UNDETERMINED if v >= 1.3 else Verdict.VANISHING),
    "band_below_the_seed": lambda v: (Verdict.SPREADING if v >= 0.07 else
                                      Verdict.UNDETERMINED if v >= 0.01 else Verdict.VANISHING),
    "always_spreading": lambda v: Verdict.SPREADING,
    "never_spreading": lambda v: Verdict.VANISHING,
}


class TestBracketSearch:
    def test_hi_doubles_up_to_the_step(self, monkeypatch):
        result = synthetic_search(monkeypatch, lambda v: v >= 5.0, seed_factor=0.1)
        seed = result.probes[0].value
        assert seed == pytest.approx(0.1, rel=1e-9)
        assert result.status == "bracketed"
        assert result.lo < 5.0 <= result.hi
        assert result.rel_width <= COARSE.rel_tol
        assert seed * 2**6 in {r.value for r in result.probes}  # the seed doubled six times
        assert result.monotone

    def test_always_spreading_exhausts_lo_halvings(self, monkeypatch):
        result = synthetic_search(monkeypatch, lambda v: True, seed_factor=1.0)
        assert result.status == "inconclusive"
        assert result.n_sims == 1 + _MAX_EXPAND
        assert all(r.verdict is Verdict.SPREADING for r in result.probes)

    def test_never_spreading_exhausts_hi_doublings(self, monkeypatch):
        result = synthetic_search(monkeypatch, lambda v: False, seed_factor=1.0)
        assert result.status == "inconclusive"
        assert result.n_sims == _MAX_EXPAND == 40
        assert result.hi == result.probes[0].value * 2.0**_MAX_EXPAND

    @pytest.mark.parametrize("name", sorted(VERDICT_MAPS))
    def test_lookahead_matches_one_probe_at_a_time(self, monkeypatch, name):
        verdict_of = VERDICT_MAPS[name]
        batches = []
        result = synthetic_search(monkeypatch, verdict_of, seed_factor=0.1, batches=batches)
        (status, lo, hi), asked = one_at_a_time(verdict_of, result.probes[0].value)
        assert [(r.value, r.verdict) for r in result.probes] == asked
        assert (result.status, result.lo, result.hi) == (status, lo, hi)
        assert result.monotone
        # Every value runs once, as a probe or as a speculative run, and no
        # batch holds more than the next probe and its successors.
        ran = [value for batch in batches for value in batch]
        assert sorted(ran) == sorted(r.value for r in result.probes + result.speculative)
        assert max(map(len, batches)) <= 3

    def test_real_search_matches_one_probe_at_a_time(self, monod2, monkeypatch):
        # At this tolerance both successors of the last probe end the search,
        # so it runs alone through simulate; every earlier probe runs batched.
        config = SolverConfig(n_cells=64, dt_max=0.04, t_max=60.0)
        bisect = BisectConfig(rel_tol=0.3)
        alone = []

        def counted(p, resp, init, cfg):
            alone.append(init.sigma)
            return simulate(p, resp, init, cfg)

        monkeypatch.setattr(threshold_mod, "simulate", counted)
        result = find_threshold("sigma", P_SUB, monod2, InitialData.cosine(1.0), config, bisect)
        horizon = SolverConfig(n_cells=64, dt_max=0.04, t_max=120.0)

        def verdict_of(sigma):
            return simulate(P_SUB, monod2, InitialData.cosine(sigma), horizon)[1].verdict

        (status, lo, hi), asked = one_at_a_time(verdict_of, result.probes[0].value,
                                                bisect.rel_tol)
        assert [(r.value, r.verdict) for r in result.probes] == asked
        assert (result.status, result.lo, result.hi) == (status, lo, hi)
        assert result.status == "bracketed"
        assert alone == [result.probes[-1].value]
        assert result.speculative and result.monotone

    def test_off_path_blow_up_does_not_end_the_search(self, monkeypatch):
        threshold = VERDICT_MAPS["threshold"]
        clean = synthetic_search(monkeypatch, threshold, seed_factor=0.1)
        seed = clean.probes[0].value
        # The seed vanishes, so seed / 2, its successor had it spread, is off the path.
        off_path = seed / 2.0
        batches = []
        result = synthetic_search(
            monkeypatch,
            lambda v: BlowUpError("synthetic", 0.0, 0.0, 0.0) if v == off_path else threshold(v),
            seed_factor=0.1, batches=batches)
        assert off_path in batches[0]
        assert result.probes == clean.probes
        assert (result.status, result.lo, result.hi) == (clean.status, clean.lo, clean.hi)
        assert off_path not in {r.value for r in result.speculative}

    @pytest.mark.parametrize("batched", [True, False, "shared"])
    def test_on_path_blow_up_raises_with_its_trajectory(self, monkeypatch, batched):
        threshold = VERDICT_MAPS["threshold"]
        batches = []
        clean = synthetic_search(monkeypatch, threshold, seed_factor=0.1, batches=batches)
        # A probe that ran with its successors, or one that ran alone through
        # simulate; "shared": one error object ended its whole batch, as
        # simulate_batch reports an error the stepper raises for every member.
        batch = next(b for b in batches if (len(b) > 1) == bool(batched))
        value = batch[0]
        assert value in {r.value for r in clean.probes}
        failed = batch if batched == "shared" else [value]
        error = BlowUpError("synthetic", 0.0, 0.0, 0.0)
        with pytest.raises(BlowUpError) as info:
            synthetic_search(monkeypatch, lambda v: error if v in failed else threshold(v),
                             seed_factor=0.1)
        assert info.value.trajectory.sigma == value

    @pytest.mark.parametrize("name, value", [
        ("rel_tol", 0.0), ("rel_tol", -1.0), ("rel_tol", math.nan), ("rel_tol", 1.0),
        ("rel_tol", 1.5), ("hi_seed_factor", 0.0), ("hi_seed_factor", -2.0),
        ("hi_seed_factor", math.inf), ("hi_seed_factor", math.nan),
    ])
    def test_config_rejects_values_the_search_cannot_use(self, name, value):
        # rel_tol <= 0 or nan never converges (58 probes, inconclusive) and
        # rel_tol >= 1 reports any doubling as bracketed.
        with pytest.raises(DomainError, match=name):
            BisectConfig(**{name: value})

    def test_unknown_target_rejected(self, monod2):
        init = InitialData.cosine(1.0)
        with pytest.raises(DomainError, match="target must be one of sigma, mu") as info:
            find_threshold("h0", P_SUB, monod2, init, FAST_SIM, COARSE)
        assert info.value.field == "target"

    def test_monotone_false_when_spreading_below_vanishing(self):
        def probe(value, verdict):
            return ProbeRecord(value, verdict, "synthetic", 0.0, 0.0)

        def monotone(*probes):
            return ThresholdResult("sigma", "bracketed", 1.0, 2.0, list(probes)).monotone

        assert not monotone(probe(2.0, Verdict.VANISHING), probe(1.0, Verdict.SPREADING))
        assert monotone(probe(2.0, Verdict.SPREADING), probe(1.0, Verdict.VANISHING))
        # A speculative run counts as much as a probe.
        spec = ThresholdResult("sigma", "bracketed", 1.0, 2.0, [probe(2.0, Verdict.SPREADING)],
                               [probe(3.0, Verdict.VANISHING)])
        assert not spec.monotone


class TestSweep:
    def test_single_cell_matches_simulate(self, unit_params, monod2):
        init = InitialData.cosine(1.0)
        cfg = SolverConfig(n_cells=64, t_max=40.0)
        cells = sweep([unit_params], monod2, [init], cfg)
        assert len(cells) == 1
        _, direct = simulate(unit_params, monod2, init, cfg)
        assert cells[0].verdict is direct.verdict

    def test_ascending_sigma_verdicts_monotone(self, monod2):
        inits = [InitialData.cosine(s) for s in (0.005, 0.02, 0.5, 2.0)]
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
        calls = []

        def counted(members, config=None, monitors=None):
            calls.append(len(members))
            return simulate_batch(members, config, monitors)

        monkeypatch.setattr(threshold_mod, "simulate_batch", counted)
        params = [P_SUB.with_(mu=mu) for mu in (0.5, 1.0)]
        inits = [InitialData.cosine(s) for s in (0.1, 1.0)]
        cells = sweep(params, monod2, inits, SolverConfig(n_cells=64, dt_max=5e-3, t_max=1.0))
        assert calls == [4]
        assert [(c.params.mu, c.sigma) for c in cells] == [(0.5, 0.1), (0.5, 1.0),
                                                          (1.0, 0.1), (1.0, 1.0)]

    def test_cell_error_recorded_not_fatal(self, unit_params, monod2):
        bad = InitialData(1.0, phi=lambda x, h0: np.ones_like(np.asarray(x, dtype=float)),
                          psi=lambda x, h0: 0.0 * x)
        good = InitialData.cosine(0.0)
        cells = sweep([unit_params], monod2, [bad, good],
                      SolverConfig(n_cells=64, t_max=1.0))
        assert cells[0].verdict is None
        assert "DomainError" in cells[0].error
        assert cells[1].verdict is Verdict.VANISHING
