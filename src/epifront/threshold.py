"""Sharp-threshold location by monotone bisection.

The initial-data scale sigma and the front-response coefficient mu both
admit sharp spreading/vanishing thresholds; comparison monotonicity
makes plain bisection on the verdict sound.  Probes that stay
undetermined at the horizon are retried once with a doubled horizon and
then counted on the vanishing side of the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .analysis import Classification, Verdict
from .errors import DomainError, ThresholdUndefinedError
from .model import (
    InfectionResponse,
    InitialData,
    ModelParams,
    basic_reproduction_number,
    endemic_equilibrium,
    free_boundary_reproduction_number,
)
from .solver import SolverConfig, simulate


@dataclass(frozen=True)
class BisectConfig:
    rel_tol: float = 1e-2
    hi_seed_factor: float = 10.0   # initial hi scale: sup u0 = factor * u_star
    max_expand: int = 40
    max_iter: int = 80
    extend_horizon: bool = True


@dataclass(frozen=True)
class ProbeRecord:
    value: float
    verdict: Verdict
    criterion: str
    time: float
    final_width: float
    extended: bool = False


@dataclass
class ThresholdResult:
    """Bracket [lo, hi] for the threshold with the probe history.

    ``status`` is "bracketed" for a converged bisection, "degenerate"
    when the threshold is 0 (the habitat already super-critical), or
    "inconclusive" when the probe budget ran out.  ``monotone`` records
    whether the observed verdicts were monotone in the probed parameter.
    """

    target: str
    status: str
    lo: float
    hi: float
    probes: list[ProbeRecord] = field(default_factory=list)
    n_sims: int = 0
    monotone: bool = True
    config: dict = field(default_factory=dict)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def rel_width(self) -> float:
        return (self.hi - self.lo) / self.hi if self.hi > 0 else 0.0


def _probe(
    run: Callable[[float, float | None], Classification],
    value: float,
    sim_config: SolverConfig,
    bisect: BisectConfig,
    probes: list[ProbeRecord],
    cache: dict[float, Verdict],
) -> Verdict:
    if value in cache:
        return cache[value]
    cls = run(value, None)
    extended = False
    if cls.verdict is Verdict.UNDETERMINED and bisect.extend_horizon:
        assert sim_config.t_max is not None
        cls = run(value, 2.0 * sim_config.t_max)
        extended = True
    probes.append(
        ProbeRecord(
            value=value,
            verdict=cls.verdict,
            criterion=cls.evidence.criterion,
            time=cls.evidence.time,
            final_width=cls.evidence.final_width,
            extended=extended,
        )
    )
    cache[value] = cls.verdict
    return cls.verdict


def _verdicts_monotone(probes: Sequence[ProbeRecord]) -> bool:
    ordered = sorted(probes, key=lambda r: r.value)
    seen_spreading = False
    for rec in ordered:
        if rec.verdict is Verdict.SPREADING:
            seen_spreading = True
        elif seen_spreading and rec.verdict is Verdict.VANISHING:
            return False
    return True


def _bisect_threshold(
    target: str,
    run: Callable[[float, float | None], Classification],
    hi_seed: float,
    sim_config: SolverConfig,
    bisect: BisectConfig,
    config_echo: dict,
) -> ThresholdResult:
    probes: list[ProbeRecord] = []
    cache: dict[float, Verdict] = {}
    result = ThresholdResult(target=target, status="inconclusive", lo=0.0, hi=hi_seed,
                             probes=probes, config=config_echo)

    hi = hi_seed
    for _ in range(bisect.max_expand):
        if _probe(run, hi, sim_config, bisect, probes, cache) is Verdict.SPREADING:
            break
        hi *= 2.0
    else:
        result.hi = hi
        result.n_sims = len(probes)
        result.monotone = _verdicts_monotone(probes)
        return result

    lo = hi / 2.0
    for _ in range(bisect.max_expand):
        verdict = _probe(run, lo, sim_config, bisect, probes, cache)
        if verdict is Verdict.VANISHING:
            break
        if verdict is Verdict.SPREADING:
            hi = lo
        lo /= 2.0
    else:
        result.lo, result.hi = lo, hi
        result.n_sims = len(probes)
        result.monotone = _verdicts_monotone(probes)
        return result

    for _ in range(bisect.max_iter):
        if hi - lo <= bisect.rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if _probe(run, mid, sim_config, bisect, probes, cache) is Verdict.SPREADING:
            hi = mid
        else:
            lo = mid

    result.status = "bracketed" if hi - lo <= bisect.rel_tol * hi else "inconclusive"
    result.lo, result.hi = lo, hi
    result.n_sims = len(probes)
    result.monotone = _verdicts_monotone(probes)
    return result


def find_sigma_star(
    p: ModelParams,
    resp: InfectionResponse,
    phi: Callable,
    psi: Callable,
    sim_config: SolverConfig | None = None,
    bisect: BisectConfig | None = None,
) -> ThresholdResult:
    """Bracket the critical initial-data scale sigma*.

    Requires R0 > 1 (below that everything vanishes and no threshold
    exists).  When the initial habitat is already super-critical the
    threshold is exactly 0 and a degenerate bracket is returned without
    simulating.
    """
    if basic_reproduction_number(p, resp) <= 1.0:
        raise ThresholdUndefinedError("R0 <= 1: vanishing for every sigma, no threshold")
    sim_config = (sim_config or SolverConfig()).resolved(p)
    bisect = bisect or BisectConfig()
    echo = {"target": "sigma", "rel_tol": bisect.rel_tol, "n_cells": sim_config.n_cells,
            "t_max": sim_config.t_max, "dt_max": sim_config.dt_max}

    if free_boundary_reproduction_number(p, resp, 2.0 * p.h0) >= 1.0:
        return ThresholdResult(target="sigma", status="degenerate", lo=0.0, hi=0.0,
                               config=echo)

    def run(sigma: float, t_max: float | None) -> Classification:
        cfg = sim_config if t_max is None else replace(sim_config, t_max=t_max)
        _, cls = simulate(p, resp, InitialData(sigma=sigma, phi=phi, psi=psi), cfg)
        return cls

    equilibrium = endemic_equilibrium(p, resp)
    assert equilibrium is not None
    x = np.linspace(-p.h0, p.h0, 513)
    sup_phi = float(np.max(np.asarray(phi(x), dtype=float)))
    if not sup_phi > 0:
        raise DomainError("phi must be positive somewhere on (-h0, h0)")
    hi_seed = bisect.hi_seed_factor * equilibrium[0] / sup_phi
    return _bisect_threshold("sigma", run, hi_seed, sim_config, bisect, echo)


def find_mu_star(
    p: ModelParams,
    resp: InfectionResponse,
    init: InitialData,
    sim_config: SolverConfig | None = None,
    bisect: BisectConfig | None = None,
) -> ThresholdResult:
    """Bracket the critical front-response coefficient mu*.

    Monotonicity in mu is not proved here, only cited; the result's
    ``monotone`` flag records whether the probes respected it.
    """
    if basic_reproduction_number(p, resp) <= 1.0:
        raise ThresholdUndefinedError("R0 <= 1: vanishing for every mu, no threshold")
    sim_config = (sim_config or SolverConfig()).resolved(p)
    bisect = bisect or BisectConfig()
    echo = {"target": "mu", "rel_tol": bisect.rel_tol, "n_cells": sim_config.n_cells,
            "t_max": sim_config.t_max, "dt_max": sim_config.dt_max}

    if free_boundary_reproduction_number(p, resp, 2.0 * p.h0) >= 1.0:
        # Super-critical habitat spreads for every mu > 0.
        return ThresholdResult(target="mu", status="degenerate", lo=0.0, hi=0.0, config=echo)

    def run(mu: float, t_max: float | None) -> Classification:
        cfg = sim_config if t_max is None else replace(sim_config, t_max=t_max)
        _, cls = simulate(p.with_(mu=mu), resp, init, cfg)
        return cls

    return _bisect_threshold("mu", run, 2.0 * p.mu, sim_config, bisect, echo)


# ---------------------------------------------------------------------------
# Phase-diagram sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    param_index: int
    init_index: int
    params: ModelParams
    sigma: float
    verdict: Verdict | None
    criterion: str
    time: float
    final_width: float
    error: str | None = None


def sweep(
    param_grid: Sequence[ModelParams],
    resp: InfectionResponse,
    init_grid: Sequence[InitialData],
    sim_config: SolverConfig | None = None,
) -> list[SweepCell]:
    """Classify every (params, initial-data) pair of the cross product.

    Cells run independently, one after another; per-cell failures are
    recorded in the cell rather than aborting the sweep.
    """
    cells = []
    for i, params in enumerate(param_grid):
        cfg = (sim_config or SolverConfig()).resolved(params)
        for j, init in enumerate(init_grid):
            try:
                _, cls = simulate(params, resp, init, cfg)
            except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
                cells.append(SweepCell(i, j, params, init.sigma, None, "error", math.nan,
                                       math.nan, error=f"{type(exc).__name__}: {exc}"))
                continue
            ev = cls.evidence
            cells.append(SweepCell(i, j, params, init.sigma, cls.verdict, ev.criterion,
                                   ev.time, ev.final_width))
    return cells
