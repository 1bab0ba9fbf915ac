"""Sharp-threshold location by monotone bisection.

The initial-data scale sigma and the front-response coefficient mu each
admit a sharp spreading/vanishing threshold; comparison monotonicity
makes plain bisection on the verdict sound.  Each probe is one
simulation to twice the solver horizon; a probe still undetermined there
counts on the vanishing side of the bracket.
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
from .solver import SolverConfig, simulate, simulate_batch

_MAX_EXPAND = 40   # doublings of hi, then halvings of lo, before giving up
_MAX_ITER = 80     # bisection steps once both sides are found


@dataclass(frozen=True)
class BisectConfig:
    rel_tol: float = 1e-2
    hi_seed_factor: float = 10.0   # initial hi scale: sup u0 = factor * u_star


@dataclass(frozen=True)
class ProbeRecord:
    """One probe: its value, verdict and evidence.  ``extended`` is true when
    the verdict came after the solver horizon t_max, or never came."""

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
    "inconclusive" when the probe budget ran out.  ``monotone`` is false
    when a spreading probe lies below a vanishing one.  The bisection
    cannot produce such a list: it keeps every spreading probe at or above
    ``hi`` and every vanishing probe at or below ``lo``, so the flag reads
    true on every result it returns.
    """

    target: str
    status: str
    lo: float
    hi: float
    probes: list[ProbeRecord] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def n_sims(self) -> int:
        return len(self.probes)

    @property
    def monotone(self) -> bool:
        seen_spreading = False
        for rec in sorted(self.probes, key=lambda r: r.value):
            if rec.verdict is Verdict.SPREADING:
                seen_spreading = True
            elif seen_spreading and rec.verdict is Verdict.VANISHING:
                return False
        return True

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def rel_width(self) -> float:
        return (self.hi - self.lo) / self.hi if self.hi > 0 else 0.0


def _find_threshold(
    target: str,
    p: ModelParams,
    resp: InfectionResponse,
    sim_config: SolverConfig | None,
    bisect: BisectConfig | None,
    run: Callable[[float, SolverConfig], Classification],
    hi_seed: Callable[[BisectConfig], float],
) -> ThresholdResult:
    """Bisect on the verdict of ``run(value, config)``, starting from ``hi_seed(bisect)``."""
    if basic_reproduction_number(p, resp) <= 1.0:
        raise ThresholdUndefinedError(f"R0 <= 1: vanishing for every {target}, no threshold")
    sim_config = (sim_config or SolverConfig()).resolved(p)
    bisect = bisect or BisectConfig()
    echo = {"target": target, "rel_tol": bisect.rel_tol, "n_cells": sim_config.n_cells,
            "t_max": sim_config.t_max, "dt_max": sim_config.dt_max}
    result = ThresholdResult(target=target, status="inconclusive", lo=0.0, hi=0.0, config=echo)

    if free_boundary_reproduction_number(p, resp, 2.0 * p.h0) >= 1.0:
        # A super-critical habitat spreads for every sigma > 0 and every mu > 0.
        result.status = "degenerate"
        return result

    horizon = replace(sim_config, t_max=2.0 * sim_config.t_max)
    verdicts: dict[float, Verdict] = {}

    def probe(value: float) -> Verdict:
        if value not in verdicts:
            cls = run(value, horizon)
            ev = cls.evidence
            result.probes.append(ProbeRecord(
                value=value, verdict=cls.verdict, criterion=ev.criterion, time=ev.time,
                final_width=ev.final_width, extended=bool(ev.time > sim_config.t_max),
            ))
            verdicts[value] = cls.verdict
        return verdicts[value]

    hi = hi_seed(bisect)
    for _ in range(_MAX_EXPAND):
        if probe(hi) is Verdict.SPREADING:
            break
        hi *= 2.0
    else:
        result.hi = hi
        return result

    lo = hi / 2.0
    for _ in range(_MAX_EXPAND):
        verdict = probe(lo)
        if verdict is Verdict.VANISHING:
            break
        if verdict is Verdict.SPREADING:
            hi = lo
        lo /= 2.0
    else:
        result.lo, result.hi = lo, hi
        return result

    for _ in range(_MAX_ITER):
        if hi - lo <= bisect.rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if probe(mid) is Verdict.SPREADING:
            hi = mid
        else:
            lo = mid

    result.status = "bracketed" if hi - lo <= bisect.rel_tol * hi else "inconclusive"
    result.lo, result.hi = lo, hi
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

    def run(sigma: float, config: SolverConfig) -> Classification:
        return simulate(p, resp, InitialData(sigma=sigma, phi=phi, psi=psi), config)[1]

    def hi_seed(bisect: BisectConfig) -> float:
        equilibrium = endemic_equilibrium(p, resp)
        assert equilibrium is not None
        x = np.linspace(-p.h0, p.h0, 513)
        sup_phi = float(np.max(np.asarray(phi(x), dtype=float)))
        if not sup_phi > 0:
            raise DomainError("phi must be positive somewhere on (-h0, h0)")
        return bisect.hi_seed_factor * equilibrium[0] / sup_phi

    return _find_threshold("sigma", p, resp, sim_config, bisect, run, hi_seed)


def find_mu_star(
    p: ModelParams,
    resp: InfectionResponse,
    init: InitialData,
    sim_config: SolverConfig | None = None,
    bisect: BisectConfig | None = None,
) -> ThresholdResult:
    """Bracket the critical front-response coefficient mu*.

    Monotonicity in mu is not proved here, only cited.  The bisection
    assumes it and cannot observe a violation, so the result's
    ``monotone`` flag is no check of it (see :class:`ThresholdResult`).
    """

    def run(mu: float, config: SolverConfig) -> Classification:
        return simulate(p.with_(mu=mu), resp, init, config)[1]

    return _find_threshold("mu", p, resp, sim_config, bisect, run, lambda _: 2.0 * p.mu)


# ---------------------------------------------------------------------------
# Phase-diagram sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
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

    All cells run as one lockstep batch (:func:`simulate_batch`), each
    leaving it at its own verdict or horizon; a cell that fails is recorded
    as an error cell rather than aborting the sweep.
    """
    members = [(params, resp, init) for params in param_grid for init in init_grid]
    cells = []
    for (params, _, init), (_, outcome) in zip(members, simulate_batch(members, sim_config)):
        if isinstance(outcome, Exception):
            cells.append(SweepCell(params, init.sigma, None, "error", math.nan, math.nan,
                                   error=f"{type(outcome).__name__}: {outcome}"))
            continue
        ev = outcome.evidence
        cells.append(SweepCell(params, init.sigma, outcome.verdict, ev.criterion,
                               ev.time, ev.final_width))
    return cells
