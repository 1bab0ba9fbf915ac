"""Sharp-threshold location by monotone bisection.

The initial-data scale sigma and the front-response coefficient mu each
admit a sharp spreading/vanishing threshold; comparison monotonicity
makes plain bisection on the verdict sound.  :func:`find_threshold`
brackets either one, named by :data:`TARGETS`: a probe value becomes
the (params, response, initial data) it runs to twice the solver horizon.
The bracket search, :func:`_search`, is a plain function of a table of
known verdicts: it reads values until it finishes or reaches one without
a verdict.  That value runs in one batch with the values the search reads
next after each verdict it can get, so two probes in a row cost about one
batched run; the probes, bracket and status are those of one probe at a
time.  A probe still undetermined at the horizon is skipped while ``lo``
is sought, but counts as vanishing in the bisection, so a "bracketed"
result can have it as ``lo``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .analysis import Verdict
from .errors import DomainError, ThresholdUndefinedError
from .model import (
    InfectionResponse,
    InitialData,
    ModelParams,
    basic_reproduction_number,
    endemic_equilibrium,
    free_boundary_reproduction_number,
)
from .solver import SolverConfig, Trajectory, simulate, simulate_batch

_MAX_EXPAND = 40   # doublings of hi, then halvings of lo, before giving up
_MAX_ITER = 80     # bisection steps once both sides are found
# The quantities find_threshold can bracket: the initial-data scale and the
# front-response coefficient.
TARGETS = ("sigma", "mu")


@dataclass(frozen=True)
class BisectConfig:
    rel_tol: float = 1e-2
    hi_seed_factor: float = 10.0   # initial hi scale: sup u0 = factor * u_star

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must be in (0, 1) (got {self.rel_tol!r})", field="rel_tol")
        if not (math.isfinite(self.hi_seed_factor) and self.hi_seed_factor > 0):
            raise DomainError(f"hi_seed_factor must be finite and > 0 "
                              f"(got {self.hi_seed_factor!r})", field="hi_seed_factor")


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
    "inconclusive" when the probe budget ran out.  ``probes`` are the
    runs the search asked for, in order; ``speculative`` are the runs it
    made ahead and then did not need (see :func:`find_threshold`).
    ``monotone`` is false when a spreading run, of either list, lies
    below a vanishing one.  The probes alone cannot show that: the
    bisection keeps every spreading probe at or above ``hi`` and every
    vanishing one at or below ``lo``.  The speculative runs fall off the
    path, so they can.
    """

    target: str
    status: str
    lo: float
    hi: float
    probes: list[ProbeRecord] = field(default_factory=list)
    speculative: list[ProbeRecord] = field(default_factory=list)

    @property
    def n_sims(self) -> int:
        """The probes the search asked for; the speculative runs are not counted."""
        return len(self.probes)

    @property
    def monotone(self) -> bool:
        seen_spreading = False
        for rec in sorted(self.probes + self.speculative, key=lambda r: r.value):
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


def find_threshold(
    target: str,
    p: ModelParams,
    resp: InfectionResponse,
    init: InitialData,
    sim_config: SolverConfig | None = None,
    bisect: BisectConfig | None = None,
) -> ThresholdResult:
    """Bracket the sharp threshold in ``target``, one of :data:`TARGETS`.

    "sigma" scales the shapes of ``init`` (its own sigma is not read); the
    search starts from ``hi_seed_factor`` u*/sup phi.  "mu" runs ``init``
    as it is and starts from 2 ``p.mu``; monotonicity in mu is cited, not
    proved here.  The result's ``monotone`` flag checks it on the verdicts
    the search saw, its speculative runs among them (see
    :class:`ThresholdResult`).

    One table holds every run by value.  The search runs on the verdicts
    of the runs that succeeded; where it stops at a value not yet run,
    that value runs in one :func:`simulate_batch` with the value the search
    stops at next for each verdict the first can get, skipping values
    already run, so at most three members; a value with no such successor
    runs alone through :func:`simulate`.  The search reads the table in
    its own order, so ``probes``, ``lo``, ``hi`` and ``status`` are those
    of one probe at a time.  ``probes`` are the runs of the final path in
    the order first read, and ``speculative`` the successful runs off it,
    in run order.  A run that fails raises its error, with its own
    ``trajectory``, only when the search stops at its value, even when one
    error ended its whole batch; a failed run off the path is in neither
    list.

    Requires R0 > 1 (below that everything vanishes and no threshold
    exists).  When the initial habitat is already super-critical the
    threshold is exactly 0 and a degenerate bracket is returned without
    simulating.
    """
    if target not in TARGETS:
        raise DomainError(f"target must be one of {', '.join(TARGETS)} (got {target!r})",
                          field="target")
    if basic_reproduction_number(p, resp) <= 1.0:
        raise ThresholdUndefinedError(f"R0 <= 1: vanishing for every {target}, no threshold")
    sim_config = (sim_config or SolverConfig()).resolved(p)
    bisect = bisect or BisectConfig()

    if free_boundary_reproduction_number(p, resp, 2.0 * p.h0) >= 1.0:
        # A super-critical habitat spreads for every sigma > 0 and every mu > 0.
        return ThresholdResult(target=target, status="degenerate", lo=0.0, hi=0.0)

    if target == "sigma":
        equilibrium = endemic_equilibrium(p, resp)
        assert equilibrium is not None
        x = np.linspace(-p.h0, p.h0, 513)
        sup_phi = float(np.max(np.asarray(init.phi(x, p.h0), dtype=float)))
        if not sup_phi > 0:
            raise DomainError("phi must be positive somewhere on (-h0, h0)")
        seed = bisect.hi_seed_factor * equilibrium[0] / sup_phi
    else:
        seed = 2.0 * p.mu

    horizon = replace(sim_config, t_max=2.0 * sim_config.t_max)
    # Every value run, in run order: its record, or its (trajectory, error).
    runs: dict[float, ProbeRecord | tuple[Trajectory, Exception]] = {}

    def member(value: float) -> tuple[ModelParams, InfectionResponse, InitialData]:
        if target == "sigma":
            return p, resp, init.with_sigma(value)
        return p.with_(mu=value), resp, init

    while True:
        verdicts = {v: r.verdict for v, r in runs.items() if isinstance(r, ProbeRecord)}
        path: list[float] = []
        found = _search(verdicts, seed, bisect.rel_tol, path)
        if found is not None:
            break
        value = path[-1]
        if value in runs:  # its run failed
            traj, exc = runs[value]
            exc.trajectory = traj
            raise exc
        batch = [value]
        for verdict in Verdict:
            after: list[float] = []
            if (_search({**verdicts, value: verdict}, seed, bisect.rel_tol, after) is None
                    and after[-1] not in runs and after[-1] not in batch):
                batch.append(after[-1])
        if len(batch) == 1:
            # The value the search stopped at, alone: simulate raises its failure.
            outcomes = [simulate(*member(value), horizon)]
        else:
            outcomes = simulate_batch([member(v) for v in batch], horizon)
        for v, (traj, outcome) in zip(batch, outcomes):
            if isinstance(outcome, Exception):
                runs[v] = traj, outcome
                continue
            ev = outcome.evidence
            runs[v] = ProbeRecord(
                value=v, verdict=outcome.verdict, criterion=ev.criterion, time=ev.time,
                final_width=traj.final.width, extended=bool(ev.time > sim_config.t_max),
            )

    on_path = dict.fromkeys(path)
    return ThresholdResult(target, *found, probes=[runs[v] for v in on_path],
                           speculative=[r for v, r in runs.items()
                                        if v not in on_path and isinstance(r, ProbeRecord)])


def _search(verdicts: dict[float, Verdict], hi: float, rel_tol: float,
            path: list[float]) -> tuple[str, float, float] | None:
    """The bracket search from ``hi``, on the verdicts known so far.

    Doubles ``hi`` until a value spreads, halves ``lo`` from hi/2 until one
    vanishes, then bisects until (hi - lo) <= rel_tol hi.  Appends each
    value it reads to ``path``, repeats included, and returns (status, lo,
    hi), with lo = 0 when no value spread; or None at the first value
    without a verdict, which is then ``path[-1]``.
    """
    for _ in range(_MAX_EXPAND):
        path.append(hi)
        if hi not in verdicts:
            return None
        if verdicts[hi] is Verdict.SPREADING:
            break
        hi *= 2.0
    else:
        return "inconclusive", 0.0, hi

    lo = hi / 2.0
    for _ in range(_MAX_EXPAND):
        path.append(lo)
        if lo not in verdicts:
            return None
        if verdicts[lo] is Verdict.VANISHING:
            break
        if verdicts[lo] is Verdict.SPREADING:
            hi = lo
        lo /= 2.0
    else:
        return "inconclusive", lo, hi

    for _ in range(_MAX_ITER):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        path.append(mid)
        if mid not in verdicts:
            return None
        if verdicts[mid] is Verdict.SPREADING:
            hi = mid
        else:
            lo = mid
    return ("bracketed" if hi - lo <= rel_tol * hi else "inconclusive"), lo, hi


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
    for (params, _, init), (traj, outcome) in zip(members, simulate_batch(members, sim_config)):
        if isinstance(outcome, Exception):
            cells.append(SweepCell(params, init.sigma, None, "error", math.nan, math.nan,
                                   error=f"{type(outcome).__name__}: {outcome}"))
            continue
        ev = outcome.evidence
        cells.append(SweepCell(params, init.sigma, outcome.verdict, ev.criterion,
                               ev.time, traj.final.width))
    return cells
