"""Front-fixed finite-difference integrator for the two-front system.

The moving habitat (g(t), h(t)) is mapped onto the fixed interval
[-h0, h0] by the affine change of variable

    y = 2 h0 x / (h - g)  -  h0 (h + g) / (h - g),

which trades the moving boundaries for an advection term A(y) w_y and a
rescaled diffusion coefficient B.  Time stepping is IMEX: diffusion is
backward Euler (tridiagonal solve), advection is first-order upwind, and
reactions are explicit.  Fronts move first, by forward Euler on the
Stefan conditions, with a CFL limiter on the per-step displacement.

The code splits into a stepper and a run loop.  The stepper
(``_step_batch``) advances B members at once, each with its own
parameters and step size: the per-member scalars (front speeds, dt and
its limits, new fronts, the diffusion ratio r) are Python floats, the
field update runs on (B, n+1) blocks, and the B backward-Euler systems
are solved as one tridiagonal system of size B (n+1) by a single LAPACK
``dgtsv`` call.  The couplings between blocks are zero and each block's
first and last rows are identity rows, so every member gets exactly the
numbers it would get solved alone.  The run loop (``simulate_batch``)
owns, per member, the record times, the frame stride, the classifier
cadence, early stopping and failures, and drops a member from the batch
once it is done.  ``simulate`` is its one-member case and ``step`` the
stepper's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from . import analysis
from .errors import BlowUpError, DomainError
from .model import (
    InfectionResponse,
    InitialData,
    ModelParams,
    free_boundary_reproduction_number,
)

_TIME_SNAP = 1e-9  # relative tolerance for landing on a requested time
_CLASSIFY_STRIDE = 8  # recorded frames between classifier checks
# early_stop mode -> the verdicts that end the run before t_max
_STOP_VERDICTS = {
    "both": (analysis.Verdict.SPREADING, analysis.Verdict.VANISHING),
    "vanishing": (analysis.Verdict.VANISHING,),
    "spreading": (analysis.Verdict.SPREADING,),
    "none": (),
}
EARLY_STOP_MODES = tuple(_STOP_VERDICTS)


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and orchestration settings.

    ``dt_max`` defaults to 1e-3 h0^2/d and ``t_max`` to 200/min(a11, a22)
    when left as None; call :meth:`resolved` to materialize them.
    ``record_times`` are exact times the integrator must land on (a frame
    is recorded there).  ``early_stop`` selects which verdicts terminate
    the run before t_max: "both", "vanishing", "spreading", or "none".
    """

    n_cells: int = 256
    dt_max: float | None = None
    cfl_adv: float = 0.5
    front_cfl: float = 0.2
    t_max: float | None = None
    frame_stride: int = 50
    record_times: tuple[float, ...] = ()
    early_stop: str = "both"

    def __post_init__(self) -> None:
        if self.n_cells < 16 or self.n_cells % 2:
            raise DomainError(f"n_cells must be even and >= 16 (got {self.n_cells})")
        for name in ("dt_max", "cfl_adv", "front_cfl", "t_max"):
            value = getattr(self, name)
            if value is None and name in ("dt_max", "t_max"):
                continue  # resolved() derives it from the model
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and > 0 (got {value!r})")
        if self.frame_stride < 1:
            raise DomainError("frame_stride must be >= 1")
        if self.early_stop not in EARLY_STOP_MODES:
            raise DomainError(f"unknown early_stop {self.early_stop!r}")

    def resolved(self, p: ModelParams) -> "SolverConfig":
        dt = self.dt_max if self.dt_max is not None else 1e-3 * p.h0 * p.h0 / p.d
        tm = self.t_max if self.t_max is not None else 200.0 / min(p.a11, p.a22)
        return replace(self, dt_max=dt, t_max=tm)


@dataclass(frozen=True)
class SolverState:
    """Time, front positions, and transformed fields on the fixed y-grid."""

    t: float
    g: float
    h: float
    w: np.ndarray
    z: np.ndarray
    y: np.ndarray
    h0: float
    clipped_total: float = 0.0

    @property
    def width(self) -> float:
        return self.h - self.g

    @property
    def n_cells(self) -> int:
        return self.w.size - 1


@dataclass(frozen=True)
class Frame:
    t: float
    g: float
    h: float
    width: float
    sup_w: float
    sup_z: float
    mass: float
    r0f: float
    g_speed: float
    h_speed: float
    reaction: float       # instantaneous integral of -a11 u + (a12/a22) G(u)
    clipped: float        # mass clipped to zero since the previous frame
    w: np.ndarray
    z: np.ndarray


@dataclass
class Trajectory:
    """Recorded frames plus run provenance."""

    h0: float
    n_cells: int
    frames: list[Frame] = field(default_factory=list)
    n_steps: int = 0
    terminated_by: str = ""

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(f, name) for f in self.frames], dtype=float)

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    @property
    def widths(self) -> np.ndarray:
        return self.column("width")

    @property
    def final(self) -> Frame:
        return self.frames[-1]

    def frame_at(self, t: float) -> Frame | None:
        """The frame recorded at time t, to the tolerance within which the
        run lands on a record time (a record time merged onto an earlier
        one finds that one's frame); None when no frame lies that close."""
        times = self.times
        k = int(np.argmin(np.abs(times - t)))
        return self.frames[k] if abs(times[k] - t) <= _TIME_SNAP * max(1.0, t) else None

    def y_grid(self) -> np.ndarray:
        return np.linspace(-self.h0, self.h0, self.n_cells + 1)


def transform_coefficients(
    p: ModelParams,
    g: float,
    h: float,
    g_speed: float,
    h_speed: float,
    y: np.ndarray | float,
):
    """Advection coefficient A(y) and diffusion coefficient B of the fixed-grid system.

    The stepper evaluates the same expressions, member by member, on its
    blocks.
    """
    width = h - g
    if not width > 0:
        raise DomainError(f"degenerate domain: h - g = {width!r}")
    a = (y * (h_speed - g_speed) + p.h0 * (h_speed + g_speed)) / width
    b = 4.0 * p.h0 * p.h0 * p.d / (width * width)
    return a, b


def front_speeds(state: SolverState, p: ModelParams) -> tuple[float, float]:
    """Discrete Stefan speeds (g', h') from one-sided 3-point boundary slopes.

    Clamped to the signs the strong maximum principle dictates
    (h' >= 0 >= g') to absorb round-off with the wrong sign.
    """
    dy = 2.0 * state.h0 / state.n_cells
    return _stefan_speeds(*state.w[_EDGE_NODES], dy, 2.0 * state.h0 * p.mu / state.width)


_EDGE_NODES = np.array([0, 1, 2, -3, -2, -1])  # the nodes of the one-sided boundary slopes


def _stefan_speeds(w0, w1, w2, wr2, wr1, wr0, dy, scale):
    """(g', h') from the edge values w[0], w[1], w[2], w[-3], w[-2], w[-1]."""
    wy_right = (wr2 - 4.0 * wr1 + 3.0 * wr0) / (2.0 * dy)
    wy_left = (-3.0 * w0 + 4.0 * w1 - w2) / (2.0 * dy)
    return min(0.0, -scale * wy_left), max(0.0, -scale * wy_right)


def initial_state(p: ModelParams, init: InitialData, n_cells: int) -> SolverState:
    """Sample the initial data on the y-grid (identity map at t = 0)."""
    y = np.linspace(-p.h0, p.h0, n_cells + 1)
    w = np.asarray(init.u0(y), dtype=float).copy()
    z = np.asarray(init.v0(y), dtype=float).copy()
    for name, arr, shape in (("phi", w, init.phi), ("psi", z, init.psi)):
        edge = max(abs(float(shape(-p.h0))), abs(float(shape(p.h0))))
        interior_sup = float(np.max(np.abs(arr[1:-1]))) if n_cells > 2 else 0.0
        if edge > 1e-9 * (1.0 + interior_sup):
            raise DomainError(f"initial shape {name} must vanish at x = +/-h0 (got {edge!r})")
        if np.min(arr) < -1e-12 * (1.0 + interior_sup):
            raise DomainError(f"initial shape {name} must be nonnegative on (-h0, h0)")
    np.maximum(w, 0.0, out=w)
    np.maximum(z, 0.0, out=z)
    w[0] = w[-1] = 0.0
    z[0] = z[-1] = 0.0
    return SolverState(t=0.0, g=-p.h0, h=p.h0, w=w, z=z, y=y, h0=p.h0)


@dataclass(eq=False)
class _Member:
    """The scalars of one batch member that the stepper reads and advances."""

    p: ModelParams
    config: SolverConfig  # resolved
    t: float
    g: float
    h: float
    clipped_total: float = 0.0


def _blow_up(m: _Member, dt: float) -> BlowUpError:
    return BlowUpError(f"non-finite field values at t={m.t + dt:.6g}", m.t, m.g, m.h)


def _nonfinite_rows(block: np.ndarray) -> list[int]:
    # A finite sum has only finite terms, so one reduction clears the common case.
    if math.isfinite(block.sum()):
        return []
    return np.flatnonzero(~np.isfinite(block).all(axis=1)).tolist()


# The per-member scalars of a failed member: a step of size 0.
_IDLE_ROW = (0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def _step_batch(
    members: list[_Member],
    resp: InfectionResponse,
    w: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    caps: Sequence[float | None],
) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Advance every member of a batch by one IMEX step.

    Row i of the (B, n+1) arrays w, z (fields) and y (grid) belongs to
    ``members[i]``, whose step is also capped at ``caps[i]`` (None: no
    cap).  Order within a step: front speeds from the current field, fronts
    by forward Euler, then the field update with the new geometry
    (implicit diffusion, upwind advection, explicit reactions, floor at
    zero).  G is evaluated once on the whole block, so it must act
    elementwise.

    Advances each surviving member's t, g, h and clipped_total in place and
    returns (w_new, z_new, failed).  ``failed`` maps a row to the exception
    that ended its member; that row of w_new and z_new is meaningless.  An
    exception raised here concerns the whole batch.
    """
    n = w.shape[1] - 1
    failed: dict[int, Exception] = {}
    rows = []  # per member: dt, dy, A slope, A offset, new width, r, a11, a12, a22
    fronts = []  # per member: new g, new h
    for i, (m, edge, cap) in enumerate(zip(members, w[:, _EDGE_NODES].tolist(), caps)):
        p, config = m.p, m.config
        dy = 2.0 * p.h0 / n
        width = m.h - m.g
        g_speed, h_speed = _stefan_speeds(*edge, dy, 2.0 * p.h0 * p.mu / width)
        speed = max(h_speed, -g_speed)
        dt = config.dt_max
        # |A| is affine in y, so its maximum sits at a boundary node.
        a_max = 2.0 * p.h0 * speed / width
        if a_max > 0.0:
            dt = min(dt, config.cfl_adv * dy / a_max)
        if speed > 0.0:
            dx_phys = dy * width / (2.0 * p.h0)
            dt = min(dt, config.front_cfl * dx_phys / speed)
        if cap is not None:
            dt = min(dt, cap)
        g_new = m.g + dt * g_speed
        h_new = m.h + dt * h_speed
        new_width = h_new - g_new
        if not dt > 0:
            failed[i] = DomainError(f"non-positive step size {dt!r}")
        elif not new_width > 0:
            failed[i] = DomainError(f"degenerate domain: h - g = {new_width!r}")
        else:
            b = 4.0 * p.h0 * p.h0 * p.d / (new_width * new_width)
            r = dt * b / (dy * dy)
            if math.isfinite(r):
                rows.append((dt, dy, h_speed - g_speed, p.h0 * (h_speed + g_speed), new_width,
                             r, p.a11, p.a12, p.a22))
                fronts.append((g_new, h_new))
                continue
            failed[i] = _blow_up(m, dt)
        rows.append(_IDLE_ROW)
        fronts.append(None)

    dt, dy, c1, c2, width, r, a11, a12, a22 = np.array(rows).T[:, :, None]
    gw = np.asarray(resp(w), dtype=float)
    a = (y[:, 1:-1] * c1 + c2) / width  # A(y) at the interior nodes
    up = a > 0.0
    grad_w = (w[:, 1:] - w[:, :-1]) / dy
    grad_z = (z[:, 1:] - z[:, :-1]) / dy
    adv_w = np.where(up, grad_w[:, 1:], grad_w[:, :-1]) * a
    adv_z = np.where(up, grad_z[:, 1:], grad_z[:, :-1]) * a
    w_new = np.zeros(w.shape)
    z_new = np.zeros(z.shape)
    w_new[:, 1:-1] = w[:, 1:-1] + dt * (adv_w - a11 * w[:, 1:-1] + a12 * z[:, 1:-1])
    z_new[:, 1:-1] = z[:, 1:-1] + dt * (adv_z - a22 * z[:, 1:-1] + gw[:, 1:-1])

    for i in _nonfinite_rows(w_new) + _nonfinite_rows(z_new):
        failed.setdefault(i, _blow_up(members[i], rows[i][0]))
    if failed:
        # A failed member becomes an identity block with a zero right-hand
        # side: a non-finite row would cross the zeroed couplings (0 * inf).
        lost = list(failed)
        w_new[lost] = 0.0
        r[lost] = 0.0

    # Backward Euler diffusion with Dirichlet ends: per member the constant-
    # coefficient tridiag(-r, 1 + 2r, -r), diagonally dominant, with identity
    # first and last rows.  Stacked, the couplings between blocks are zero,
    # so off.ravel() serves as both the super- and the sub-diagonal.
    off = np.zeros(w.shape)
    off[:, 1:n] = -r
    flat = off.ravel()
    *_, x, info = dgtsv(flat[1:], (1.0 - 2.0 * off).ravel(), flat[:-1], w_new.ravel(),
                        overwrite_d=1, overwrite_b=1)
    if info != 0:
        raise LinAlgError(f"singular tridiagonal system (dgtsv info = {info})")
    w_new = x.reshape(w.shape)
    for i in _nonfinite_rows(w_new):
        failed.setdefault(i, _blow_up(members[i], rows[i][0]))

    clipped = {}
    # min() is nan when a failed row holds a nan, which also takes this branch.
    if not (w_new.min() >= 0.0 and z_new.min() >= 0.0):
        negative = (w_new.min(axis=1) < 0.0) | (z_new.min(axis=1) < 0.0)
        clipped = {i: -(w_new[i][w_new[i] < 0.0].sum() + z_new[i][z_new[i] < 0.0].sum())
                   for i in np.flatnonzero(negative).tolist()}
        np.maximum(w_new, 0.0, out=w_new)
        np.maximum(z_new, 0.0, out=z_new)

    for i, m in enumerate(members):
        if i in failed:
            continue
        dt_i, dy_i = rows[i][:2]
        g_new, h_new = fronts[i]
        m.t = m.t + dt_i
        m.g, m.h = g_new, h_new
        if i in clipped:
            m.clipped_total = (m.clipped_total
                               + clipped[i] * dy_i * (h_new - g_new) / (2.0 * m.p.h0))
    return w_new, z_new, failed


def step(
    state: SolverState,
    p: ModelParams,
    resp: InfectionResponse,
    config: SolverConfig,
    dt_cap: float | None = None,
) -> SolverState:
    """Advance one IMEX step; the step size obeys dt_max and both CFL limits.

    The stepper's one-member case (see ``_step_batch``).
    """
    if config.dt_max is None:
        config = config.resolved(p)
    m = _Member(p, config, state.t, state.g, state.h, state.clipped_total)
    w, z, failed = _step_batch([m], resp, state.w[None], state.z[None], state.y[None], [dt_cap])
    if failed:
        raise failed[0]
    return SolverState(t=m.t, g=m.g, h=m.h, w=w[0], z=z[0], y=state.y, h0=state.h0,
                       clipped_total=m.clipped_total)


def sample_physical(state: SolverState, x):
    """Physical-space (u, v) at positions x, zero outside [g, h]."""
    x_arr = np.asarray(x, dtype=float)
    y = (2.0 * state.h0 * x_arr - state.h0 * (state.h + state.g)) / state.width
    u = np.interp(y, state.y, state.w, left=0.0, right=0.0)
    v = np.interp(y, state.y, state.z, left=0.0, right=0.0)
    inside = (x_arr >= state.g) & (x_arr <= state.h)
    u = np.where(inside, u, 0.0)
    v = np.where(inside, v, 0.0)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(u), float(v)
    return u, v


def _make_frame(
    state: SolverState, p: ModelParams, resp: InfectionResponse, clipped_prev: float
) -> Frame:
    dy = 2.0 * state.h0 / state.n_cells
    jac = state.width / (2.0 * state.h0)
    mass = float(np.trapezoid(state.w + (p.a12 / p.a22) * state.z, dx=dy)) * jac
    reaction = (
        float(np.trapezoid(-p.a11 * state.w + (p.a12 / p.a22) * resp(state.w), dx=dy)) * jac
    )
    g_speed, h_speed = front_speeds(state, p)
    return Frame(
        t=state.t,
        g=state.g,
        h=state.h,
        width=state.width,
        sup_w=float(state.w.max()),
        sup_z=float(state.z.max()),
        mass=mass,
        r0f=free_boundary_reproduction_number(p, resp, state.width),
        g_speed=g_speed,
        h_speed=h_speed,
        reaction=reaction,
        clipped=state.clipped_total - clipped_prev,
        w=state.w.copy(),
        z=state.z.copy(),
    )


def _record_targets(config: SolverConfig) -> list[float]:
    """The times a run lands on: its record times in (0, t_max], then t_max.

    A record time within _TIME_SNAP (relative) of the one kept before it is
    merged onto that one, whose frame then serves it (see
    :meth:`Trajectory.frame_at`).
    """
    targets: list[float] = []
    for s in sorted({float(s) for s in config.record_times if 0.0 < s <= config.t_max}):
        if not targets or s > targets[-1] * (1.0 + _TIME_SNAP):
            targets.append(s)
    return targets + [config.t_max]


@dataclass(eq=False)
class _Run:
    """The run loop's bookkeeping for one member of a batch."""

    index: int  # position in the members of simulate_batch
    member: _Member
    resp: InfectionResponse
    monitors: "analysis.Monitors | None"
    traj: Trajectory
    targets: list[float]
    target_idx: int = 0
    steps_since_frame: int = 0
    frames_since_classify: int = 0
    clipped_mark: float = 0.0

    def record(self, w: np.ndarray, z: np.ndarray, y: np.ndarray) -> None:
        m = self.member
        state = SolverState(t=m.t, g=m.g, h=m.h, w=w, z=z, y=y, h0=m.p.h0,
                            clipped_total=m.clipped_total)
        frame = _make_frame(state, m.p, self.resp, self.clipped_mark)
        self.clipped_mark = m.clipped_total
        self.traj.frames.append(frame)
        if self.monitors is not None:
            self.monitors.on_frame(frame, self.traj)

    def after_step(self, w: np.ndarray, z: np.ndarray,
                   y: np.ndarray) -> "analysis.Classification | None":
        """Land on the record time, record and classify after one step of
        this member; return the classification once its run is over."""
        m = self.member
        self.traj.n_steps += 1
        self.steps_since_frame += 1
        target = self.targets[self.target_idx]
        hit_target = abs(m.t - target) <= _TIME_SNAP * max(1.0, target)
        if hit_target:
            m.t = target
            self.target_idx += 1
        # Every step is capped at target - t and the last target is t_max,
        # so the step that reaches t_max hits its target and is recorded.
        if hit_target or self.steps_since_frame >= m.config.frame_stride:
            self.record(w, z, y)
            self.steps_since_frame = 0
            self.frames_since_classify += 1
            stop_verdicts = _STOP_VERDICTS[m.config.early_stop]
            if stop_verdicts and self.frames_since_classify >= _CLASSIFY_STRIDE:
                self.frames_since_classify = 0
                partial = analysis.classify(self.traj)
                if partial.verdict in stop_verdicts:
                    self.traj.terminated_by = f"classifier:{partial.verdict.value}"
                    return partial
        if m.t < m.config.t_max * (1.0 - 1e-14):
            return None
        self.traj.terminated_by = "t_max"
        return analysis.classify(self.traj)


def simulate_batch(
    members: Sequence[tuple[ModelParams, InfectionResponse, InitialData]],
    config: SolverConfig | None = None,
    monitors: "Sequence[analysis.Monitors | None] | None" = None,
) -> list[tuple[Trajectory | None, "analysis.Classification | Exception"]]:
    """Integrate several members in lockstep, each to its t_max or verdict.

    ``members`` holds (p, resp, init) triples that share one response
    object: G is evaluated once on the whole (B, n+1) block, so it must act
    elementwise.  ``config`` is shared and resolved per member, so each
    member's dt_max and t_max follow its own parameters.  ``monitors``,
    when given, holds one Monitors (or None) per member, evaluated on every
    frame that member records.

    Returns one (trajectory, outcome) pair per member, in order.  The
    outcome is the member's Classification, or the exception that ended
    it: a failure ends only its own member.  The trajectory then holds the
    frames recorded before the failure, or is None when the member failed
    before its run started.
    """
    config = config or SolverConfig()
    monitors = monitors or [None] * len(members)
    if len({id(resp) for _, resp, _ in members}) > 1:
        raise DomainError("the members of a batch must share one InfectionResponse")
    results: list = [None] * len(members)
    runs, states = [], []
    for index, ((p, resp, init), mon) in enumerate(zip(members, monitors, strict=True)):
        try:
            cfg = config.resolved(p)
            state = initial_state(p, init, cfg.n_cells)
        except Exception as exc:  # noqa: BLE001 - the member's outcome
            results[index] = (None, exc)
            continue
        run = _Run(index, _Member(p, cfg, state.t, state.g, state.h), resp, mon,
                   Trajectory(h0=p.h0, n_cells=cfg.n_cells), _record_targets(cfg))
        try:
            run.record(state.w, state.z, state.y)
        except Exception as exc:  # noqa: BLE001 - the member's outcome
            results[index] = (run.traj, exc)
            continue
        runs.append(run)
        states.append(state)
    w = np.array([state.w for state in states])
    z = np.array([state.z for state in states])
    y = np.array([state.y for state in states])

    while runs:
        caps = [run.targets[run.target_idx] - run.member.t for run in runs]
        try:
            w, z, failed = _step_batch([run.member for run in runs], runs[0].resp, w, z, y, caps)
        except Exception as exc:  # noqa: BLE001 - not tied to one member, so it ends all
            for run in runs:
                results[run.index] = (run.traj, exc)
            break
        keep = []
        for i, run in enumerate(runs):
            outcome = failed.get(i)
            if outcome is None:
                try:
                    outcome = run.after_step(w[i], z[i], y[i])
                except Exception as exc:  # noqa: BLE001 - the member's outcome
                    outcome = exc
            if outcome is None:
                keep.append(i)
            else:
                results[run.index] = (run.traj, outcome)
        if len(keep) < len(runs):
            runs = [runs[i] for i in keep]
            w, z, y = w[keep], z[keep], y[keep]
    return results


def simulate(
    p: ModelParams,
    resp: InfectionResponse,
    init: InitialData,
    config: SolverConfig | None = None,
    monitors: "analysis.Monitors | None" = None,
):
    """Integrate to t_max or until the classifier reaches a verdict.

    Returns (Trajectory, Classification).  Monitors, when given, are
    evaluated on every recorded frame and abort the run on a hard
    violation.  An exception raised once the run has started carries the
    frames recorded before it as ``exc.trajectory``.  This is
    :func:`simulate_batch` with one member.
    """
    traj, outcome = simulate_batch([(p, resp, init)], config, [monitors])[0]
    if isinstance(outcome, Exception):
        if traj is not None:
            outcome.trajectory = traj
        raise outcome
    return traj, outcome
