"""Front-fixed finite-difference integrator for the two-front system.

The moving habitat (g(t), h(t)) is mapped onto the fixed interval
[-h0, h0] by the affine change of variable

    y = 2 h0 x / (h - g)  -  h0 (h + g) / (h - g),

which trades the moving boundaries for an advection term A(y) w_y and a
rescaled diffusion coefficient B.  Time stepping is IMEX: diffusion is
backward Euler (tridiagonal solve), advection is first-order upwind, and
reactions are explicit.  Fronts move first, by forward Euler on the
Stefan conditions, with a CFL limiter on the per-step displacement.

The run loop caps each step at the member's ``next_dt`` and at the time
to its next record time, and the stepper cuts that cap to the front CFL
limit.  A set ``SolverConfig.dt_max`` is a fixed step: ``next_dt`` stays
dt_max.  Left unset, each step is error-controlled by step doubling
(``_controlled_step``): one step of H and two of H/2, kept as the local
Richardson value 2 half - full when the two differ by at most ``_RTOL``
relative to the sup of each field and to the width, and retried with a
smaller H otherwise.  The first H is 1e-3 h0^2/d, so the steps, like
the model, scale with h0^2/d.

The code splits into a stepper and a run loop.  The stepper
(``_step_batch``) advances B members at once, each with its own
parameters and step size.  One row per member holds its scalars (front
speeds, dt and its limits, new fronts, the diffusion ratio r) beside its
constants (a12, dy, a11, a22); only the interior y-nodes are a per-batch
array.  The fields travel as one (2, B, n+1) block, w over z, so the
explicit part runs once per step on both fields.  The B backward-Euler
systems for w are one tridiagonal system of size B (n+1), solved by a
single LAPACK ``dgtsv`` call.  Its couplings between members are zero,
so each member gets exactly the numbers it would get solved alone, and
each member's end nodes are uncoupled identity rows, so the solve never
pivots and w stays exactly 0 there.  The run loop (``simulate_batch``)
owns, per member, the record times, failures and early stopping on each
recorded frame, the first one included, and drops a member from the
batch once it is done; it records a frame every ``frame_stride`` steps
and on the step on which R0F first reaches ``analysis.SPREADING_R0F``,
the level ``classify`` tests, so that ``classify`` can locate the
spreading time.  One ``_Run`` per member holds its trajectory (which
carries the member's model), the scalars the stepper advances and the
run loop's bookkeeping, and reads the batch's one config;
``_Run.record`` appends every frame of a run.  ``simulate`` is the run
loop's one-member case and ``step`` the stepper's.  ``_frame`` is the
one place that builds a ``Frame``, the one snapshot of a run: every run
starts from the frame ``initial_state`` gives, and ``step`` takes a
frame and returns the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import analysis
from .errors import BlowUpError, DomainError
from .model import InfectionResponse, InitialData, ModelParams, free_boundary_reproduction_number

# A step that ends within 1e-9 max(1, target) of a record time lands on it:
# absolute below t = 1, relative above.
_TIME_SNAP = 1e-9
# Largest front displacement per step, as a fraction of a cell.  |A| is
# affine in y with its maximum 2 h0 max(h', -g')/width at a boundary node,
# so this also bounds the advective Courant number max|A| dt/dy.
_FRONT_CFL = 0.2
# Largest local error an error-controlled step accepts, relative to the sup
# of each field and to the width for the fronts.
_RTOL = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and orchestration settings.

    A set ``dt_max`` is a fixed step: every step has that size, cut only
    to land on a record time or t_max and to the front CFL limit.  Left as
    None, the steps are error-controlled (see ``_controlled_step``),
    starting from 1e-3 h0^2/d.  ``t_max`` defaults to 200/min(a11, a22)
    when left as None; call :meth:`resolved` to materialize it.
    ``record_times`` are exact times the integrator must land on (a frame
    is recorded there).  With ``early_stop`` a run ends on the first
    recorded frame that has a verdict; without it, at t_max.
    """

    n_cells: int = 256
    dt_max: float | None = None
    t_max: float | None = None
    frame_stride: int = 50
    record_times: tuple[float, ...] = ()
    early_stop: bool = True

    def __post_init__(self) -> None:
        for name in ("n_cells", "frame_stride"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer (got {value!r})", field=name)
        if self.n_cells < 16 or self.n_cells % 2:
            raise DomainError(f"n_cells must be even and >= 16 (got {self.n_cells})",
                              field="n_cells")
        for name in ("dt_max", "t_max"):
            value = getattr(self, name)
            if value is None:
                continue  # unset: error-controlled steps, or resolved() derives t_max
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and > 0 (got {value!r})", field=name)
        if self.frame_stride < 1:
            raise DomainError(f"frame_stride must be >= 1 (got {self.frame_stride})",
                              field="frame_stride")
        if not isinstance(self.early_stop, bool):
            raise DomainError(f"early_stop must be a bool (got {self.early_stop!r})",
                              field="early_stop")
        if not all(math.isfinite(s) and s >= 0 for s in self.record_times):
            raise DomainError(f"record_times must be finite and >= 0 (got {self.record_times!r})",
                              field="record_times")

    def first_step(self, p: ModelParams) -> float:
        """The first step of a run of ``p``: dt_max when set, else 1e-3 h0^2/d."""
        return self.dt_max if self.dt_max is not None else 1e-3 * p.h0 * p.h0 / p.d

    def resolved(self, p: ModelParams) -> "SolverConfig":
        """This config with t_max derived for ``p`` when unset; an unset
        dt_max stays unset, and the first step it derives is checked."""
        first = self.first_step(p)
        if not (math.isfinite(first) and first > 0):
            raise DomainError(f"the first step 1e-3 h0^2/d must be finite and > 0 (got {first!r})",
                              field="dt_max")
        tm = self.t_max if self.t_max is not None else 200.0 / min(p.a11, p.a22)
        return replace(self, t_max=tm)


@dataclass(frozen=True)
class Frame:
    """One recorded instant of a run: time, fronts, the fields w, z on the
    n + 1 nodes of the y-grid [-h0, h0], and the diagnostics read from them."""

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
    """The one record of a run: its model (``params``, ``resp``), the frames
    it recorded, its step count and what ended it.  Every verdict and
    diagnostic is read off it, so no caller passes the model again."""

    params: ModelParams
    resp: InfectionResponse
    frames: list[Frame] = field(default_factory=list)
    n_steps: int = 0
    terminated_by: str = ""

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(f, name) for f in self.frames], dtype=float)

    @property
    def final(self) -> Frame:
        return self.frames[-1]

    def frame_at(self, t: float) -> Frame | None:
        """The frame recorded at exactly time t, or None.  A run lands
        exactly on each of its record times and on t_max."""
        return next((f for f in self.frames if f.t == t), None)

    def x_grid(self, frame: Frame) -> np.ndarray:
        """Physical positions x(y) of the y-grid nodes at ``frame``."""
        h0 = self.params.h0
        y = np.linspace(-h0, h0, frame.w.size)
        return (y * frame.width + h0 * (frame.h + frame.g)) / (2.0 * h0)


def front_speeds(frame: Frame) -> tuple[float, float]:
    """The discrete Stefan speeds (g', h') of ``frame``."""
    return frame.g_speed, frame.h_speed


_EDGE_NODES = np.array([0, 1, 2, -3, -2, -1])  # the nodes of the one-sided boundary slopes


def _stefan_speeds(w0, w1, w2, wr2, wr1, wr0, dy, scale):
    """(g', h') from one-sided 3-point slopes at w[0], w[1], w[2], w[-3], w[-2], w[-1],
    clamped to the signs of the strong maximum principle (h' >= 0 >= g') against round-off."""
    wy_right = (wr2 - 4.0 * wr1 + 3.0 * wr0) / (2.0 * dy)
    wy_left = (-3.0 * w0 + 4.0 * w1 - w2) / (2.0 * dy)
    return min(0.0, -scale * wy_left), max(0.0, -scale * wy_right)


def _trapezoid(f: np.ndarray, dx: float) -> np.float64:
    """``np.trapezoid(f, dx=dx)`` of a 1-D f: its own expression, without its wrapper."""
    return (dx * (f[1:] + f[:-1]) / 2.0).sum()


def _frame(
    p: ModelParams, resp: InfectionResponse, t: float, g: float, h: float,
    w: np.ndarray, z: np.ndarray, clipped: float,
) -> Frame:
    """The frame of the fields w, z (one member's rows) at time t, fronts g, h."""
    dy = 2.0 * p.h0 / (w.size - 1)
    width = h - g
    jac = width / (2.0 * p.h0)
    mass = float(_trapezoid(w + (p.a12 / p.a22) * z, dy)) * jac
    reaction = float(_trapezoid(-p.a11 * w + (p.a12 / p.a22) * resp(w), dy)) * jac
    g_speed, h_speed = _stefan_speeds(*w.take(_EDGE_NODES).tolist(), dy, 2.0 * p.h0 * p.mu / width)
    return Frame(
        t=t, g=g, h=h, width=width, sup_w=float(w.max()), sup_z=float(z.max()), mass=mass,
        r0f=free_boundary_reproduction_number(p, resp, width),
        g_speed=g_speed, h_speed=h_speed, reaction=reaction,
        clipped=clipped, w=w.copy(), z=z.copy(),
    )


@dataclass(eq=False)
class _Run:
    """One member of a batch: its trajectory, which carries its model, the
    scalars the stepper reads and advances, then the run loop's bookkeeping
    (a bare ``step`` leaves it unset).  ``clipped``: mass clipped since the
    last frame; ``dt``: the step the stepper last took on this member;
    ``next_dt``: the step this member tries next, dt_max for a fixed run.
    It holds no settings: ``after_step`` and ``outcome`` read the batch's
    one config."""

    traj: Trajectory
    t: float
    g: float
    h: float
    clipped: float = 0.0
    dt: float = 0.0
    index: int = 0  # position in the members of simulate_batch
    monitors: "analysis.Monitors | None" = None
    targets: list[float] = field(default_factory=list)  # still to land on; t_max last
    steps_since_frame: int = 0
    next_dt: float = 0.0

    def record(self, frame: Frame) -> None:
        """Append ``frame`` and run the monitors on it."""
        self.clipped = 0.0
        self.traj.frames.append(frame)
        if self.monitors is not None:
            self.monitors.on_frame(frame, self.traj)

    def after_step(
        self, f: np.ndarray, i: int, config: SolverConfig
    ) -> "analysis.Classification | None":
        """Land on the record time, record every ``config.frame_stride``
        steps and classify after one step of this member, whose fields are
        row i of the block ``f``; return the classification once its run is
        over.  The step on which R0F first reaches ``analysis.SPREADING_R0F``,
        the level ``classify`` tests, is recorded too, so that ``classify``
        locates the crossing from the frames on either side of it.  Only a
        recorded step slices w and z out of ``f``."""
        traj = self.traj
        traj.n_steps += 1
        self.steps_since_frame += 1
        target = self.targets[0]
        if abs(self.t - target) <= _TIME_SNAP * max(1.0, target):
            self.t = self.targets.pop(0)
        elif self.steps_since_frame < config.frame_stride and not (
                traj.frames[-1].r0f < analysis.SPREADING_R0F
                <= free_boundary_reproduction_number(traj.params, traj.resp, self.h - self.g)):
            return None
        self.record(_frame(traj.params, traj.resp, self.t, self.g, self.h, f[0, i], f[1, i],
                           self.clipped))
        self.steps_since_frame = 0
        return self.outcome(config)

    def outcome(self, config: SolverConfig) -> "analysis.Classification | None":
        """Classify the last frame when the run may end on it, with
        ``config.early_stop`` or at t_max; return the classification once
        the run is over."""
        # Every step is capped at target - t, so the step that reaches t_max
        # lands on it and is recorded.
        at_t_max = not self.targets
        if not (config.early_stop or at_t_max):
            return None
        cls = analysis.classify(self.traj)
        decided = config.early_stop and cls.verdict is not analysis.Verdict.UNDETERMINED
        if not (decided or at_t_max):
            return None
        self.traj.terminated_by = f"classifier:{cls.verdict.value}" if decided else "t_max"
        return cls


def _blow_up(m: _Run, dt: float) -> BlowUpError:
    return BlowUpError(f"non-finite field values at t={m.t + dt:.6g}", m.t, m.g, m.h)


def _nonfinite_rows(block: np.ndarray) -> list[int]:
    """The members i whose rows ``block[..., i, :]`` hold a non-finite value."""
    # A finite sum has only finite terms, so one reduction clears the common case.
    if math.isfinite(block.sum()):
        return []
    bad = ~np.isfinite(block).all(axis=-1)
    return np.flatnonzero(bad.reshape(-1, block.shape[-2]).any(axis=0)).tolist()


def _block(runs: Sequence[_Run], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2, B, n+1) field block of the runs' last frames, w over z, and
    the (B, n-1) interior nodes of each run's y-grid on n cells."""
    f = np.array([[run.traj.final.w for run in runs], [run.traj.final.z for run in runs]])
    return f, np.array([np.linspace(-run.traj.params.h0, run.traj.params.h0, n + 1)[1:-1]
                        for run in runs])


def _step_batch(
    members: list[_Run],
    f: np.ndarray,
    y: np.ndarray,
    caps: Sequence[float],
) -> tuple[np.ndarray, dict[int, Exception]]:
    """Advance every member of a batch by one IMEX step.

    ``f`` is the (2, B, n+1) field block: f[0] holds w and f[1] holds z,
    and row i of each belongs to ``members[i]``, whose interior y-nodes are
    row i of ``y`` and whose step is ``caps[i]`` cut to the front CFL
    limit: the faster front moves at most ``_FRONT_CFL`` of a physical
    cell.  Order within a step: front speeds from the current field,
    fronts by forward Euler, then the field update with the new geometry
    (implicit diffusion, upwind advection, explicit reactions, floor at
    zero).  G is evaluated once on the whole w block, with the response
    the members share, so it must act elementwise.

    Advances each surviving member's t, g, h and clipped in place, sets
    its ``dt`` to the step it took, and returns (f_new, failed).
    ``failed`` maps a row to the exception that ended its member; that row
    of f_new is meaningless.  An exception raised here concerns the whole
    batch.
    """
    n = f.shape[2] - 1
    failed: dict[int, Exception] = {}
    rows = []  # per member: dt, A slope, A offset, new width, r, then its constants
    fronts = []  # per member: new g, new h, dy
    edges = f[0].take(_EDGE_NODES, axis=1).tolist()
    for i, (m, edge, dt) in enumerate(zip(members, edges, caps)):
        p = m.traj.params
        dy = 2.0 * p.h0 / n
        width = m.h - m.g
        g_speed, h_speed = _stefan_speeds(*edge, dy, 2.0 * p.h0 * p.mu / width)
        speed = max(h_speed, -g_speed)
        if speed > 0.0:  # the front CFL limit
            dt = min(dt, _FRONT_CFL * (dy * width / (2.0 * p.h0)) / speed)
        g_new = m.g + dt * g_speed
        h_new = m.h + dt * h_speed
        # The sign clamps give h_new >= h and g_new <= g, and rounding is monotone,
        # so new_width >= width > 0 (a run starts at width 2 h0).
        new_width = h_new - g_new
        constants = (p.a12, dy, p.a11, p.a22)
        if not dt > 0:
            failed[i] = DomainError(f"non-positive step size {dt!r}")
        else:
            b = 4.0 * p.h0 * p.h0 * p.d / (new_width * new_width)
            r = dt * b / (dy * dy)
            if math.isfinite(1.0 + 2.0 * r):  # the diagonal of the solve
                rows.append((dt, h_speed - g_speed, p.h0 * (h_speed + g_speed), new_width, r,
                             *constants))
                fronts.append((g_new, h_new, dy))
                continue
            failed[i] = _blow_up(m, dt)
        rows.append((0.0, 0.0, 0.0, 1.0, 0.0, *constants))  # a step of size 0
        fronts.append(None)

    # Explicit part, once on both fields: f + dt ((adv - decay f) + src) on
    # the interior nodes, with src = a12 z for w and G(w) for z.
    block = np.array(rows).T[:, :, None]
    dt, c1, c2, width, r, a12, dy = block[:7]
    decay = block[7:]  # a11 over a22
    inner = f[:, :, 1:-1]
    a = (y * c1 + c2) / width  # A(y) at the interior nodes
    grad = (f[:, :, 1:] - f[:, :, :-1]) / dy
    rate = np.where(a > 0.0, grad[:, :, 1:], grad[:, :, :-1]) * a  # upwind advection
    rate -= decay * inner
    rate[0] += a12 * inner[1]
    rate[1] += np.asarray(members[0].traj.resp(f[0]), dtype=float)[:, 1:-1]
    rate *= dt
    f_new = np.zeros(f.shape)
    np.add(inner, rate, out=f_new[:, :, 1:-1])

    for i in _nonfinite_rows(f_new):
        failed.setdefault(i, _blow_up(members[i], rows[i][0]))
    if failed:
        # A failed member becomes an identity block with a zero right-hand
        # side: a non-finite row would cross the zeroed couplings (0 * inf).
        lost = list(failed)
        f_new[0, lost] = 0.0
        r[lost] = 0.0

    # Backward Euler diffusion of w with Dirichlet ends: per member,
    # tridiag(-r, 1 + 2r, -r) on the interior nodes and an uncoupled
    # identity row with a zero right-hand side at each end.  The stacked
    # matrix is symmetric and diagonally dominant, so dgtsv never pivots
    # and w stays exactly 0 at the ends; one off-diagonal serves as both
    # the super- and the sub-diagonal.  The solution overwrites f_new[0].
    off = np.zeros(f.shape[1:])
    off[:, 1:n - 1] = -r
    diag = np.ones(f.shape[1:])
    diag[:, 1:n] = 1.0 + 2.0 * r
    flat = off.ravel()[:-1]
    rhs = f_new[0].reshape(-1)
    *_, x, info = dgtsv(flat, diag.ravel(), flat, rhs, overwrite_d=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal system (dgtsv info = {info})")
    if x is not rhs:
        f_new[0] = x.reshape(off.shape)
    for i in _nonfinite_rows(f_new[0]):
        failed.setdefault(i, _blow_up(members[i], rows[i][0]))

    clipped = {}
    # min() is nan when a failed row holds a nan, which also takes this branch.
    if not f_new.min() >= 0.0:
        neg = f_new < 0.0
        clipped = {i: -(f_new[0, i][neg[0, i]].sum() + f_new[1, i][neg[1, i]].sum())
                   for i in neg.any(axis=(0, 2)).nonzero()[0].tolist()}
        np.maximum(f_new, 0.0, out=f_new)

    for i, m in enumerate(members):
        if i in failed:
            continue
        g_new, h_new, dy_i = fronts[i]
        m.dt = rows[i][0]
        m.t = m.t + m.dt
        m.g, m.h = g_new, h_new
        if i in clipped:
            m.clipped = m.clipped + clipped[i] * dy_i * (h_new - g_new) / (2.0 * m.traj.params.h0)
    return f_new, failed


def _controlled_step(
    members: list[_Run],
    f: np.ndarray,
    y: np.ndarray,
    caps: Sequence[float],
) -> tuple[np.ndarray, dict[int, Exception], set[int]]:
    """Try one error-controlled step of every member of a batch.

    Step doubling on ``_step_batch``: from each member's state, one full
    step capped at ``caps[i]``, whose size H is the ``dt`` it took, then
    two half steps capped at H/2.  The error estimate is the largest of
    |w_half - w_full| / sup w_half, the same for z, and the gaps of the two
    fronts over the width.  A member whose estimate is at most ``_RTOL``
    takes the local Richardson value 2 half - full: the fields floored at
    0 (the floored mass joins ``clipped``, with what the half steps
    clipped) and the fronts clamped so that h never decreases and g never
    increases.  Any other member is rejected and keeps its state and its
    row of ``f``.  So is one whose second half step took a ``dt`` other
    than H/2, which the front CFL limit cut on the moved fronts, and its
    ``next_dt`` becomes twice that cut half step, the size that fit;
    otherwise its ``next_dt`` becomes H times 0.9 sqrt(_RTOL / error),
    clipped to [0.2, 2].  Each member's trial runs on copies of its
    scalars, so members accept or reject on their own and get exactly
    what they get alone.

    Returns (f_new, failed, rejected) with ``_step_batch``'s ``failed``
    (the first error of a member's three calls) and the rejected rows.
    """
    n = f.shape[2] - 1
    full = [_Run(m.traj, m.t, m.g, m.h) for m in members]
    half = [_Run(m.traj, m.t, m.g, m.h) for m in members]
    f_full, failed = _step_batch(full, f, y, caps)
    halves = [a.dt / 2.0 for a in full]  # 0 for a failed member: its half steps fail too
    f_mid, failed_mid = _step_batch(half, f, y, halves)
    f_half, failed_half = _step_batch(half, f_mid, y, halves)
    failed = {**failed_half, **failed_mid, **failed}
    if failed:  # their rows are meaningless; zero them so the norms below stay finite
        lost = list(failed)
        f_full[:, lost] = f_half[:, lost] = 0.0

    gap = np.abs(f_half - f_full).max(axis=2)  # (2, B): w over z
    sup = f_half.max(axis=2)
    field_err = np.divide(gap, sup, out=np.where(gap > 0.0, math.inf, 0.0),
                          where=sup > 0.0).max(axis=0).tolist()
    f_new = 2.0 * f_half - f_full
    floored = [0.0] * len(members)
    if not f_new.min() >= 0.0:
        floored = (-np.minimum(f_new, 0.0).sum(axis=(0, 2))).tolist()
        np.maximum(f_new, 0.0, out=f_new)

    rejected = set()
    for i, (m, a, b) in enumerate(zip(members, full, half)):
        if i in failed:
            continue
        width = b.h - b.g
        err = max(field_err[i], abs(b.g - a.g) / width, abs(b.h - a.h) / width)
        factor = 2.0 if err == 0.0 else min(2.0, max(0.2, 0.9 * math.sqrt(_RTOL / err)))
        cut = b.dt != halves[i]  # the front limit cut the second half step short
        m.next_dt = 2.0 * b.dt if cut else a.dt * factor
        if cut or not err <= _RTOL:
            rejected.add(i)
            continue
        m.t = a.t
        m.g = min(m.g, 2.0 * b.g - a.g)
        m.h = max(m.h, 2.0 * b.h - a.h)
        m.clipped = m.clipped + b.clipped + floored[i] * (m.h - m.g) / n  # dy times the Jacobian
    if rejected:
        stay = list(rejected)
        f_new[:, stay] = f[:, stay]
    return f_new, failed, rejected


def initial_state(
    p: ModelParams, resp: InfectionResponse, init: InitialData, n_cells: int
) -> Frame:
    """The frame every run on ``n_cells`` cells starts from: the initial
    data sampled on the y-grid (the identity map at t = 0), whose shapes
    must vanish at x = +/-h0 and be nonnegative."""
    y = np.linspace(-p.h0, p.h0, n_cells + 1)
    w = np.asarray(init.u0(y, p.h0), dtype=float).copy()
    z = np.asarray(init.v0(y, p.h0), dtype=float).copy()
    for name, arr, shape in (("phi", w, init.phi), ("psi", z, init.psi)):
        edge = max(abs(float(shape(-p.h0, p.h0))), abs(float(shape(p.h0, p.h0))))
        interior_sup = float(np.max(np.abs(arr[1:-1]))) if n_cells > 2 else 0.0
        if edge > 1e-9 * (1.0 + interior_sup):
            raise DomainError(f"initial shape {name} must vanish at x = +/-h0 (got {edge!r})")
        if np.min(arr) < -1e-12 * (1.0 + interior_sup):
            raise DomainError(f"initial shape {name} must be nonnegative on (-h0, h0)")
    np.maximum(w, 0.0, out=w)
    np.maximum(z, 0.0, out=z)
    w[0] = w[-1] = 0.0
    z[0] = z[-1] = 0.0
    return _frame(p, resp, 0.0, -p.h0, p.h0, w, z, clipped=0.0)


def step(
    frame: Frame,
    p: ModelParams,
    resp: InfectionResponse,
    config: SolverConfig,
) -> Frame:
    """Advance one IMEX step of the first step size (``config.first_step``):
    dt_max when set, else 1e-3 h0^2/d, cut to the front CFL limit.

    The stepper's one-member case, run on ``Trajectory(p, resp, [frame])``,
    with no error control.  The new frame's ``clipped`` is the mass this
    step clipped.
    """
    m = _Run(Trajectory(p, resp, [frame]), frame.t, frame.g, frame.h)
    dt = config.resolved(p).first_step(p)
    f, failed = _step_batch([m], *_block([m], frame.w.size - 1), [dt])
    if failed:
        raise failed[0]
    return _frame(p, resp, m.t, m.g, m.h, f[0, 0], f[1, 0], m.clipped)


def sample_physical(frame: Frame, x):
    """Physical-space (u, v) at positions x, zero outside [g, h]."""
    x_arr = np.asarray(x, dtype=float)
    s = (x_arr - frame.g) / frame.width  # the nodes sit at s = 0, 1/n, ..., 1
    nodes = np.linspace(0.0, 1.0, frame.w.size)
    u = np.interp(s, nodes, frame.w, left=0.0, right=0.0)
    v = np.interp(s, nodes, frame.z, left=0.0, right=0.0)
    if x_arr.ndim == 0:
        return float(u), float(v)
    return u, v


def simulate_batch(
    members: Sequence[tuple[ModelParams, InfectionResponse, InitialData]],
    config: SolverConfig | None = None,
    monitors: "Sequence[analysis.Monitors | None] | None" = None,
) -> list[tuple[Trajectory, "analysis.Classification | Exception"]]:
    """Integrate several members in lockstep, each to its t_max or verdict.

    ``members`` holds (p, resp, init) triples that share one response
    object: G is evaluated once on the whole (B, n+1) block, so it must act
    elementwise.  ``config`` is shared and resolved per member, so each
    member's t_max and first step follow its own parameters.  A member's
    step is capped at its ``next_dt`` (dt_max for a fixed run) and at the
    time to its next record time.  With dt_max unset, each member accepts
    or rejects its own error-controlled steps; ``n_steps`` and
    ``frame_stride`` count accepted steps.  ``monitors``, when given, holds one Monitors (or
    None) per member, evaluated on every frame that member records.

    Every member starts from its :func:`initial_state`, which is its first
    frame.  With ``early_stop`` that frame is classified too, and a member
    it decides ends there, after 0 steps.  Returns one (trajectory,
    outcome) pair per member, in order.  The outcome is the member's
    Classification, or the exception that ended it: a failure ends only
    its own member, except that an error the stepper raises for the whole
    batch ends every member still running, as one object they all share.
    The trajectory then holds the frames recorded before the failure, and
    is empty when the member failed before its first frame.
    """
    config = config or SolverConfig()
    monitors = monitors or [None] * len(members)
    if len({id(resp) for _, resp, _ in members}) > 1:
        raise DomainError("the members of a batch must share one InfectionResponse")
    results: list = [None] * len(members)
    runs = []
    for index, ((p, resp, init), mon) in enumerate(zip(members, monitors, strict=True)):
        traj = Trajectory(p, resp)
        try:
            cfg = config.resolved(p)
            start = initial_state(p, resp, init, cfg.n_cells)
            targets = sorted({float(s) for s in cfg.record_times if 0.0 < s < cfg.t_max})
            run = _Run(traj, start.t, start.g, start.h, index=index, monitors=mon,
                       targets=[*targets, cfg.t_max], next_dt=cfg.first_step(p))
            run.record(start)
            outcome = run.outcome(config)  # a run its first frame decides takes no step
        except Exception as exc:  # noqa: BLE001 - the member's outcome
            outcome = exc
        if outcome is None:
            runs.append(run)
        else:
            results[index] = (traj, outcome)
    f, y = _block(runs, config.n_cells)

    while runs:
        caps = [min(run.next_dt, run.targets[0] - run.t) for run in runs]
        try:
            if config.dt_max is None:
                f, failed, rejected = _controlled_step(runs, f, y, caps)
            else:
                f, failed = _step_batch(runs, f, y, caps)
                rejected = set()
        except Exception as exc:  # noqa: BLE001 - not tied to one member, so it ends all
            for run in runs:
                results[run.index] = (run.traj, exc)
            break
        keep = []
        for i, run in enumerate(runs):
            outcome = failed.get(i)
            if outcome is None and i not in rejected:
                try:
                    outcome = run.after_step(f, i, config)
                except Exception as exc:  # noqa: BLE001 - the member's outcome
                    outcome = exc
            if outcome is None:
                keep.append(i)
            else:
                results[run.index] = (run.traj, outcome)
        if len(keep) < len(runs):
            runs = [runs[i] for i in keep]
            f = f[:, keep]
            y = y[keep]
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
    violation.  An exception carries the frames recorded before it as
    ``exc.trajectory``, empty when the run failed before its first frame.
    This is :func:`simulate_batch` with one member.
    """
    traj, outcome = simulate_batch([(p, resp, init)], config, [monitors])[0]
    if isinstance(outcome, Exception):
        outcome.trajectory = traj
        raise outcome
    return traj, outcome
