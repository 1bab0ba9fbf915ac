"""Front-fixed finite-difference integrator for the two-front system.

The moving habitat (g(t), h(t)) is mapped onto the fixed interval
[-h0, h0] by the affine change of variable

    y = 2 h0 x / (h - g)  -  h0 (h + g) / (h - g),

which trades the moving boundaries for an advection term A(y) w_y and a
rescaled diffusion coefficient B.  Time stepping is IMEX: diffusion is
backward Euler (tridiagonal solve), advection is first-order upwind, and
reactions are explicit.  Fronts move first, by forward Euler on the
Stefan conditions, with a CFL limiter on the per-step displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_banded

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


def _advance_fields(w, z, gw, a_coef, b_coef, dy, dt, a11, a12, a22):
    """One field update: upwind advection with coefficient A(y), implicit
    diffusion with coefficient B, explicit reactions, then clipping at zero.

    Returns (w_new, z_new, clipped node sum).
    """
    n = w.shape[0] - 1
    grad_w = np.diff(w) / dy
    grad_z = np.diff(z) / dy
    up = a_coef[1:-1] > 0.0
    adv_w = np.where(up, grad_w[1:], grad_w[:-1]) * a_coef[1:-1]
    adv_z = np.where(up, grad_z[1:], grad_z[:-1]) * a_coef[1:-1]

    w_new = np.zeros_like(w)
    z_new = np.zeros_like(z)
    w_new[1:-1] = w[1:-1] + dt * (adv_w - a11 * w[1:-1] + a12 * z[1:-1])
    z_new[1:-1] = z[1:-1] + dt * (adv_z - a22 * z[1:-1] + gw[1:-1])

    # Backward Euler diffusion with Dirichlet ends: the matrix is the
    # constant-coefficient tridiag(-r, 1 + 2r, -r), diagonally dominant.
    r = dt * b_coef / (dy * dy)
    ab = np.zeros((3, n + 1))
    ab[1, :] = 1.0 + 2.0 * r
    ab[1, 0] = ab[1, n] = 1.0
    ab[0, 2:] = -r
    ab[2, : n - 1] = -r
    w_new = solve_banded((1, 1), ab, w_new, check_finite=False, overwrite_ab=True)

    clipped = -(w_new[w_new < 0.0].sum() + z_new[z_new < 0.0].sum())
    np.maximum(w_new, 0.0, out=w_new)
    np.maximum(z_new, 0.0, out=z_new)
    return w_new, z_new, clipped


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
    """Advection coefficient A(y) and diffusion coefficient B of the fixed-grid system."""
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
    w = state.w
    dy = 2.0 * state.h0 / state.n_cells
    wy_right = (w[-3] - 4.0 * w[-2] + 3.0 * w[-1]) / (2.0 * dy)
    wy_left = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * dy)
    scale = 2.0 * state.h0 * p.mu / state.width
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


def step(
    state: SolverState,
    p: ModelParams,
    resp: InfectionResponse,
    config: SolverConfig,
    dt_cap: float | None = None,
) -> SolverState:
    """Advance one IMEX step; the step size obeys dt_max and both CFL limits.

    Order within the step: front speeds from the current field, fronts by
    forward Euler, then the field update with the new geometry (implicit
    diffusion, upwind advection, explicit reactions, floor at zero).
    """
    if config.dt_max is None:
        config = config.resolved(p)
    w, z, y = state.w, state.z, state.y
    n = state.n_cells
    dy = 2.0 * state.h0 / n

    g_speed, h_speed = front_speeds(state, p)
    speed = max(h_speed, -g_speed)

    dt = config.dt_max
    # |A| is affine in y, so its maximum sits at a boundary node.
    a_max = 2.0 * state.h0 * speed / state.width
    if a_max > 0.0:
        dt = min(dt, config.cfl_adv * dy / a_max)
    if speed > 0.0:
        dx_phys = dy * state.width / (2.0 * state.h0)
        dt = min(dt, config.front_cfl * dx_phys / speed)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if not dt > 0:
        raise DomainError(f"non-positive step size {dt!r}")

    g_new = state.g + dt * g_speed
    h_new = state.h + dt * h_speed

    gw = np.asarray(resp(w), dtype=float)
    a_coef, b_coef = transform_coefficients(p, g_new, h_new, g_speed, h_speed, y)
    w_new, z_new, clipped_nodes = _advance_fields(
        w, z, gw, a_coef, b_coef, dy, dt, p.a11, p.a12, p.a22
    )
    clipped = clipped_nodes * dy * (h_new - g_new) / (2.0 * state.h0)

    if not (np.isfinite(w_new).all() and np.isfinite(z_new).all()):
        raise BlowUpError(
            f"non-finite field values at t={state.t + dt:.6g}", state.t, state.g, state.h
        )

    return SolverState(
        t=state.t + dt,
        g=g_new,
        h=h_new,
        w=w_new,
        z=z_new,
        y=y,
        h0=state.h0,
        clipped_total=state.clipped_total + clipped,
    )


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
    violation.
    """
    config = (config or SolverConfig()).resolved(p)
    state = initial_state(p, init, config.n_cells)
    traj = Trajectory(h0=p.h0, n_cells=config.n_cells)

    targets = sorted({float(s) for s in config.record_times if 0.0 < s <= config.t_max})
    targets.append(config.t_max)

    stop_verdicts = _STOP_VERDICTS[config.early_stop]
    clipped_mark = 0.0

    def record(st: SolverState) -> None:
        nonlocal clipped_mark
        frame = _make_frame(st, p, resp, clipped_mark)
        clipped_mark = st.clipped_total
        traj.frames.append(frame)
        if monitors is not None:
            monitors.on_frame(frame, traj)

    verdict_stop = None
    target_idx = 0
    steps_since_frame = 0
    frames_since_classify = 0

    try:
        record(state)
        while state.t < config.t_max * (1.0 - 1e-14):
            while target_idx < len(targets) and targets[target_idx] <= state.t * (
                1.0 + _TIME_SNAP
            ):
                target_idx += 1
            target = targets[min(target_idx, len(targets) - 1)]
            state = step(state, p, resp, config, dt_cap=target - state.t)
            traj.n_steps += 1
            steps_since_frame += 1

            hit_target = abs(state.t - target) <= _TIME_SNAP * max(1.0, target)
            if hit_target:
                state = replace(state, t=target)
            # Every step is capped at target - t and the last target is t_max,
            # so the step that reaches t_max hits its target and is recorded.
            if hit_target or steps_since_frame >= config.frame_stride:
                record(state)
                steps_since_frame = 0
                frames_since_classify += 1
                if stop_verdicts and frames_since_classify >= _CLASSIFY_STRIDE:
                    frames_since_classify = 0
                    partial = analysis.classify(traj)
                    if partial.verdict in stop_verdicts:
                        verdict_stop = partial
                        break
    except Exception as exc:
        # Attach the surviving frames so callers can dump the last good state.
        exc.trajectory = traj
        raise
    classification = verdict_stop or analysis.classify(traj)
    traj.terminated_by = (
        f"classifier:{classification.verdict.value}" if verdict_stop is not None else "t_max"
    )
    return traj, classification
