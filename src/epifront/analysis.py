"""Trajectory diagnostics: verdict classification, a-priori bound
certificates, conservation residuals, and runtime invariant monitors.

Everything operates on recorded trajectories (or single frames) and is
pure; nothing here touches the integrator.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import CertificateError, DomainError, MonitorViolation
from .model import InfectionResponse, InitialData, ModelParams, endemic_equilibrium

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Frame, Trajectory


class Verdict(str, Enum):
    SPREADING = "spreading"
    VANISHING = "vanishing"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Evidence:
    """What fired the verdict: the criterion, its time (for spreading, the
    located crossing of R0F = 1 + margin), the R0F of the frame it fired
    on, and the criterion's own figures.  The run's final state
    is the trajectory's last frame, so it is not copied here."""

    criterion: str
    time: float
    r0f: float
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    evidence: Evidence


# The verdict rules' tolerances.  The margin keeps a frame whose R0F is 1
# up to rounding from firing the spreading theorem; the vanishing fallback
# asks that the sup norms decayed to a tiny fraction of their initial sum
# and that the width stalled over the trailing fraction of frames.
_R0F_MARGIN = 1e-6
_VANISH_RATIO = 1e-6
_PLATEAU_RATIO = 1e-6  # width growth cap, times h0
_TRAILING_FRACTION = 0.1
SPREADING_R0F = 1.0 + _R0F_MARGIN  # the R0F at which the spreading theorem fires


def classify(traj: "Trajectory") -> Classification:
    """Spreading / vanishing / undetermined with the evidence that fired.

    Spreading: some frame has R0F >= 1 + margin, which by the theorem
    (R0F(t0) >= 1 for some t0 implies spreading) decides the run; the
    first such frame is the evidence, and its time is where R0F,
    interpolated linearly between that frame and the one before it,
    reaches 1 + margin.  Vanishing: sup norms decayed below
    a tiny fraction of their initial sum while the width stalled.
    Otherwise undetermined at the horizon.  The plateau test scales with
    the run's own h0, read from ``traj.params``.

    Precondition: the frames of one run, in time order.  Its fronts only
    move outward (h' >= 0 >= g'), so width and R0F never decrease: the last
    frame decides spreading, and bisection finds the first past the margin.
    """
    frames = traj.frames
    if not frames:
        raise DomainError("cannot classify an empty trajectory")
    last = frames[-1]

    if last.r0f >= SPREADING_R0F:
        k = bisect_left(frames, SPREADING_R0F, key=lambda f: f.r0f)
        first = frames[k]
        time = first.t
        if k > 0:  # the frame before lies below the level, so the slope is positive
            prev = frames[k - 1]
            rise = (SPREADING_R0F - prev.r0f) / (first.r0f - prev.r0f)
            time = prev.t + (first.t - prev.t) * rise
        return Classification(
            Verdict.SPREADING,
            Evidence("r0f_threshold", time, first.r0f, {"margin": _R0F_MARGIN}),
        )

    initial_sup = frames[0].sup_w + frames[0].sup_z
    tail_start = int(math.floor((len(frames) - 1) * (1.0 - _TRAILING_FRACTION)))
    growth = last.width - frames[tail_start].width
    # Infinite initial data has no fraction to decay below (inf <= inf).
    decayed = (math.isfinite(initial_sup)
               and last.sup_w + last.sup_z <= _VANISH_RATIO * initial_sup)
    stalled = growth < _PLATEAU_RATIO * traj.params.h0
    if decayed and stalled:
        return Classification(
            Verdict.VANISHING,
            Evidence("decay_plateau", last.t, last.r0f, {
                "trailing_width_growth": growth,
                "sup_ratio": (last.sup_w + last.sup_z) / initial_sup if initial_sup else 0.0,
            }),
        )

    return Classification(
        Verdict.UNDETERMINED,
        Evidence("horizon", last.t, last.r0f, {"trailing_width_growth": growth}),
    )


# ---------------------------------------------------------------------------
# A-priori bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCertificate:
    """Constants (C1, C2) bounding the fields and C3 bounding front speeds.

    Validity: -a11 C1 + a12 C2 < 0, -a22 C2 + G(C1) < 0, and the pair
    dominates the initial data; C3 = 2 M C1 mu.
    """

    c1: float
    c2: float
    c3: float
    m: float


_CERT_MAX_DOUBLINGS = 60
_CERT_SAMPLES = 2049  # points of [-h0, h0] where the initial data is sampled


def bound_certificate(
    p: ModelParams, resp: InfectionResponse, init: InitialData
) -> BoundCertificate:
    """Search outward for a valid (C1, C2) pair by doubling C1.

    Failure to find one within the doubling budget signals that the
    response violates the (A2) slope cap.
    """
    x = np.linspace(-p.h0, p.h0, _CERT_SAMPLES)
    u0 = np.asarray(init.u0(x, p.h0), dtype=float)
    v0 = np.asarray(init.v0(x, p.h0), dtype=float)
    sup_u0 = float(np.max(u0, initial=0.0))
    sup_v0 = float(np.max(v0, initial=0.0))
    sup_du0 = float(np.max(np.abs(np.gradient(u0, x))))

    c1 = max(sup_u0, 1.0)
    for _ in range(_CERT_MAX_DOUBLINGS):
        lo = max(float(resp(c1)) / p.a22, sup_v0)
        hi = p.a11 * c1 / p.a12
        if lo < hi:
            c2 = 0.5 * (lo + hi)
            if -p.a11 * c1 + p.a12 * c2 < 0.0 and -p.a22 * c2 + float(resp(c1)) < 0.0:
                m = max(
                    1.0 / p.h0,
                    math.sqrt(p.a12 * c2 / (2.0 * p.d * c1)),
                    4.0 * (sup_u0 + sup_du0) / (3.0 * c1),
                )
                return BoundCertificate(c1=c1, c2=c2, c3=2.0 * m * c1 * p.mu, m=m)
        c1 *= 2.0
    raise CertificateError(
        "no valid bound pair within the doubling budget; the response "
        "appears to violate the asymptotic slope cap"
    )


# ---------------------------------------------------------------------------
# Conservation and convergence diagnostics
# ---------------------------------------------------------------------------

def mass_balance_residual(traj: "Trajectory") -> np.ndarray:
    """Per-frame residual of the integrated balance law of the run's model.

    The exact identity relates the weighted mass, the habitat growth
    scaled by d/mu (read from ``traj.params``), and the time-integrated
    reaction; the discrete residual uses trapezoid quadrature in x (already
    folded into the recorded mass and reaction columns) and cumulative
    trapezoid in t.
    A one-frame trajectory gives ``[0.0]``; an empty one raises DomainError.
    """
    if not traj.frames:
        raise DomainError("cannot balance an empty trajectory")
    p = traj.params
    t = traj.column("t")
    mass = traj.column("mass")
    widths = traj.column("width")
    reaction = traj.column("reaction")
    slices = np.diff(t) * (reaction[1:] + reaction[:-1]) / 2.0
    cumulative = np.concatenate(([0.0], np.cumsum(slices)))
    return mass - mass[0] - (p.d / p.mu) * (widths[0] - widths) - cumulative


def equilibrium_convergence(traj: "Trajectory", half_width: float) -> np.ndarray:
    """Sup of |u - u*| + |v - v*| over the window [-half_width, half_width] per frame.

    (u*, v*) is the endemic equilibrium of the run's own model
    (``traj.params``, ``traj.resp``).  Points of the window not yet covered
    by the habitat contribute the full equilibrium distance u* + v*.
    """
    equilibrium = endemic_equilibrium(traj.params, traj.resp)
    if equilibrium is None:
        raise DomainError("no endemic equilibrium: R0 <= 1")
    u_star, v_star = equilibrium
    errs = np.empty(len(traj.frames))
    for k, f in enumerate(traj.frames):
        x = traj.x_grid(f)
        inside = (x >= -half_width) & (x <= half_width)
        err = 0.0
        if inside.any():
            err = float(np.max(np.abs(f.w[inside] - u_star) + np.abs(f.z[inside] - v_star)))
        if f.g > -half_width or f.h < half_width:
            err = max(err, u_star + v_star)
        errs[k] = err
    return errs


# ---------------------------------------------------------------------------
# Runtime monitors
# ---------------------------------------------------------------------------

_BOUND_SLACK = 1e-8  # absolute slack on sup u <= C1 and sup v <= C2
_SPEED_MARGIN = 1.1  # front speeds may exceed C3 by this factor
_CLIP_RATIO = 1e-8  # clipped mass allowed per frame, relative to the mass


@dataclass
class Monitors:
    """Per-frame hard checks on the analytic invariants.

    ``certificate`` feeds the field-bound and speed checks; the symmetry
    check needs only the frame.  A violation raises
    :class:`MonitorViolation`, aborting the run with a diagnostic.
    """

    certificate: BoundCertificate
    bounds: bool = True
    symmetry: bool = True
    speed: bool = True

    def on_frame(self, frame: "Frame", traj: "Trajectory") -> None:
        if self.bounds:
            if frame.sup_w > self.certificate.c1 + _BOUND_SLACK:
                raise MonitorViolation(
                    "bounds", frame.t, f"sup u = {frame.sup_w!r} > C1 = {self.certificate.c1!r}"
                )
            if frame.sup_z > self.certificate.c2 + _BOUND_SLACK:
                raise MonitorViolation(
                    "bounds", frame.t, f"sup v = {frame.sup_z!r} > C2 = {self.certificate.c2!r}"
                )
            mass_scale = frame.mass + 1e-9 * traj.frames[0].mass + 1e-300
            if frame.clipped > _CLIP_RATIO * mass_scale:
                raise MonitorViolation(
                    "bounds", frame.t, f"clipped mass {frame.clipped!r} vs mass {frame.mass!r}"
                )
        if self.symmetry:
            excess = abs(frame.g + frame.h) - 2.0 * traj.params.h0
            if excess >= 0.0:
                raise MonitorViolation(
                    "symmetry", frame.t, f"|g + h| = {abs(frame.g + frame.h)!r} >= 2 h0"
                )
        if self.speed:
            cap = self.certificate.c3 * _SPEED_MARGIN
            if frame.h_speed > cap or -frame.g_speed > cap:
                raise MonitorViolation(
                    "speed",
                    frame.t,
                    f"front speeds ({frame.g_speed!r}, {frame.h_speed!r}) exceed C3 = "
                    f"{self.certificate.c3!r}",
                )
