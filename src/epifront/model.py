"""Parameters, infection response, and closed-form threshold quantities.

Everything here is a pure function of its inputs: reproduction numbers,
the principal Dirichlet eigenvalue on an interval habitat, the critical
habitat width, the endemic equilibrium, and the two comparison-function
certificates (a smallness bound that forces extinction and a subsolution
amplitude that forces invasion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import CertificateError, DomainError, InvalidResponseError

# Bracketed bisection settings used by every scalar search in this module.
ROOT_REL_TOL = 1e-10
ROOT_MAX_ITER = 200

# Probe for the asymptotic-slope test: the limit in (A2) is uncheckable
# exactly, so the slope is sampled at this multiple of the unit scale.
SLOPE_PROBE_SCALE = 1e6
# The points at which validate_response checks (A1)/(A2): log-spaced from
# 1e-6 to the slope probe scale.
PROBE_GRID = np.logspace(-6.0, math.log10(SLOPE_PROBE_SCALE), 121)
PROBE_GRID.setflags(write=False)


@dataclass(frozen=True)
class ModelParams:
    """Rate constants and geometry of the two-front invasion problem.

    d      bacterial diffusion rate            (length^2 / time)
    a11    bacterial decay rate                (1 / time)
    a12    infective-to-bacteria factor        (bacteria / (infective * time))
    a22    infective recovery rate             (1 / time)
    mu     front response coefficient          (length^2 / (bacteria * time))
    h0     initial habitat half-width          (length)
    """

    d: float
    a11: float
    a12: float
    a22: float
    mu: float
    h0: float

    def __post_init__(self) -> None:
        for name in ("d", "a11", "a12", "a22", "mu", "h0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and > 0 (got {value!r})", field=name)
        # (pi / width)^2 enters every eigenvalue, and a run's width is never below 2 h0.
        if not math.isfinite((math.pi / (2.0 * self.h0)) * (math.pi / (2.0 * self.h0))):
            raise DomainError(f"h0 must be at least about 1.17e-154, so that (pi / (2 h0))^2 "
                              f"is finite (got {self.h0!r})", field="h0")

    def with_(self, **changes: float) -> "ModelParams":
        return replace(self, **changes)


class InfectionResponse:
    """The infection rate G with its derivative.

    Instances are callable: ``resp(z)`` evaluates G(z) for scalars or
    numpy arrays.  ``resp.deriv(z)`` evaluates G'(z) and
    ``resp.deriv_at_zero`` holds G'(0) = ``g_prime(0.0)``, which enters
    every reproduction number.  Use :func:`validate_response` to check
    (A1)/(A2).
    """

    def __init__(self, g: Callable, g_prime: Callable):
        self._g = g
        self._g_prime = g_prime
        self.deriv_at_zero = float(g_prime(0.0))

    def __call__(self, z):
        return self._g(z)

    def deriv(self, z):
        return self._g_prime(z)

    @classmethod
    def monod(cls, a21: float) -> "InfectionResponse":
        """Saturating response G(z) = a21 z / (1 + z)."""
        if not (math.isfinite(a21) and a21 > 0):
            raise DomainError(f"a21 must be finite and > 0 (got {a21!r})", field="a21")

        def slope(z):
            try:
                return a21 / (1.0 + z) ** 2
            except OverflowError:  # a float (1 + z)^2 past the float range
                return 0.0  # the slope's limit as z grows

        return cls(g=lambda z: a21 * z / (1.0 + z), g_prime=slope)

    @classmethod
    def table(cls, z: Sequence[float], g: Sequence[float]) -> "InfectionResponse":
        """Piecewise-linear response through the samples (z_i, G(z_i)).

        Needs at least 3 finite, nonnegative samples starting at (0, 0)
        with z strictly increasing; G' is the finite-difference slope of
        the samples.
        """
        z_arr = np.asarray(z, dtype=float)
        g_arr = np.asarray(g, dtype=float)
        if z_arr.shape != g_arr.shape or z_arr.size < 3:
            raise DomainError("need >= 3 matching z/g samples",
                              field="z" if z_arr.size < 3 else "g")
        for name, arr in (("z", z_arr), ("g", g_arr)):
            if not (np.all(np.isfinite(arr)) and np.all(arr >= 0)):
                raise DomainError("samples must be finite and >= 0", field=name)
            if arr[0] != 0.0:
                raise DomainError("table must start at (0, 0)", field=name)
        if np.any(np.diff(z_arr) <= 0):
            raise DomainError("z samples must be strictly increasing", field="z")
        slopes = np.gradient(g_arr, z_arr)
        return cls(
            g=lambda x: np.interp(x, z_arr, g_arr),
            g_prime=lambda x: np.interp(x, z_arr, slopes),
        )


@dataclass(frozen=True)
class InitialData:
    """Initial data (u0, v0) = (sigma * phi, sigma * psi) on [-h0, h0].

    The shapes ``phi(x, h0)`` and ``psi(x, h0)`` read the half-width of the
    habitat they are sampled on, so one object runs on any model.  They
    must vanish at x = +/-h0 and be nonnegative inside; independent
    amplitudes are expressed by scaling psi itself.
    """

    sigma: float
    phi: Callable
    psi: Callable

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise DomainError(f"sigma must be finite and >= 0 (got {self.sigma!r})", field="sigma")

    def u0(self, x, h0: float):
        return self.sigma * self.phi(x, h0)

    def v0(self, x, h0: float):
        return self.sigma * self.psi(x, h0)

    def with_sigma(self, sigma: float) -> "InitialData":
        return replace(self, sigma=sigma)

    @staticmethod
    def cosine(sigma: float) -> "InitialData":
        """The default hump cos(pi x / (2 h0)) for both components."""
        return InitialData(sigma=sigma, phi=_cosine, psi=_cosine)

    @staticmethod
    def skewed_cosine(sigma: float, skew: float) -> "InitialData":
        """Asymmetric hump cos(pi x/(2 h0)) * (1 + skew * sin(pi x/h0))."""
        if not abs(skew) < 1.0:
            raise DomainError(f"skew magnitude must be < 1 (got {skew!r})", field="skew")

        def skewed(x, h0):
            return _cosine(x, h0) * (1.0 + skew * np.sin(np.pi * x / h0))

        return InitialData(sigma=sigma, phi=skewed, psi=skewed)


def _cosine(x, h0: float):
    return np.cos(np.pi * x / (2.0 * h0))


# ---------------------------------------------------------------------------
# Response validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ResponseReport:
    checks: tuple[CheckResult, ...]
    deriv_trend: str  # "decreasing" | "increasing" | "mixed"

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_response(p: ModelParams, resp: InfectionResponse) -> ResponseReport:
    """Check (A1)/(A2) on :data:`PROBE_GRID` and report each condition.

    Checks: G(0) = 0; G' > 0 at every probe; z -> G(z)/z non-increasing;
    and the sampled asymptotic slope below a11 a22 / a12.  The trend of
    G' across the grid is recorded because both comparison certificates
    reduce the pointwise condition on G'(xi) to interval endpoints,
    which is only rigorous for monotone G': a "mixed" trend makes them
    heuristic.
    """
    probes = PROBE_GRID
    g0 = float(resp(0.0))
    values = np.asarray(resp(probes), dtype=float)
    derivs = np.asarray(resp.deriv(probes), dtype=float)
    if not (math.isfinite(g0) and np.all(np.isfinite(values)) and np.all(np.isfinite(derivs))):
        raise InvalidResponseError("G or G' is non-finite on the probe grid")

    checks: list[CheckResult] = []

    tol0 = 1e-12 * max(1.0, abs(resp.deriv_at_zero))
    checks.append(CheckResult("zero_at_origin", abs(g0) <= tol0, f"G(0) = {g0!r}"))

    pos = derivs > 0
    if not pos.all():
        bad = f"G'({float(probes[np.argmin(pos)])!r}) <= 0"
    elif not resp.deriv_at_zero > 0:
        bad = f"G'(0) = {resp.deriv_at_zero!r} <= 0"
    else:
        bad = None
    checks.append(CheckResult("derivative_positive", bad is None, bad or "G' > 0 at all probes"))

    ratios = values / probes
    slack = 1e-12 * np.maximum(np.abs(ratios[:-1]), 1e-300)
    rising = ratios[1:] > ratios[:-1] + slack
    wit = float(probes[1:][rising][0]) if rising.any() else None
    checks.append(
        CheckResult(
            "ratio_nonincreasing",
            wit is None,
            "G(z)/z non-increasing" if wit is None else f"G(z)/z increases at z={wit!r}",
        )
    )

    slope_cap = p.a11 * p.a22 / p.a12
    tail = float(ratios[-1])
    checks.append(
        CheckResult(
            "asymptotic_slope",
            tail < slope_cap,
            f"G(z)/z = {tail:.6g} at z = {probes[-1]:.3g} vs cap {slope_cap:.6g}",
        )
    )

    dslack = 1e-12 * np.maximum(np.abs(derivs[:-1]), 1e-300)
    nonrising = bool(np.all(derivs[1:] <= derivs[:-1] + dslack))
    nonfalling = bool(np.all(derivs[1:] >= derivs[:-1] - dslack))
    trend = "decreasing" if nonrising else ("increasing" if nonfalling else "mixed")

    return ResponseReport(checks=tuple(checks), deriv_trend=trend)


# ---------------------------------------------------------------------------
# Reproduction numbers and eigen-quantities
# ---------------------------------------------------------------------------

def basic_reproduction_number(p: ModelParams, resp: InfectionResponse) -> float:
    """R0 = G'(0) a12 / (a11 a22), the nonspatial threshold."""
    return resp.deriv_at_zero * p.a12 / (p.a11 * p.a22)


def free_boundary_reproduction_number(
    p: ModelParams, resp: InfectionResponse, width: float
) -> float:
    """Habitat-dependent reproduction number on an interval of the given width.

    Strictly increasing in the width, with supremum R0.
    """
    if not width > 0:
        raise DomainError(f"width must be > 0 (got {width!r})")
    return (resp.deriv_at_zero * p.a12 / p.a22) / (p.a11 + p.d * (math.pi / width) ** 2)


def principal_eigenvalue(p: ModelParams, resp: InfectionResponse, width: float) -> float:
    """Principal Dirichlet eigenvalue of the linearized operator on the habitat.

    Equals a11 + d (pi/width)^2 - G'(0) a12 / a22 and has the same sign
    as 1 - R0F(width).
    """
    if not width > 0:
        raise DomainError(f"width must be > 0 (got {width!r})")
    return p.a11 + p.d * (math.pi / width) ** 2 - resp.deriv_at_zero * p.a12 / p.a22


def critical_width(
    p: ModelParams, resp: InfectionResponse, r0f: float = 1.0
) -> float | None:
    """The unique width with R0F = r0f, or None when R0 <= r0f."""
    gain = resp.deriv_at_zero * p.a12 / p.a22 / r0f - p.a11
    if gain <= 0:
        return None
    return math.pi * math.sqrt(p.d / gain)


def endemic_equilibrium(
    p: ModelParams, resp: InfectionResponse
) -> tuple[float, float] | None:
    """Positive steady state (u*, v*) of the nonspatial system, or None if R0 <= 1.

    u* is the unique positive solution of a11 u = (a12/a22) G(u), located
    by bracketed bisection on the monotone excess rate
    a11 - (a12/a22) G(u)/u; then v* = G(u*)/a22.
    """
    if basic_reproduction_number(p, resp) <= 1.0:
        return None

    def excess(u: float) -> float:
        return p.a11 - (p.a12 / p.a22) * resp(u) / u

    lo, hi = 1e-12, 1.0
    while excess(lo) >= 0:  # R0 > 1 makes excess(0+) < 0, but a table may cross below 1e-12
        if lo < 1e-300:
            raise DomainError("excess rate not negative near 0 despite R0 > 1")
        lo, hi = lo / 2.0, lo
    for _ in range(200):
        if excess(hi) > 0:
            break
        hi *= 2.0
    else:
        raise CertificateError("no slope crossing found; (A2) limit appears violated")
    # Bisection on excess(lo) < 0 < excess(hi) to ROOT_REL_TOL takes about 75 halvings
    # from [1e-12, hi] (u* >= hi/2 or hi = 1) and 33 from [hi/2, hi]: inside ROOT_MAX_ITER.
    for _ in range(ROOT_MAX_ITER):
        u_star = 0.5 * (lo + hi)
        if hi - lo <= ROOT_REL_TOL * hi:
            break
        fmid = excess(u_star)
        if fmid == 0.0:
            break
        if fmid > 0:
            hi = u_star
        else:
            lo = u_star
    return u_star, float(resp(u_star)) / p.a22


# ---------------------------------------------------------------------------
# Comparison-function certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallDataBound:
    """Certified smallness region that forces extinction when R0F(0) < 1.

    Initial data lying below eps * psi pointwise (and below
    v_factor * eps * psi in the second component), with
    psi(x) = cos(pi x / (2 h0)), must vanish.  Rigorous only for a
    monotone G' (see :func:`small_data_vanishing_bound`).
    """

    delta: float
    eps: float
    v_factor: float


@dataclass(frozen=True)
class SpreadingBound:
    """Certified subsolution amplitude that forces invasion when R0F(0) > 1.

    Initial data dominating (delta * psi, v_factor * delta * psi) with
    psi(x) = cos(pi x / (2 h0)) must spread.  Rigorous only for a
    monotone G' (see :func:`spreading_subsolution_delta`).
    """

    delta: float
    v_factor: float


def small_data_vanishing_bound(p: ModelParams, resp: InfectionResponse) -> SmallDataBound | None:
    """Compute the extinction certificate (delta, eps), or None if R0F(0) >= 1
    or the comparison inequalities fail arbitrarily close to delta = 0.

    delta is the largest value in (0, 1] satisfying both scalar
    comparison inequalities, found by predicate bisection; eps follows
    as delta^2 h0^2 (1 + delta) / (mu pi) from the eigenfunction slope
    psi'(h0) = -pi/(2 h0).  The condition on G'(xi) over [0, eps] is
    checked at the two endpoints, which is rigorous only for a monotone
    G': the caller checks ``validate_response(p, resp).deriv_trend``
    and treats a "mixed" trend as heuristic.
    """
    width0 = 2.0 * p.h0
    if free_boundary_reproduction_number(p, resp, width0) >= 1.0:
        return None
    lam0 = principal_eigenvalue(p, resp, width0)
    drift = abs(-p.a11 + resp.deriv_at_zero * p.a12 / p.a22)
    g_prime0 = resp.deriv_at_zero

    def eps_of(delta: float) -> float:
        return delta * delta * p.h0 * p.h0 * (1.0 + delta) / (p.mu * math.pi)

    def decay_ok(delta: float) -> bool:
        shrink = 1.0 / (1.0 + delta) ** 2
        return -delta + (shrink - 1.0) * drift + (shrink - 0.25) * lam0 >= 0.0

    def recovery_ok(delta: float) -> bool:
        base = (p.a22 - delta) * lam0 / (4.0 * p.a12) - g_prime0 * delta / p.a22
        # G'(0) - G'(xi) is extremal at an interval endpoint for monotone G'.
        for xi in (0.0, eps_of(delta)):
            if base + (g_prime0 - float(resp.deriv(xi))) < 0.0:
                return False
        return True

    def admissible(delta: float) -> bool:
        return decay_ok(delta) and recovery_ok(delta)

    delta = _largest_satisfying(admissible, 1.0)
    if delta is None:
        return None
    v_factor = g_prime0 / p.a22 + lam0 / (4.0 * p.a12)
    return SmallDataBound(delta=delta, eps=eps_of(delta), v_factor=v_factor)


def spreading_subsolution_delta(p: ModelParams, resp: InfectionResponse) -> SpreadingBound | None:
    """Compute the invasion certificate delta, or None unless R0F(0) > 1 and
    the comparison inequality holds arbitrarily close to delta = 0.

    Requires the strict case (negative eigenvalue); the marginal case
    R0F(0) = 1 spreads by waiting and carries no pointwise certificate.
    delta is the largest value with G'(0) - G'(delta) <= -a22 lambda0/(4 a12),
    capped at u* so the subsolution stays below (u*, v*).  As for the
    extinction certificate, the condition is checked at delta only, which
    is rigorous only for a monotone G'.
    """
    lam0 = principal_eigenvalue(p, resp, 2.0 * p.h0)
    if lam0 >= 0.0:
        return None
    equilibrium = endemic_equilibrium(p, resp)
    assert equilibrium is not None  # lam0 < 0 implies R0F(0) > 1 < R0
    slack = -p.a22 * lam0 / (4.0 * p.a12)
    g_prime0 = resp.deriv_at_zero

    def admissible(delta: float) -> bool:
        return g_prime0 - float(resp.deriv(delta)) <= slack

    delta = _largest_satisfying(admissible, equilibrium[0])
    if delta is None:
        return None
    v_factor = g_prime0 / p.a22 + lam0 / (4.0 * p.a12)
    return SpreadingBound(delta=delta, v_factor=v_factor)


# ---------------------------------------------------------------------------
# Scalar searches
# ---------------------------------------------------------------------------

def _largest_satisfying(pred: Callable[[float], bool], cap: float) -> float | None:
    """Largest delta in (0, cap] with pred true, for pred true near 0.

    Returns cap when the predicate holds there; None when it fails even
    arbitrarily close to 0 (certificate hypothesis violated).
    """
    if pred(cap):
        return cap
    lo, hi = 0.0, cap
    if not pred(lo):
        return None
    for _ in range(ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= ROOT_REL_TOL * max(abs(hi), 1e-300):
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo if lo > 0.0 else None
