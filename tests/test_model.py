import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epifront import (
    CertificateError,
    DomainError,
    InfectionResponse,
    InitialData,
    InvalidResponseError,
    ModelParams,
    basic_reproduction_number,
    critical_width,
    endemic_equilibrium,
    free_boundary_reproduction_number,
    principal_eigenvalue,
    small_data_vanishing_bound,
    spreading_subsolution_delta,
    validate_response,
)
from epifront.model import _largest_satisfying
from conftest import linear_response

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def params_with(a21=2.0, **kw) -> tuple[ModelParams, InfectionResponse]:
    base = dict(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=1.0)
    base.update(kw)
    return ModelParams(**base), InfectionResponse.monod(a21)


class TestParams:
    def test_rejects_nonpositive_fields(self):
        for name in ("d", "a11", "a12", "a22", "mu", "h0"):
            with pytest.raises(DomainError, match=name):
                params_with(**{name: 0.0})
            with pytest.raises(DomainError, match=name):
                params_with(**{name: -1.0})
        for a21 in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="a21"):
                params_with(a21)

    def test_sigma_nonnegative(self):
        with pytest.raises(DomainError):
            InitialData.cosine(-0.5)


class TestReproductionNumbers:
    @pytest.mark.parametrize("a21,expected", [(2.0, 2.0), (1.0, 1.0), (0.5, 0.5)])
    def test_r0_substitution(self, a21, expected):
        p, resp = params_with(a21)
        assert basic_reproduction_number(p, resp) == pytest.approx(expected)

    def test_r0f_at_width_pi(self):
        # d (pi/width)^2 = 1 at width = pi, so R0F = 2 / (1 + 1) = 1.
        p, resp = params_with(2.0)
        assert free_boundary_reproduction_number(p, resp, math.pi) == pytest.approx(1.0)

    def test_r0f_rejects_bad_width(self):
        p, resp = params_with()
        with pytest.raises(DomainError):
            free_boundary_reproduction_number(p, resp, 0.0)
        with pytest.raises(DomainError):
            principal_eigenvalue(p, resp, -1.0)

    @given(w1=positive, w2=positive)
    @settings(max_examples=200)
    def test_r0f_strictly_increasing_below_r0(self, w1, w2):
        p, resp = params_with(2.0)
        lo, hi = sorted((w1, w2))
        r_lo = free_boundary_reproduction_number(p, resp, lo)
        r_hi = free_boundary_reproduction_number(p, resp, hi)
        if lo < hi:
            assert r_lo < r_hi
        assert r_hi < basic_reproduction_number(p, resp)

    def test_r0f_approaches_r0(self):
        p, resp = params_with(2.0)
        assert free_boundary_reproduction_number(p, resp, 1e9) == pytest.approx(2.0, rel=1e-6)


class TestEigenvalue:
    @pytest.mark.parametrize(
        "width,expected",
        [(math.pi, 0.0), (math.pi / 2, 3.0), (2 * math.pi, -0.75)],
    )
    def test_closed_form(self, width, expected):
        p, resp = params_with(2.0)
        assert principal_eigenvalue(p, resp, width) == pytest.approx(expected, abs=1e-12)

    @given(width=positive, a21=st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=200)
    def test_sign_matches_one_minus_r0f(self, width, a21):
        p, resp = params_with(a21)
        lam = principal_eigenvalue(p, resp, width)
        gap = 1.0 - free_boundary_reproduction_number(p, resp, width)
        assert math.copysign(1.0, lam) == math.copysign(1.0, gap) or (lam == 0 and gap == 0)


class TestCriticalWidth:
    def test_closed_form(self):
        p, resp = params_with(2.0)
        assert critical_width(p, resp) == pytest.approx(math.pi, rel=1e-14)

    def test_absent_below_threshold(self):
        p, resp = params_with(0.5)
        assert critical_width(p, resp) is None
        p, resp = params_with(1.0)
        assert critical_width(p, resp) is None

    def test_width_at_another_level(self):
        # The width where the run loop records the step on which spreading fires.
        p, resp = params_with(2.0)
        level = 1.0 + 1e-6
        width = critical_width(p, resp, level)
        assert width > critical_width(p, resp)
        assert free_boundary_reproduction_number(p, resp, width) == pytest.approx(level, rel=1e-14)
        assert critical_width(p, resp, 2.0) is None  # R0 = 2 never exceeds it

    @given(a21=st.floats(min_value=1.01, max_value=100.0), d=positive)
    @settings(max_examples=200)
    def test_defining_identity(self, a21, d):
        p, resp = params_with(a21, d=d)
        h_star = critical_width(p, resp)
        assert free_boundary_reproduction_number(p, resp, h_star) == pytest.approx(
            1.0, rel=1e-12
        )


class TestEquilibrium:
    def test_monod_closed_form(self):
        # Steady state of the homogeneous system with Monod response:
        # a11 = (a12 a21 / a22) / (1 + u*), so u* = R0 - 1 and
        # v* = a21 u* / ((1 + u*) a22).
        p, resp = params_with(2.0)
        u, v = endemic_equilibrium(p, resp)
        assert u == pytest.approx(1.0, rel=1e-9)
        assert v == pytest.approx(1.0, rel=1e-9)

    def test_monod_a21_4(self):
        p, resp = params_with(4.0)
        u, v = endemic_equilibrium(p, resp)
        assert u == pytest.approx(3.0, rel=1e-9)
        assert v == pytest.approx(3.0, rel=1e-9)

    def test_absent_at_r0_one(self):
        p, resp = params_with(1.0)
        assert endemic_equilibrium(p, resp) is None

    @given(a21=st.floats(min_value=1.05, max_value=200.0))
    @settings(max_examples=100)
    def test_monod_matches_r0_minus_one(self, a21):
        p, resp = params_with(a21)
        u, v = endemic_equilibrium(p, resp)
        assert u == pytest.approx(a21 - 1.0, rel=1e-8)
        assert v == pytest.approx(resp(u), rel=1e-12)

    @pytest.mark.parametrize("a12", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("resp", [
        *(InfectionResponse.monod(a21) for a21 in (1.0000001, 1.5, 3.0, 10.0, 1e3)),
        InfectionResponse.table([0.0, 1.0, 3.0], [0.0, 0.5, 0.9]),
    ])
    def test_same_floats_as_general_bisection(self, resp, a12):
        p = ModelParams(d=1.0, a11=1.0, a12=a12, a22=1.0, mu=1.0, h0=1.0)
        assert endemic_equilibrium(p, resp) == general_bisection_equilibrium(p, resp)

    def test_root_below_first_bracket_end(self):
        # R0 = 5, yet the table puts u* near 5.4e-13, below the bracket's first end 1e-12.
        p, _ = params_with()
        resp = InfectionResponse.table([0.0, 1e-13, 1.0], [0.0, 5e-13, 0.1])
        u_star, v_star = endemic_equilibrium(p, resp)
        assert (u_star, v_star) == general_bisection_equilibrium(p, resp)
        slope = (0.1 - 5e-13) / (1.0 - 1e-13)  # G(u) = 5e-13 + slope (u - 1e-13) = u
        assert u_star == pytest.approx((5e-13 - slope * 1e-13) / (1.0 - slope), rel=1e-9)


    def test_excess_rate_never_negative_near_zero(self):
        # G'(0) = 5 gives R0 = 5, yet G itself is 0, so a11 - (a12/a22) G(u)/u
        # stays at 1 however far the lower bracket end is halved.
        p, _ = params_with()
        resp = InfectionResponse(g=lambda z: 0 * z, g_prime=lambda z: 5 + 0 * z)
        assert basic_reproduction_number(p, resp) == 5.0
        with pytest.raises(DomainError, match="not negative near 0 despite R0 > 1"):
            endemic_equilibrium(p, resp)

def general_bisection_equilibrium(p, resp):
    """(u*, v*) by a bisection that evaluates both bracket ends and keeps the
    half whose ends differ in sign, or None when R0 <= 1.  The bracket is
    endemic_equilibrium's own: the lower end starts at 1e-12 and is halved
    while the excess rate is not negative there, each halving moving the
    upper end (1 at first) onto the old lower end; the upper end is then
    doubled until the excess rate turns positive."""
    if basic_reproduction_number(p, resp) <= 1.0:
        return None

    def f(u):
        return p.a11 - (p.a12 / p.a22) * resp(u) / u

    lo, hi = 1e-12, 1.0
    while f(lo) >= 0:
        lo, hi = lo / 2.0, lo
    while f(hi) <= 0:
        hi *= 2.0
    flo, fhi = f(lo), f(hi)
    assert flo < 0 < fhi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-10 * max(abs(lo), abs(hi)):
            break
        fmid = f(mid)
        if fmid == 0.0:
            break
        if (fmid > 0) == (fhi > 0):
            hi = mid
        else:
            lo = mid
    else:
        mid = 0.5 * (lo + hi)
    return mid, float(resp(mid)) / p.a22


class TestValidateResponse:
    def test_monod_passes(self):
        p, resp = params_with(2.0)
        report = validate_response(p, resp)
        assert report.passed
        assert report.deriv_trend == "decreasing"

    def test_linear_fails_slope_cap(self):
        p, _ = params_with()
        report = validate_response(p, linear_response(2.0))
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"asymptotic_slope"}
        # G(u)/u never falls below the cap, so no positive equilibrium exists.
        with pytest.raises(CertificateError, match="no slope crossing"):
            endemic_equilibrium(p, linear_response(3.0))

    def test_linear_below_cap_passes(self):
        p, _ = params_with()
        assert validate_response(p, linear_response(0.5)).passed

    def test_nonfinite_response_rejected(self):
        p, _ = params_with()
        bad = InfectionResponse(
            lambda z: np.where(np.asarray(z) > 1.0, np.inf, np.asarray(z, dtype=float)),
            lambda z: np.ones_like(np.asarray(z, dtype=float)),
        )
        with pytest.raises(InvalidResponseError):
            validate_response(p, bad)


class TestSmallDataBound:
    def test_absent_at_marginal_habitat(self):
        # width 2 h0 = h_star means R0F(0) = 1 exactly: hypothesis fails.
        p, resp = params_with(2.0, h0=math.pi / 2)
        assert small_data_vanishing_bound(p, resp) is None

    def test_returns_positive_pair(self):
        p, resp = params_with(1.5)
        bound = small_data_vanishing_bound(p, resp)
        assert bound is not None
        assert 0 < bound.delta <= 1.0
        assert bound.eps > 0
        lam0 = principal_eigenvalue(p, resp, 2 * p.h0)
        assert lam0 == pytest.approx(1.0 + math.pi**2 / 4 - 1.5)
        # eps follows the eigenfunction-slope formula
        d = bound.delta
        assert bound.eps == pytest.approx(d * d * (1 + d) / math.pi, rel=1e-12)

    def test_delta_is_largest_admissible(self):
        p, resp = params_with(1.5)
        bound = small_data_vanishing_bound(p, resp)
        lam0 = principal_eigenvalue(p, resp, 2 * p.h0)
        drift = abs(-p.a11 + resp.deriv_at_zero * p.a12 / p.a22)

        def decay_margin(delta):
            s = 1.0 / (1.0 + delta) ** 2
            return -delta + (s - 1.0) * drift + (s - 0.25) * lam0

        def recovery_margin(delta):
            eps = delta**2 * (1 + delta) / math.pi
            base = (p.a22 - delta) * lam0 / (4 * p.a12) - resp.deriv_at_zero * delta / p.a22
            return min(base + resp.deriv_at_zero - resp.deriv(xi) for xi in (0.0, eps))

        assert decay_margin(bound.delta) >= 0
        assert recovery_margin(bound.delta) >= 0
        nudged = bound.delta * (1 + 1e-6)
        assert min(decay_margin(nudged), recovery_margin(nudged)) < 0

    def test_v_factor_positive(self):
        p, resp = params_with(1.5)
        bound = small_data_vanishing_bound(p, resp)
        assert bound.v_factor > 0

    def test_absent_when_inequalities_fail_near_zero(self):
        # R0F(0) < 1, but G' jumps from 2 at 0 to 20 just above it, so the
        # recovery inequality fails for every delta > 0.
        p, _ = params_with()
        resp = InfectionResponse(lambda z: 2 * z,
                                 lambda z: np.where(np.asarray(z) > 0, 20.0, 2.0))
        assert free_boundary_reproduction_number(p, resp, 2 * p.h0) < 1.0
        assert small_data_vanishing_bound(p, resp) is None


class TestSpreadingDelta:
    def test_absent_when_subcritical(self):
        p, resp = params_with(2.0, h0=1.0)  # R0F(0) < 1
        assert spreading_subsolution_delta(p, resp) is None

    def test_absent_at_marginal(self):
        p, resp = params_with(2.0, h0=math.pi / 2)  # lambda0 = 0 exactly
        assert spreading_subsolution_delta(p, resp) is None

    def test_monod_closed_form(self):
        # lambda0 = -0.5 at 2 h0 = pi sqrt(2); the admissibility condition
        # a21 (1 - (1+delta)^-2) = -a22 lambda0 / (4 a12) solves to
        # delta = (1 - rhs/a21)^-1/2 - 1.
        p, resp = params_with(2.0, h0=math.pi / math.sqrt(2))
        assert principal_eigenvalue(p, resp, 2 * p.h0) == pytest.approx(-0.5, abs=1e-12)
        bound = spreading_subsolution_delta(p, resp)
        closed = 1.0 / math.sqrt(1.0 - 0.125 / 2.0) - 1.0
        assert bound.delta == pytest.approx(closed, rel=1e-8)
        assert bound.v_factor > 0

    def test_absent_when_inequality_fails_near_zero(self):
        # R0F(0) > 1, but G' drops from 5 at 0 to 0.1 just above it, so
        # G'(0) - G'(delta) exceeds the slack for every delta > 0.
        p, _ = params_with()
        resp = InfectionResponse(lambda z: 5 * z / (1 + z),
                                 lambda z: np.where(np.asarray(z) > 0, 0.1, 5.0))
        assert free_boundary_reproduction_number(p, resp, 2 * p.h0) > 1.0
        assert spreading_subsolution_delta(p, resp) is None


class TestLargestSatisfying:
    def test_cap_interior_and_none(self):
        # The cap comes back when the predicate holds there, as the spreading
        # condition can for a non-concave G; otherwise the search bisects to
        # the edge of the admissible set, or gives None when none holds near 0.
        assert _largest_satisfying(lambda d: d <= 1.0, 0.25) == 0.25
        assert _largest_satisfying(lambda d: d <= 0.1, 0.25) == pytest.approx(0.1, rel=1e-9)
        assert _largest_satisfying(lambda d: d < 0.0, 0.25) is None


class TestDerivativeAtZero:
    def test_taken_from_g_prime(self):
        resp = InfectionResponse(lambda z: 3.0 * z, lambda z: 3.0 + 0.0 * np.asarray(z))
        assert resp.deriv_at_zero == 3.0
        assert InfectionResponse.monod(2.5).deriv_at_zero == 2.5
        table = InfectionResponse.table([0.0, 1.0, 3.0], [0.0, 0.5, 0.9])
        assert table.deriv_at_zero == 0.5  # the first sample slope


class TestInitialData:
    def test_cosine_shape_endpoints(self):
        init = InitialData.cosine(1.0)
        for h0 in (1.0, 2.5):
            assert abs(init.phi(h0, h0)) < 1e-12
            assert abs(init.phi(-h0, h0)) < 1e-12
            assert init.phi(0.0, h0) == pytest.approx(1.0)

    def test_factories_hold_no_habitat(self):
        # The shapes read h0 from the model they are sampled on, so two
        # cosine data with one sigma are equal and run on any habitat.
        assert InitialData.cosine(1.0) == InitialData.cosine(1.0)
        assert InitialData.cosine(1.0) != InitialData.cosine(2.0)
        init = InitialData.skewed_cosine(0.5, 0.3)
        x = np.linspace(-1.0, 1.0, 9)
        assert np.array_equal(init.u0(2.0 * x, 2.0), init.u0(x, 1.0))

    def test_skewed_positive_inside(self):
        init = InitialData.skewed_cosine(1.0, 0.5)
        x = np.linspace(-0.999, 0.999, 501)
        assert np.all(init.phi(x, 1.0) > 0)

    def test_skew_magnitude_capped(self):
        with pytest.raises(DomainError):
            InitialData.skewed_cosine(1.0, 1.5)


class TestTableResponse:
    def test_interpolates_samples(self):
        resp = InfectionResponse.table([0.0, 1.0, 2.0, 4.0], [0.0, 0.5, 0.8, 1.0])
        assert resp(1.0) == pytest.approx(0.5)
        assert resp(3.0) == pytest.approx(0.9)
        assert resp.deriv_at_zero == pytest.approx(0.5)
        assert validate_response(params_with()[0], resp).passed

    @pytest.mark.parametrize("z, g, message", [
        ([0.0, 1.0], [0.0, 1.0], "need >= 3"),
        ([0.0, 1.0, 2.0], [0.0, 1.0], "need >= 3"),
        ([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], "start at"),
        ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], "strictly increasing"),
        ([0.0, 1.0, np.inf], [0.0, 1.0, 2.0], "finite and >= 0"),
        ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0], "finite and >= 0"),
        ([0.0, 1.0, 2.0], [0.0, -1.0, 1.0], "finite and >= 0"),
    ])
    def test_rejects_bad_samples(self, z, g, message):
        with pytest.raises(DomainError, match=message):
            InfectionResponse.table(z, g)
