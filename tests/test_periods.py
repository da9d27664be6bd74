"""Span quadratures against closed forms, frozen high-precision values, and
the ODE integrator as an independent oracle."""

import math

import numpy as np
import pytest

from homoeuler import (
    DomainError,
    FlowParams,
    InconsistentParams,
    NoSolution,
    PhaseState,
    QuadratureFailure,
    SteadyStateError,
    conjugate,
    steady_state,
)
from homoeuler.orbits import (
    ReturnToAxis,
    ReturnToStart,
    find_intercepts,
    integrate_orbit,
)
from homoeuler.periods import (
    SpanMethod,
    chicone_W,
    limit_values,
    period_elliptic,
    span_any,
    span_hyperbolic,
    span_quadrature,
)

# values computed independently with 40-digit arithmetic (mpmath), frozen
FROZEN = {
    (3.0, "pm_half", 1.0): 2.626870927846974418754777671261,
    (1.5, "pm_03", 1.0): 3.405503219136325637447474442770,
    (3.0, -0.7, 1.0): 1.135223117905130974993915563014,
    (3.0, -0.7, -1.0): 0.967975026054289330054451295073,
    (2.5, -2.0, 1.0): 1.345649669861330967478026601046,
    (3.0, 0.0004, 2.5): 2.853769616899805686979602910478,
}


def lam2_hyperbolic_exact(P, B):
    """Closed form at lam = 2 and B = +-1: the radicand is a quadratic in x."""
    a = math.asin(1.0 / math.sqrt(1.0 - 32.0 * P))
    return math.pi / 2 + math.copysign(a, B)


class TestSpanHyperbolic:
    def test_zero_B_closed_form(self):
        r = span_hyperbolic(2.0, -1.0, 0.0)
        assert r.T == math.pi / 2
        assert r.method is SpanMethod.ClosedForm
        assert r.est_error == 0.0

    @pytest.mark.parametrize("P", [-1e-4, -0.1, -1.0, -50.0, -1e4])
    def test_lam2_plus_matches_quadratic_closed_form(self, P):
        r = span_hyperbolic(2.0, P, 1.0)
        assert r.T == pytest.approx(lam2_hyperbolic_exact(P, 1.0),
                                    abs=1e-10)
        assert r.est_error <= 1e-9

    @pytest.mark.parametrize("P", [-1e-4, -0.1, -1.0, -50.0])
    def test_lam2_minus_matches_quadratic_closed_form(self, P):
        r = span_hyperbolic(2.0, P, -1.0)
        assert r.T == pytest.approx(lam2_hyperbolic_exact(P, -1.0),
                                    abs=1e-10)

    def test_frozen_values_lam3(self):
        assert span_hyperbolic(3.0, -0.7, 1.0).T == pytest.approx(
            FROZEN[(3.0, -0.7, 1.0)], abs=1e-10)
        assert span_hyperbolic(3.0, -0.7, -1.0).T == pytest.approx(
            FROZEN[(3.0, -0.7, -1.0)], abs=1e-10)

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            span_hyperbolic(0.9, -1.0, 1.0)
        with pytest.raises(DomainError):
            span_hyperbolic(2.0, 0.5, 1.0)

    @pytest.mark.parametrize("lam,P", [(2.0, -1.0), (3.0, -0.7), (5.0, -1e3)])
    @pytest.mark.parametrize("B", [1.0, -1.0])
    def test_bit_equal_to_span_quadrature(self, lam, P, B):
        assert span_hyperbolic(lam, P, B) == span_quadrature(lam, P, B)

    def test_brackets_limit_values(self):
        lv = limit_values(3.0)
        for P in (-1e-3, -1.0, -1e3):
            T = span_hyperbolic(3.0, P, 1.0).T
            assert lv.T_infinity < T < lv.T_separatrix
            Tm = span_hyperbolic(3.0, P, -1.0).T
            assert 0.0 < Tm < lv.T_infinity


class TestPeriodElliptic:
    def test_lam2_flat(self):
        for P in np.linspace(1e-4, 1 / 32 - 1e-4, 10):
            r = period_elliptic(2.0, float(P))
            assert abs(r.T - math.pi) <= 1e-8

    def test_frozen_value_lam3(self):
        pm = steady_state(3.0, 1.0).P_max
        r = period_elliptic(3.0, pm / 2)
        assert r.T == pytest.approx(FROZEN[(3.0, "pm_half", 1.0)], abs=1e-10)

    def test_frozen_value_lam15(self):
        pm = steady_state(1.5, 1.0).P_max
        r = period_elliptic(1.5, 0.3 * pm)
        assert r.T == pytest.approx(FROZEN[(1.5, "pm_03", 1.0)], abs=1e-10)

    @pytest.mark.parametrize("lam", [3.0, 5.0, 8.0])
    def test_center_limit(self, lam):
        pm = steady_state(lam, 1.0).P_max
        r = period_elliptic(lam, pm * (1 - 1e-6))
        assert abs(r.T - 2 * math.pi / math.sqrt(2 * lam)) <= 1e-3

    def test_separatrix_approach_rate(self):
        # pi - T ~ C (P/P_max)^(1/(2 lam - 2)); frozen 40-digit references
        pm = steady_state(2.5, 1.0).P_max
        r = period_elliptic(2.5, pm * 1e-8)
        assert math.pi - r.T == pytest.approx(1.060348e-3, rel=1e-5)
        pm = steady_state(5.0, 1.0).P_max
        r = period_elliptic(5.0, pm * 1e-8)
        assert math.pi - r.T == pytest.approx(0.119266135838588, rel=1e-9)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            period_elliptic(2.0, 0.05)
        with pytest.raises(DomainError):
            period_elliptic(2.0, -0.01)

    def test_est_error_bound(self):
        pm = steady_state(3.0, 1.0).P_max
        assert period_elliptic(3.0, pm / 3).est_error <= 1e-9


class TestSpanAny:
    def test_shear_lam_one(self):
        r = span_any(FlowParams(1.0, 0.3, 2.0))
        assert (r.T, r.method) == (math.pi, SpanMethod.ClosedForm)

    def test_conjugate_anchor(self):
        r = span_any(FlowParams(0.5, -0.25, -3 / 16))
        assert r.method is SpanMethod.Conjugacy
        assert r.T == pytest.approx(2 * math.pi, abs=1e-7)

    def test_low_lam_hyperbolic_bracket(self):
        r = span_any(FlowParams(2 / 3, 1.0, 2.0))
        assert 0.0 < r.T < math.pi

    def test_non_unit_B_elliptic(self):
        r = span_any(FlowParams(3.0, 0.0004, 2.5))
        assert r.T == pytest.approx(FROZEN[(3.0, 0.0004, 2.5)], abs=1e-9)

    def test_harmonic_closed_form(self):
        r = span_any(FlowParams(3.0, -1.0, 0.0))
        assert (r.T, r.method) == (math.pi / 3, SpanMethod.ClosedForm)

    def test_separatrix_closed_form(self):
        r = span_any(FlowParams(3.0, 0.0, 2.0))
        assert (r.T, r.method) == (math.pi, SpanMethod.ClosedForm)

    def test_center_raises(self):
        with pytest.raises(SteadyStateError):
            span_any(FlowParams(2.0, 1 / 32, 1.0))

    def test_inconsistent_params(self):
        with pytest.raises(InconsistentParams):
            span_any(FlowParams(3.0, 1.0, -1.0))

    def test_no_solution_B_zero(self):
        with pytest.raises(NoSolution):
            span_any(FlowParams(3.0, 1.0, 0.0))

    @pytest.mark.parametrize("p,method", [
        (FlowParams(3.0, -0.7, 1.0), SpanMethod.QuadratureHyperbolic),
        (FlowParams(3.0, 0.0004, 2.5), SpanMethod.QuadratureElliptic),
        (FlowParams(2 / 3, 1.0, 2.0), SpanMethod.Conjugacy),
        (FlowParams(3.0, -1.0, 0.0), SpanMethod.ClosedForm),
    ])
    def test_results_are_python_floats(self, p, method):
        r = span_any(p)
        assert r.method is method
        assert type(r.T) is float
        assert type(r.est_error) is float


class TestConjugacyIdentity:
    @pytest.mark.parametrize("lam", [1.2, 2.0, 3.7, 6.0])
    @pytest.mark.parametrize("Pfrac", [0.1, 0.5, 0.9])
    def test_elliptic_independent_quadratures(self, lam, Pfrac):
        pm = steady_state(lam, 1.0).P_max
        p = FlowParams(lam, Pfrac * pm, 1.0)
        q = conjugate(p)
        T_direct = span_quadrature(p.lam, p.P, p.B).T
        T_routed = span_quadrature(q.lam, q.P, q.B).T
        assert T_direct == pytest.approx(q.lam * T_routed, abs=1e-7)

    @pytest.mark.parametrize("lam", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("P", [-0.3, -2.0])
    def test_hyperbolic_independent_quadratures(self, lam, P):
        p = FlowParams(lam, P, 1.0)
        q = conjugate(p)
        T_direct = span_quadrature(p.lam, p.P, p.B).T
        T_routed = span_quadrature(q.lam, q.P, q.B).T
        assert T_direct == pytest.approx(q.lam * T_routed, abs=1e-7)


class TestSpanQuadratureRefusals:
    """Direct quadratures whose result is not a span raise, naming lam and
    the bad value, where they used to return it."""

    def test_nan_estimate(self):
        # lam = 0.01, B = 0: the integrand is inf near phi = 0
        with pytest.raises(QuadratureFailure,
                           match=r"lam=0\.01 gave T=inf with error estimate nan"):
            span_quadrature(0.01, -1.0, 0.0)

    def test_coinciding_turning_points(self):
        # lam = 30 next to the centre: find_intercepts returns x0 == x1
        P = (1.0 - 1e-6) * steady_state(30.0, 1.0).P_max
        with pytest.raises(QuadratureFailure,
                           match=r"lam=30\.0 gave T=0\.0 with error estimate"):
            span_quadrature(30.0, P, 1.0)

    def test_missed_target_names_the_callers_parameters(self):
        # next to the centre the estimate misses 1e-9 (ROADMAP item 5); the
        # message names lam, P and B = 1 as passed, not the centre-normalised
        # triple that is integrated
        P = (1.0 - 1e-7) * steady_state(5.0, 1.0).P_max
        with pytest.raises(QuadratureFailure) as info:
            period_elliptic(5.0, P)
        assert str(info.value).startswith(
            f"quadrature at lam=5.0, P={P!r}, B=1.0: error estimate ")
        assert str(info.value).endswith(" misses the 1e-9 target")


class TestDualOracle:
    @pytest.mark.parametrize("lam,P,B", [
        (2.0, 0.01, 1.0), (3.0, 0.0004, 1.0), (2.5, -2.0, 1.0),
        (2.0, -1.0, 1.0), (4.0, -0.5, -2.0),
    ])
    def test_quadrature_vs_ode(self, lam, P, B):
        r = span_any(FlowParams(lam, P, B))
        p = FlowParams(lam, P, B)
        ic = find_intercepts(p)
        if P > 0:
            o = integrate_orbit(p, PhaseState(ic.x1, 0.0), ReturnToStart())
        else:
            o = integrate_orbit(p, PhaseState(ic.x0, 0.0), ReturnToAxis())
        assert o.measured_span == pytest.approx(r.T, abs=1e-7)


class TestMonotonicity:
    def grid(self, pm, n=20):
        return np.geomspace(1e-6 * pm, (1 - 1e-6) * pm, n)

    @pytest.mark.parametrize("lam", [2.5, 3.0, 5.0])
    def test_elliptic_period_increases_as_P_drops_above_lam2(self, lam):
        pm = steady_state(lam, 1.0).P_max
        Ts = [period_elliptic(lam, float(P)).T for P in self.grid(pm)]
        # descending P = reversed grid; T must rise toward pi
        assert all(a > b for a, b in zip(Ts, Ts[1:]))

    @pytest.mark.parametrize("lam", [1.5, 1.8])
    def test_elliptic_period_decreases_as_P_drops_below_lam2(self, lam):
        pm = steady_state(lam, 1.0).P_max
        Ts = [period_elliptic(lam, float(P)).T for P in self.grid(pm)]
        assert all(a < b for a, b in zip(Ts, Ts[1:]))

    @pytest.mark.parametrize("lam", [2.0, 3.0])
    def test_hyperbolic_plus_decreases_from_pi(self, lam):
        Ps = -np.geomspace(1e-6, 1e6, 20)
        Ts = [span_hyperbolic(lam, float(P), 1.0).T for P in Ps]
        assert all(a > b for a, b in zip(Ts, Ts[1:]))
        assert Ts[0] < math.pi
        assert Ts[-1] > math.pi / lam

    @pytest.mark.parametrize("lam", [2.0, 3.0])
    def test_hyperbolic_minus_increases_from_zero(self, lam):
        Ps = -np.geomspace(1e-6, 1e6, 20)
        Ts = [span_hyperbolic(lam, float(P), -1.0).T for P in Ps]
        assert all(a < b for a, b in zip(Ts, Ts[1:]))
        assert Ts[-1] < math.pi / lam


class TestLimitValues:
    def test_lam2_degenerate_equality(self):
        lv = limit_values(2.0)
        assert lv.T_center == pytest.approx(math.pi, rel=1e-15)
        assert lv.T_separatrix == math.pi
        assert lv.T_infinity == pytest.approx(math.pi / 2, rel=1e-15)

    def test_lam8(self):
        lv = limit_values(8.0)
        assert lv.T_center == pytest.approx(math.pi / 2, rel=1e-15)
        assert lv.T_infinity == pytest.approx(math.pi / 8, rel=1e-15)

    def test_boundary_counting_case(self):
        assert limit_values(4.5).T_center == pytest.approx(2 * math.pi / 3,
                                                           rel=1e-15)

    def test_requires_lam_above_one(self):
        with pytest.raises(DomainError):
            limit_values(1.0)


class TestChiconeW:
    def test_zero_at_center(self):
        for lam in (1.5, 3.0, 6.0):
            assert abs(chicone_W(1.0, lam)) <= 1e-14

    def test_sign_certificate_lam3(self):
        x_sup = (3.0 / 2.0) ** 1.5
        xs = np.linspace(1e-6, x_sup * (1 - 1e-9), 10 ** 4)
        w = np.array([chicone_W(float(x), 3.0) for x in xs])
        assert w.min() >= -1e-12

    def test_sign_certificate_lam15(self):
        x_sup = 3.0 ** 0.75
        xs = np.linspace(1e-6, x_sup * (1 - 1e-9), 10 ** 4)
        w = np.array([chicone_W(float(x), 1.5) for x in xs])
        assert w.max() <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chicone_W(0.5, 2.0)
        with pytest.raises(DomainError):
            chicone_W(-0.1, 3.0)
        with pytest.raises(DomainError):
            chicone_W(10.0, 3.0)
