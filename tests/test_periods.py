"""Span quadratures against closed forms, frozen high-precision values, and
the ODE integrator as an independent oracle."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homoeuler import (
    DomainError,
    FlowParams,
    InconsistentParams,
    NoSolution,
    QuadratureFailure,
    SteadyStateError,
    _kernels,
    _rows,
    conjugate,
    periods,
    steady_state,
)
from homoeuler.orbits import (
    InterceptKind,
    Intercepts,
    closed_orbit,
    find_intercepts,
    integrate_orbit,
)
from homoeuler.periods import (
    SpanMethod,
    _scaled_bernoulli,
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
            r = period_elliptic(2.0, float(P), 1.0)
            assert abs(r.T - math.pi) <= 1e-8

    def test_frozen_value_lam3(self):
        pm = steady_state(3.0, 1.0).P_max
        r = period_elliptic(3.0, pm / 2, 1.0)
        assert r.T == pytest.approx(FROZEN[(3.0, "pm_half", 1.0)], abs=1e-10)

    def test_frozen_value_lam15(self):
        pm = steady_state(1.5, 1.0).P_max
        r = period_elliptic(1.5, 0.3 * pm, 1.0)
        assert r.T == pytest.approx(FROZEN[(1.5, "pm_03", 1.0)], abs=1e-10)

    @pytest.mark.parametrize("lam", [3.0, 5.0, 8.0])
    def test_center_limit(self, lam):
        pm = steady_state(lam, 1.0).P_max
        r = period_elliptic(lam, pm * (1 - 1e-6), 1.0)
        assert abs(r.T - 2 * math.pi / math.sqrt(2 * lam)) <= 1e-3

    def test_separatrix_approach_rate(self):
        # pi - T ~ C (P/P_max)^(1/(2 lam - 2)); frozen 40-digit references
        pm = steady_state(2.5, 1.0).P_max
        r = period_elliptic(2.5, pm * 1e-8, 1.0)
        assert math.pi - r.T == pytest.approx(1.060348e-3, rel=1e-5)
        pm = steady_state(5.0, 1.0).P_max
        r = period_elliptic(5.0, pm * 1e-8, 1.0)
        assert math.pi - r.T == pytest.approx(0.119266135838588, rel=1e-9)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            period_elliptic(2.0, 0.05, 1.0)
        with pytest.raises(DomainError):
            period_elliptic(2.0, -0.01, 1.0)

    def test_est_error_bound(self):
        pm = steady_state(3.0, 1.0).P_max
        assert period_elliptic(3.0, pm / 3, 1.0).est_error <= 1e-9

    def test_panels_on_the_default_scans(self, monkeypatch):
        # the 200-row default period-scan grids of the survey benchmark,
        # (1 - 1e-4) P_max down to 1e-4 P_max: 8,766 panels when periods
        # were integrated in x, 4,698 in u = ln(x/x0)
        counts = _count_panels(monkeypatch)
        for lam in (1.5, 3.0, 5.0, 8.0, 13.0):
            pm = steady_state(lam, 1.0).P_max
            for P in np.geomspace((1.0 - 1e-4) * pm, 1e-4 * pm, 200):
                span_any(FlowParams(lam, float(P), 1.0))
        assert counts["panels"] <= 7000
        assert counts["budget_hits"] == 0


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

    def test_arch_whose_rescaling_underflows(self):
        # |B|**lam underflows a double, so no unit-B rescaling of these
        # arches exists; span_any integrates every span as given.  Every
        # term of this radicand is subnormal at the turning point, so
        # find_intercepts solves the level set rescaled by a power of two:
        # T is within 2e-15 of mpmath's 3.1106791153384443 at the exact
        # x0 = 3.1222e-162 (the radicand formed in subnormals put x0 3.2e-3
        # and T 1.2e-6 off)
        r = span_any(FlowParams(1.01, -5e-324, 1e-322))
        want = span_quadrature(1.01, -5e-324, 1e-322)
        assert r.T.hex() == want.T.hex()
        assert r.T == pytest.approx(3.1106791153384443, rel=2e-15, abs=0.0)
        assert (r.method, r.est_error) == (want.method, want.est_error)
        r = span_any(FlowParams(1.5, -1.0, 1e-250))
        assert r.T == pytest.approx(math.pi / 1.5, abs=1e-12)

    def test_closed_orbit_at_large_B(self):
        # |B|**lam = 1e330 overflows a double, which no span needs: the
        # period depends on lam and C = B x0^(-2/lam) alone, and equals
        # the one at unit B and P/B**lam
        lam, B = 30.0, 1e11
        T = span_any(FlowParams(lam, 0.5 * steady_state(lam, B).P_max, B)).T
        want = span_any(FlowParams(lam, 0.5 * steady_state(lam, 1.0).P_max,
                                   1.0)).T
        assert T == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_closed_orbit_whose_rescaling_overflows(self):
        # |B|**lam overflows, and so does the centre x_s = (2 B/27)**1.5:
        # refused by the turning-point solve, and no OverflowError escapes
        with pytest.raises(DomainError, match="turning points of lam=3.0, P"
                           r"=1e-300, B=1e\+300: .* overflows a double"):
            span_any(FlowParams(3.0, 1e-300, 1e300))

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


class TestOneRoute:
    """span_any, span_hyperbolic, period_elliptic and the batched rows of
    period-scan take their spans from one route (periods._route)."""

    @pytest.mark.parametrize("lam", [1.2, 2.0, 3.7, 13.0])
    def test_wrappers_are_span_any_on_their_domains(self, lam):
        for B in (-2.0, -0.3, 0.0, 0.5, 4.0):
            for P in (-30.0, -1.0, -1e-3):
                p = FlowParams(lam, P, B)
                assert span_hyperbolic(lam, P, B) == span_any(p)
        for B in (0.5, 4.0):
            pm = steady_state(lam, B).P_max
            for f in (1e-9, 0.3, 0.9, 1.0 - 1e-7):
                p = FlowParams(lam, f * pm, B)
                assert period_elliptic(lam, f * pm, B) == span_any(p)

    def test_span_any_calls_itself_once(self, monkeypatch):
        # below lam = 1 the conjugate is routed, not passed to span_any
        calls = []
        real = periods.span_any

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(periods, "span_any", counting)
        periods.span_any(FlowParams(2 / 3, 1.0, 2.0))
        periods.span_any(FlowParams(0.75, 0.0, 1.0))
        assert calls == [FlowParams(2 / 3, 1.0, 2.0),
                         FlowParams(0.75, 0.0, 1.0)]

    @pytest.mark.parametrize("lam,ps,B,closed", [
        # lam = 1: pi for every P
        (1.0, [-1.0, 0.5, 2.0], 1.0, [0, 1, 2]),
        # P = 0 with B > 0 (the separatrix) among an arch and a closed orbit
        (3.0, [-1.0, 0.0, 1e-4], 1.0, [1]),
        # B = 0 with P < 0: the harmonic arch pi/lam
        (3.0, [-2.0, -0.5], 0.0, [0, 1]),
        # closed forms of the conjugate at lam = 4/3: P = 0 with B > 0
        # conjugates to B = 0 with P < 0, and B = 0 with P < 0 to the
        # separatrix
        (0.75, [0.0, 0.5], 1.0, [0]),
        (0.75, [-1.0, -0.25], 0.0, [0, 1]),
    ])
    def test_closed_form_rows_of_a_scan(self, monkeypatch, lam, ps, B,
                                        closed):
        want = [span_any(FlowParams(lam, P, B)) for P in ps]
        # no row falls back to span_any
        monkeypatch.setattr(periods, "span_any", None)
        got = _rows.span_rows(lam, ps, B)
        for i, (g, w) in enumerate(zip(got, want)):
            if i in closed:
                assert w.method in (SpanMethod.ClosedForm,
                                    SpanMethod.Conjugacy)
                assert w.est_error == 0.0
                assert g == w
            else:
                assert g.method is w.method
                assert g.T == pytest.approx(w.T, rel=2e-15, abs=0.0)


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
        # an elliptic pair with x0 == x1 (at the centre abscissa) has
        # u1 = 0: every node of the zero-width orbit is inf, which is not a
        # period
        info = steady_state(30.0, 1.0)
        ic = Intercepts(InterceptKind.EllipticPair, info.x_s, info.x_s)
        with pytest.raises(QuadratureFailure,
                           match=r"lam=30\.0 gave T=inf with error estimate"):
            periods._quadrature(30.0, (1.0 - 1e-6) * info.P_max, 1.0, ic,
                                1e-10)

    def test_next_to_the_centre_at_unit_B(self):
        # lam = 30, B = 1: every term of the radicand is about 1e-87, and
        # the turning points are 1.4e-3 apart in ln x at 1 - P/P_max = 1e-6.
        # T - 2 pi/sqrt(2 lam) is linear in 1 - P/P_max, as the expansion
        # about the centre requires, and span_any routes to the same
        # period
        lam = 30.0
        p_max = steady_state(lam, 1.0).P_max
        t_c = 2.0 * math.pi / math.sqrt(2.0 * lam)

        def offset(eps):
            T = span_quadrature(lam, (1.0 - eps) * p_max, 1.0).T
            assert T == pytest.approx(
                span_any(FlowParams(lam, (1.0 - eps) * p_max, 1.0)).T,
                rel=1e-13, abs=0.0)
            return T - t_c

        slope = offset(1e-6) / 1e-6
        assert 0.0 < slope < 1.0
        for eps in (1e-5, 1e-8):
            assert abs(offset(eps) - slope * eps) <= 1e-9

    def test_missed_target_names_the_callers_parameters(self, monkeypatch):
        # on a one-panel budget the estimate misses 1e-9; the message names
        # lam, P and B as passed
        monkeypatch.setattr(periods, "_MAX_PANELS", 1)
        P = 0.5 * steady_state(5.0, 1.0).P_max
        with pytest.raises(QuadratureFailure) as info:
            period_elliptic(5.0, P, 1.0)
        assert str(info.value).startswith(
            f"quadrature at lam=5.0, P={P!r}, B=1.0: error estimate ")
        assert str(info.value).endswith(" misses the 1e-9 target")

    def test_budget_hit_within_the_acceptance_raises(self, monkeypatch):
        # on a two-panel budget this arch's estimate, 1.16e-10, is inside
        # the 1e-9 acceptance but misses the 1e-10 target: the budget ran
        # out, so the span is refused rather than returned
        monkeypatch.setattr(periods, "_MAX_PANELS", 2)
        with pytest.raises(QuadratureFailure) as info:
            span_any(FlowParams(1.5, -1.0, -1.0))
        assert str(info.value) == (
            "quadrature at lam=1.5, P=-1.0, B=-1.0: the 2-panel budget ran"
            " out at error estimate 1.159e-10, short of its target")


class TestScaledBernoulli:
    """C = B x0^(-2/lam) where x0^(-2/lam) alone overflows a double."""

    GIVEN = (1.01, -5e-324, 1e-322)

    @pytest.mark.parametrize("lam,B,x0", [
        (1.5, -1.0, 0.37), (3.0, 2.5, 1e-100), (1.01, 1e-100, 3.1e-51)])
    def test_direct_power_where_it_does_not_raise(self, lam, B, x0):
        assert (_scaled_bernoulli(lam, -1.0, B, x0)
                == B * x0 ** (-2.0 / lam))

    @pytest.mark.parametrize("B", [1e-322, -1e-322, 1e-300])
    def test_logs_where_the_power_overflows(self, B):
        lam, x0 = 1.01, 2.793900609975269e-162
        with pytest.raises(OverflowError):
            x0 ** (-2.0 / lam)
        with localcontext() as ctx:
            ctx.prec = 40
            want = Decimal(B) * Decimal(x0) ** Decimal(-2.0 / lam)
        C = _scaled_bernoulli(lam, self.GIVEN[1], B, x0)
        assert math.copysign(1.0, C) == math.copysign(1.0, B)
        assert C == pytest.approx(float(want), rel=1e-12)

    def test_subnormal_pressure_arch_has_a_span(self):
        # lam^2 x0^2 = -2P puts x0 near 3e-162, so x0^(-2/lam) ~ 1e319
        # overflowed; C itself is 0.008
        r = span_quadrature(*self.GIVEN)
        assert 0.0 < r.T < math.pi and r.est_error <= 1e-9

    def test_infinite_C_names_the_triple(self):
        with pytest.raises(DomainError) as info:
            _scaled_bernoulli(1.5, -1e-158, -1.0, 3.1e-237)
        assert str(info.value).startswith(
            "span integrand at lam=1.5, P=-1e-158, B=-1.0: C = B x0^(-2/lam)"
            " overflows a double")


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
            o = closed_orbit(p, ic.x0)
        else:
            o = integrate_orbit(p, ic.x0)
        assert o.measured_span == pytest.approx(r.T, abs=1e-7)


class TestMonotonicity:
    def grid(self, pm, n=20):
        return np.geomspace(1e-6 * pm, (1 - 1e-6) * pm, n)

    @pytest.mark.parametrize("lam", [2.5, 3.0, 5.0])
    def test_elliptic_period_increases_as_P_drops_above_lam2(self, lam):
        pm = steady_state(lam, 1.0).P_max
        Ts = [period_elliptic(lam, float(P), 1.0).T for P in self.grid(pm)]
        # descending P = reversed grid; T must rise toward pi
        assert all(a > b for a, b in zip(Ts, Ts[1:]))

    @pytest.mark.parametrize("lam", [1.5, 1.8])
    def test_elliptic_period_decreases_as_P_drops_below_lam2(self, lam):
        pm = steady_state(lam, 1.0).P_max
        Ts = [period_elliptic(lam, float(P), 1.0).T for P in self.grid(pm)]
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


def _count_panels(monkeypatch):
    """Counts _gk_panel calls and adaptive_gk budget hits, by rebinding the
    module globals as the perfbench tracer does."""
    counts = {"panels": 0, "budget_hits": 0}
    panel, gk = _kernels._gk_panel, _kernels.adaptive_gk

    def counting_panel(*args):
        counts["panels"] += 1
        return panel(*args)

    def counting_gk(*args):
        v, e, status = gk(*args)
        counts["budget_hits"] += status
        return v, e, status
    monkeypatch.setattr(_kernels, "_gk_panel", counting_panel)
    monkeypatch.setattr(_kernels, "adaptive_gk", counting_gk)
    return counts


class TestArchSpanOracle:
    """Arch spans against mpmath (30 digits), with the turning point solved
    in mpmath too."""

    @staticmethod
    def reference(lam, P, B):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        lam, P, B = mp.mpf(lam), mp.mpf(P), mp.mpf(B)
        al = 2 - 2 / lam
        # the turning point x0, by bisection in log x: R > 0 below it
        lo, hi = mp.mpf(2) ** -1100, mp.mpf(2) ** 1100
        while hi / lo > 1 + mp.mpf(10) ** -27:
            x = mp.sqrt(lo * hi)
            if -2 * P - lam ** 2 * x * x + B * x ** al > 0:
                lo = x
            else:
                hi = x
        C = B * lo ** (al - 2)
        # T/2 = int_0^1 dxi/sqrt(lam^2 (1 - xi^2) - C (1 - xi^alpha)),
        # scaled to O(1); xi = cos psi on [1/2, 1] keeps 1 - xi exact
        s2 = lam ** 2 + abs(C)
        a2, c = lam ** 2 / s2, C / s2

        def lower(xi):
            return 1 / mp.sqrt(a2 * (1 - xi ** 2) - c * (1 - xi ** al))

        def upper(psi):
            one_minus_pow = -mp.expm1(al * mp.log1p(-2 * mp.sin(psi / 2) ** 2))
            return mp.sin(psi) / mp.sqrt(a2 * mp.sin(psi) ** 2
                                         - c * one_minus_pow)
        half = mp.quad(lower, [0, 0.5]) + mp.quad(upper, [0, mp.pi / 3])
        return float(2 * half / mp.sqrt(s2))

    @pytest.mark.parametrize("B", [1.0, -1.0])
    @pytest.mark.parametrize("lam", [1.01, 1.2, 1.5, 2.5, 3.0, 5.0, 13.0])
    def test_spans(self, lam, B):
        for P in (-1e6, -1e3, -1.0, -1e-3, -1e-6):
            if (lam, B, P) == (1.01, -1.0, -1e-6):
                # x0 = 1.6e-288, and C = B x0^(-2/lam) overflows
                with pytest.raises(DomainError, match="overflows a double"):
                    span_any(FlowParams(lam, P, B))
                continue
            r = span_any(FlowParams(lam, P, B))
            ref = self.reference(lam, P, B)
            assert abs(r.T - ref) <= r.est_error, (lam, B, P)
            if ref > 1e-10:
                # spans below the 1e-10 target (lam = 1.01 and 1.2, B = -1,
                # |P| <= 1e-3: 1e-134 to 4e-9) are held to the estimate
                assert r.T == pytest.approx(ref, rel=1e-13, abs=0.0), (
                    lam, B, P)

    def test_cusp_via_conjugacy(self):
        from test_assemble import B_CUSP
        r = span_any(FlowParams(2.0 / 3.0, 1.0, B_CUSP))
        assert r.method is SpanMethod.Conjugacy
        ref = self.reference(2.0 / 3.0, 1.0, B_CUSP)
        assert r.T == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert r.T == pytest.approx(2.0 * math.pi / 3.0, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("lam,P,want", [
        # separatrix arches, where lam^2 - C rounds below zero; mpmath
        (3.0, -1e-20, 3.1415322028800215),
        (13.0, -1e-60, 3.0612416303673075),
        (3.0, -1e-10, 3.1224742425374329),
    ])
    def test_next_to_the_separatrix(self, lam, P, want):
        assert span_any(FlowParams(lam, P, 1.0)).T == pytest.approx(
            want, rel=1e-14, abs=0.0)

    def test_panels_per_span(self, monkeypatch):
        # lam = 1.5, B = +1 on the 200-row hyperbolic period-scan grid of
        # the survey benchmark: 29.5 panels per span when phi was
        # integrated directly, 7.0 in s
        counts = _count_panels(monkeypatch)
        ps = -np.geomspace(1e-6, 1e6, 200)
        for P in ps:
            span_any(FlowParams(1.5, float(P), 1.0))
        assert counts["panels"] <= 8 * len(ps)
        assert counts["budget_hits"] == 0


class TestNearCentreOracle:
    """Periods next to the centre against mpmath (30 digits)."""

    @staticmethod
    def reference(lam, P):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        lam, P = mp.mpf(lam), mp.mpf(P)
        al = 2 - 2 / lam

        def R(x):
            return -2 * P - lam ** 2 * x * x + x ** al

        def dR(x):
            return -2 * lam ** 2 * x + al * x ** (al - 1)
        # turning points by Newton, from the quadratic about the centre
        xs = ((lam - 1) / lam ** 3) ** (lam / 2)
        h = mp.sqrt(-2 * R(xs) / (-2 * lam ** 2
                                  + al * (al - 1) * xs ** (al - 2)))
        roots = []
        for x in (xs - h, xs + h):
            for _ in range(60):
                x -= R(x) / dR(x)
            roots.append(x)
        m, rho = (roots[0] + roots[1]) / 2, (roots[1] - roots[0]) / 2

        # Gauss-Legendre keeps its nodes far enough from the turning
        # points for R to be resolved there
        def f(phi):
            return rho * mp.cos(phi) / mp.sqrt(R(m + rho * mp.sin(phi)))
        return float(2 * mp.quad(f, [-mp.pi / 2, 0, mp.pi / 2],
                                 method="gauss-legendre"))

    @pytest.mark.parametrize("lam", [1.5, 3.0, 5.0, 8.0, 13.0])
    def test_periods_approach_the_centre_limit(self, lam):
        p_max = steady_state(lam, 1.0).P_max
        t_centre = 2.0 * math.pi / math.sqrt(2.0 * lam)
        gaps = []
        for k in range(4, 11):
            P = p_max * (1.0 - 10.0 ** -k)
            T = period_elliptic(lam, P, 1.0).T
            assert T == pytest.approx(self.reference(lam, P), rel=1e-14,
                                      abs=0.0), k
            gaps.append(abs(T - t_centre))
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps

    @pytest.mark.parametrize("lam", [1.5, 5.0, 13.0, 24.0])
    def test_just_outside_the_series(self, lam):
        # half-widths 1/43 to 1/26 of the centre, past the series' 1/64:
        # the radicand in x cancelled there and left periods 1.2e-12 to
        # 3.5e-11 off; V in u = ln(x/x0) does not
        p_max = steady_state(lam, 1.0).P_max
        for gap in (1e-3, 3e-3):
            P = p_max * (1.0 - gap)
            T = span_any(FlowParams(lam, P, 1.0)).T
            assert T == pytest.approx(self.reference(lam, P), rel=1e-12,
                                      abs=0.0), gap

    def test_no_budget_hit_on_the_near_centre_scan(self, monkeypatch):
        # the survey benchmark's near-centre scans: 200 rows from
        # P_max (1 - 1e-6) down to 1e-4 P_max
        counts = _count_panels(monkeypatch)
        for lam in (3.0, 5.0):
            p_max = steady_state(lam, 1.0).P_max
            for P in np.geomspace((1.0 - 1e-6) * p_max, 1e-4 * p_max, 200):
                period_elliptic(lam, float(P), 1.0)
        assert counts["budget_hits"] == 0


class TestScaleInvariance:
    """x -> c x maps the level set of (lam, P, B) onto that of
    (lam, c^2 P, c^(2/lam) B) and keeps y dt = dx, so every span is
    invariant; the quadrature sees B only as C = B x0^(-2/lam).  lam stays
    0.1 away from 1, where C overflows next to the separatrix."""

    @settings(max_examples=150, deadline=None)
    @given(lam=st.floats(1.1, 30.0), log_frac=st.floats(-8.0, -1e-6),
           log_c=st.floats(-3.0, 3.0))
    def test_elliptic(self, lam, log_frac, log_c):
        P = 10.0 ** log_frac * steady_state(lam, 1.0).P_max
        c = 10.0 ** log_c
        T = span_any(FlowParams(lam, P, 1.0)).T
        assert span_any(FlowParams(lam, c * c * P, c ** (2.0 / lam))).T \
            == pytest.approx(T, rel=1e-13, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(lam=st.one_of(st.floats(0.55, 0.9), st.floats(1.1, 30.0)),
           log_p=st.floats(-4.0, 4.0), sign=st.sampled_from([1.0, -1.0]),
           log_c=st.floats(-3.0, 3.0))
    def test_hyperbolic(self, lam, log_p, sign, log_c):
        # below lam = 1 a level set with B < 0 is a closed orbit or empty
        B = sign if lam > 1.0 else 1.0
        P = -(10.0 ** log_p)
        c = 10.0 ** log_c
        T = span_any(FlowParams(lam, P, B)).T
        assert span_any(FlowParams(lam, c * c * P, B * c ** (2.0 / lam))).T \
            == pytest.approx(T, rel=1e-13, abs=0.0)
