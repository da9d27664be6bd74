"""Type rules, elliptic counting/solving, hyperbolic span solving."""

import enum
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from homoeuler import (
    DomainError,
    InconsistentParams,
    NoSolution,
    NumericalError,
    OutOfRange,
    classify,
)
from homoeuler.assemble import elliptic_global, global_profile
from homoeuler.classify import (
    CountKind,
    SolutionTag,
    TypeBasis,
    bernoulli,
    count_elliptic,
    solution_type,
    solve_all_elliptic,
    solve_elliptic,
    solve_hyperbolic_span,
)
from homoeuler.core import FlowParams, steady_state
from homoeuler.families import evaluate_family, lambda2, ode_residual
from homoeuler.orbits import PhaseState, ReturnToStart, integrate_orbit
from homoeuler.periods import span_any

TWO_PI = 2.0 * math.pi

# pressure roots from the frozen bisection (bracket [1e-12, 1-1e-12] P_max),
# each cross-checked here against the defining period property
ELLIPTIC_ROOTS = {
    (5.0, 3): 4.032004130861798e-08,
    (6.0, 3): 4.330643216237535e-11,
    (8.0, 3): 2.7537860156541296e-17,
    (13.0, 3): 1.8538570411303935e-34,
    (13.0, 4): 6.2166682559144325e-31,
    (13.0, 5): 2.0733312189496292e-29,
}


class TestBernoulli:
    def test_peak_value(self):
        # (3 + 4*2.25 + 0)/1.5
        assert bernoulli(1.5, 0.0, 2.0, 1.5) == pytest.approx(8.0, rel=1e-14)

    def test_same_level_other_point(self):
        # (3 + 4 + 1)/1
        assert bernoulli(1.0, -1.0, 2.0, 1.5) == pytest.approx(8.0, rel=1e-14)

    def test_lam_half_value(self):
        # (-1/2 + 1/4) * 1^(4-2)
        assert bernoulli(1.0, 0.0, 0.5, -0.25) == pytest.approx(
            -0.25, rel=1e-14)

    def test_rejects_nonpositive_psi(self):
        with pytest.raises(DomainError):
            bernoulli(0.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            bernoulli(-0.5, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            bernoulli(1.0, 0.0, -2.0, 1.0)

    def test_constant_along_family(self):
        f = lambda2(1.0, 0.5)
        vals = [bernoulli(*evaluate_family(f, float(t)), 2.0, 1.5)
                for t in np.linspace(0.0, TWO_PI, 257)]
        assert np.allclose(vals, 8.0, rtol=1e-12, atol=0.0)

    def test_constant_along_integrated_orbit(self):
        p = FlowParams(2.0, 1.5, 8.0)
        orbit = integrate_orbit(p, PhaseState(1.5, 0.0), ReturnToStart())
        _t, xs, ys = orbit.samples.T
        vals = np.array([bernoulli(float(x), float(y), 2.0, 1.5)
                         for x, y in zip(xs, ys)])
        assert np.max(np.abs(vals - 8.0)) / 8.0 < 1e-9


class TestSolutionType:
    @pytest.mark.parametrize("lam,P,B,tag,basis", [
        (2.0, 1.5, 8.0, SolutionTag.Elliptic, TypeBasis.Explicit),
        (0.5, -0.25, -3.0 / 16.0, SolutionTag.Elliptic, TypeBasis.Explicit),
        (3.0, -1.0, 1.0, SolutionTag.Hyperbolic, TypeBasis.SignRule),
        (0.75, 1.0, 2.0, SolutionTag.Hyperbolic, TypeBasis.SignRule),
        (2.0, 2.0, 8.0, SolutionTag.Rotational, TypeBasis.Explicit),
        (1.0, -0.5, 2.0, SolutionTag.ParallelShear, TypeBasis.Explicit),
        (3.0, 0.0, 4.0, SolutionTag.ParallelShear, TypeBasis.Explicit),
        (0.5, -0.5, 0.0, SolutionTag.Parabolic, TypeBasis.Explicit),
        (0.4, -0.5, 0.0, SolutionTag.Unknown, TypeBasis.Table),
        (3.0, -1.0, 0.0, SolutionTag.Hyperbolic, TypeBasis.Explicit),
    ])
    def test_examples(self, lam, P, B, tag, basis):
        got = solution_type(FlowParams(lam, P, B))
        assert got.tag is tag
        assert got.basis is basis

    def test_center_detection_below_one(self):
        # R(x) = -2P - x^2/4 - (3/16) x^-2 peaks at -2P - sqrt(3)/4
        p_ctr = -math.sqrt(3.0) / 8.0
        got = solution_type(FlowParams(0.5, p_ctr, -3.0 / 16.0))
        assert got.tag is SolutionTag.Rotational
        below = solution_type(FlowParams(0.5, p_ctr * (1 + 1e-6),
                                         -3.0 / 16.0))
        assert below.tag is SolutionTag.Elliptic

    def test_inconsistent_signs(self):
        with pytest.raises(InconsistentParams):
            solution_type(FlowParams(3.0, 0.5, -1.0))
        with pytest.raises(InconsistentParams):
            solution_type(FlowParams(3.0, 1.0, 0.0))
        with pytest.raises(InconsistentParams):
            solution_type(FlowParams(0.6, 0.0, -1.0))

    def test_empty_level_set(self):
        # P_max(lam=2, B=8) is exactly 2
        with pytest.raises(DomainError):
            solution_type(FlowParams(2.0, 3.0, 8.0))
        with pytest.raises(DomainError):
            solution_type(FlowParams(0.5, -0.1, -3.0 / 16.0))

    @given(lam=st.floats(1.01, 20.0), P=st.floats(-10.0, 0.0),
           B=st.floats(0.001, 10.0))
    def test_never_elliptic_without_positive_pressure(self, lam, P, B):
        got = solution_type(FlowParams(lam, P, B))
        assert got.tag is not SolutionTag.Elliptic

    @given(lam=st.floats(0.01, 0.99), P=st.floats(-10.0, 10.0),
           B=st.floats(0.0, 10.0))
    def test_never_elliptic_without_negative_bernoulli(self, lam, P, B):
        if B == 0.0 and P > 0.0:
            with pytest.raises(InconsistentParams):
                solution_type(FlowParams(lam, P, B))
            return
        got = solution_type(FlowParams(lam, P, B))
        assert got.tag is not SolutionTag.Elliptic


class TestCountElliptic:
    @pytest.mark.parametrize("lam,count,n", [
        (5.0, CountKind.Finite, 1),
        (4.5, CountKind.Zero, None),
        (13.0, CountKind.Finite, 3),
        (8.0, CountKind.Finite, 1),
        (0.5, CountKind.Continuum, None),
        (2.0, CountKind.Continuum, None),
        (0.8, CountKind.Unknown, None),
        (1.25, CountKind.Unknown, None),
        (0.3, CountKind.Zero, None),
        (0.75, CountKind.Zero, None),
        (4.0 / 3.0, CountKind.Zero, None),
        (3.0, CountKind.Zero, None),
        (4.6, CountKind.Finite, 1),
    ])
    def test_table_rows(self, lam, count, n):
        cat = count_elliptic(lam)
        assert cat.count is count
        assert cat.n == n

    def test_shear_only_ray_rejected(self):
        with pytest.raises(DomainError):
            count_elliptic(1.0)
        with pytest.raises(DomainError):
            count_elliptic(0.0)

    @pytest.mark.parametrize("lam", [5.0, 6.0, 8.0, 13.0, 50.5, 4.84])
    def test_count_matches_integer_enumeration(self, lam):
        expect = sum(1 for m in range(3, 64) if m * m < 2.0 * lam)
        assert count_elliptic(lam).n == expect

    def test_perfect_square_boundary_excluded(self):
        # 2 lam = 16: m = 4 sits on the open boundary
        assert count_elliptic(8.0).n == 1
        assert count_elliptic(8.001).n == 2

    def test_catalog_entries_verified(self):
        cat = solve_all_elliptic(13.0)
        assert cat.count is CountKind.Finite and cat.n == 3
        pm = steady_state(13.0, 1.0).P_max
        assert [n for n, _, _ in cat.entries] == [3, 4, 5]
        for n, p_star, period in cat.entries:
            assert 0.0 < p_star < pm
            assert abs(period - TWO_PI / n) <= 1e-8


class TestSolveElliptic:
    @pytest.mark.parametrize("lam,n", sorted(ELLIPTIC_ROOTS))
    def test_frozen_roots(self, lam, n):
        res = solve_elliptic(lam, n)
        assert res.status == "root"
        assert res.P_star == pytest.approx(ELLIPTIC_ROOTS[(lam, n)],
                                           rel=1e-6)
        # defining property, via the independent quadrature route
        T = span_any(FlowParams(lam, res.P_star, 1.0)).T
        assert abs(T - TWO_PI / n) <= 1e-10
        # and via the integrated orbit
        assert abs(res.orbit.measured_span - TWO_PI / n) <= 1e-7

    def test_root_inside_pressure_bracket(self):
        res = solve_elliptic(5.0, 3)
        assert 0.0 < res.P_star < steady_state(5.0, 1.0).P_max

    def test_reconstructed_profile(self):
        res = solve_elliptic(5.0, 3)
        g = elliptic_global(5.0, res.P_star, 1.0)
        assert len(g.pieces) == 3
        for piece in g.pieces:
            assert piece.arc.span == pytest.approx(TWO_PI / 3, abs=1e-12)
        th, psi, dpsi = global_profile(g)
        assert np.all(np.diff(th) > 0.0)
        assert psi.min() > 0.0
        rep = ode_residual(list(zip(th, psi, dpsi)), 5.0, res.P_star)
        assert max(abs(w) for w in rep.weak) <= 1e-6

    def test_no_solution_outside_range(self):
        with pytest.raises(NoSolution):
            solve_elliptic(5.0, 4)
        with pytest.raises(NoSolution):
            solve_elliptic(13.0, 6)
        with pytest.raises(NoSolution):
            solve_elliptic(5.0, 3.5)

    def test_lam_two_continuum(self):
        res = solve_elliptic(2.0, 2)
        assert res.status == "continuum"
        assert res.P_star is None
        assert res.orbit.measured_span == pytest.approx(math.pi, abs=1e-10)
        with pytest.raises(NoSolution):
            solve_elliptic(2.0, 3)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            solve_elliptic(1.2, 3)
        with pytest.raises(DomainError):
            solve_elliptic(-1.0, 3)


class PSign(enum.Enum):
    """Sign of the pressure a span solve is asked at; the value is P."""

    Plus = 1.0
    Minus = -1.0
    Zero = 0.0


def _span(lam, P, B):
    return span_any(FlowParams(lam, P, B)).T


class TestSolveHyperbolicSpan:
    @pytest.mark.parametrize("frac", [0.3, 0.6, 0.75, 0.9])
    def test_lam_two_closed_form(self, frac):
        # at lam = 2 the span has the closed form
        # T(B) = pi/2 + arcsin(B/sqrt(B^2 + 32)), so
        # B*(T) = sqrt(32) tan(T - pi/2)
        target = frac * math.pi
        B = solve_hyperbolic_span(2.0, -1.0, target)
        assert B == pytest.approx(
            math.sqrt(32.0) * math.tan(target - 0.5 * math.pi), rel=1e-12)
        assert _span(2.0, -1.0, B) == pytest.approx(target, abs=1e-9)

    def test_harmonic_target_is_exact(self):
        B = solve_hyperbolic_span(2.0, -1.0, 0.5 * math.pi)
        assert B == 0.0
        assert _span(2.0, -1.0, B) == pytest.approx(0.5 * math.pi, abs=1e-12)
        B = solve_hyperbolic_span(1.5, -1.0, TWO_PI / 3.0)
        assert B == 0.0

    def test_below_one_route(self):
        target = TWO_PI / 3.0
        B = solve_hyperbolic_span(2.0 / 3.0, 1.0, target)
        assert B == pytest.approx(3.500247331754384, rel=1e-9)
        assert B > 0.0
        # re-verify through the direct quadrature at lam < 1
        assert _span(2.0 / 3.0, 1.0, B) == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("lam,P,target", [
        (2.0, -3.7, 0.6 * math.pi),
        (3.0, -0.25, 0.2 * math.pi),
        (2.0 / 3.0, 2.5, TWO_PI / 3.0),
        (1.5, -1e3, TWO_PI / 3.0),
    ])
    def test_pressure_rescales_unit_root(self, lam, P, target):
        # spans are invariant under (P, B) -> (c^2 P, c^(2/lam) B)
        unit = solve_hyperbolic_span(lam, math.copysign(1.0, P), target)
        B = solve_hyperbolic_span(lam, P, target)
        assert B == abs(P) ** (1.0 / lam) * unit
        assert _span(lam, P, B) == pytest.approx(target, abs=1e-9)

    def test_span_increases_with_bernoulli(self):
        b_small = solve_hyperbolic_span(3.0, -1.0, 0.4 * math.pi)
        b_large = solve_hyperbolic_span(3.0, -1.0, 0.8 * math.pi)
        assert b_small < b_large

    @pytest.mark.parametrize("lam,sign,target", [
        (3.0, PSign.Plus, 1.0),
        (0.6, PSign.Minus, 1.0),
        (0.5, PSign.Plus, 1.0),
        (0.4, PSign.Plus, 1.0),
        (1.0, PSign.Minus, 1.0),
        (2.0, PSign.Minus, 0.0),
        (2.0, PSign.Minus, math.pi),
        (2.0, PSign.Minus, 4.0),
        (2.0 / 3.0, PSign.Zero, TWO_PI / 3.0),
        (3.0, PSign.Zero, TWO_PI / 3.0),
    ])
    def test_out_of_range(self, lam, sign, target):
        with pytest.raises(OutOfRange):
            solve_hyperbolic_span(lam, sign.value, target)


class TestSolverErrorsNameTheirInputs:
    def test_census_cross_check(self, monkeypatch):
        p_star = solve_elliptic(5.0, 3).P_star

        # an orbit whose period disagrees with the quadrature's
        def off_orbit(lam, P, T_hint):
            return type("Orbit", (), {"measured_span": T_hint + 1e-6})()
        monkeypatch.setattr(classify, "_elliptic_orbit", off_orbit)
        with pytest.raises(NumericalError) as info:
            solve_elliptic(5.0, 3)
        msg = str(info.value)
        assert msg.startswith(f"at lam = 5.0, n = 3, P* = {p_star!r}: ")
        assert msg.endswith(" disagree beyond 1e-7")

    @pytest.mark.parametrize("span,sign,bound", [
        (3.0, ">", "lower"),    # never below the target
        (0.1, ">", "upper"),    # never above it
        (3.0, "<", "lower"),
    ])
    def test_span_bracket_expansion(self, monkeypatch, span, sign, bound):
        # a span function with no root makes one bracket end run away
        monkeypatch.setattr(classify, "_span", lambda lam, P, B: span)
        target = 2.0 if sign == ">" else 0.5
        with pytest.raises(NumericalError) as info:
            solve_hyperbolic_span(3.0, -2.0, target)
        assert str(info.value) == (
            f"{bound} bracket expansion failed on B {sign} 0 at lam = 3.0,"
            f" P = -1.0, target span {target!r}")
