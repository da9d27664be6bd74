"""Turning points and orbit integration."""

import argparse
import math
import re
import signal
import statistics
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homoeuler import (
    DomainError,
    FlowParams,
    NumericalError,
    SingularEndpoint,
    SteadyStateError,
    steady_state,
)
from homoeuler import orbits
from homoeuler.cli import _scan_grid
from homoeuler.orbits import (
    InterceptKind,
    Orbit,
    closed_orbit,
    find_intercepts,
    integrate_orbit,
)
from homoeuler.periods import span_any


def radicand_residual(p, x):
    alpha = 2 - 2 / p.lam
    return p.lam ** 2 * x * x - p.B * x ** alpha + 2 * p.P


class TestFindIntercepts:
    def test_hyperbolic_quadratic_root(self):
        # lam=2 reduces to 4x^2 - x - 2 = 0
        ic = find_intercepts(FlowParams(2.0, -1.0, 1.0))
        assert ic.kind is InterceptKind.HyperbolicSingle
        assert ic.x0 == pytest.approx((1 + math.sqrt(33)) / 8, rel=1e-13)
        assert ic.x1 is None

    def test_elliptic_quadratic_pair(self):
        ic = find_intercepts(FlowParams(2.0, 1 / 64, 1.0))
        assert ic.kind is InterceptKind.EllipticPair
        assert ic.x0 == pytest.approx((1 - math.sqrt(0.5)) / 8, rel=1e-13)
        assert ic.x1 == pytest.approx((1 + math.sqrt(0.5)) / 8, rel=1e-13)

    def test_center_double_root(self):
        ic = find_intercepts(FlowParams(2.0, 1 / 32, 1.0))
        assert ic.kind is InterceptKind.Center
        assert ic.x0 == pytest.approx(0.125, rel=1e-13)

    def test_above_center_pressure_rejected(self):
        with pytest.raises(DomainError):
            find_intercepts(FlowParams(2.0, 0.05, 1.0))

    @pytest.mark.parametrize("B", [1.0, 3.7, 1e-3])
    def test_centre_pressure_is_center(self, B):
        # P_crit as 0.5 (B x_c^alpha - lam^2 x_c^2) cancelled: it missed
        # steady_state's P_max by more than the 1e-13 Center tolerance at 60
        # of these 180 points, raising "exceeds P_max" or returning a pair
        for lam in np.linspace(4.5, 34.0, 60):
            lam = float(lam)
            p_max = steady_state(lam, B).P_max
            ic = find_intercepts(FlowParams(lam, p_max, B))
            assert ic.kind is InterceptKind.Center, lam
            with pytest.raises(DomainError, match="exceeds P_max"):
                find_intercepts(FlowParams(lam, p_max * (1.0 + 1e-12), B))

    @pytest.mark.parametrize("lam", [0.6, 0.75, 0.9])
    def test_low_lam_centre_pressure_is_center(self, lam):
        # the centre of lam < 1, B = -1, from 50 digits
        with mpmath.workdps(50):
            a = 2 - 2 / mpmath.mpf(lam)
            x_c = (-a / (2 * mpmath.mpf(lam) ** 2)) ** (mpmath.mpf(lam) / 2)
            P_c = (-x_c ** a - lam ** 2 * x_c ** 2) / 2
        ic = find_intercepts(FlowParams(lam, float(P_c), -1.0))
        assert ic.kind is InterceptKind.Center
        assert ic.x0 == pytest.approx(float(x_c), rel=1e-14)

    def test_low_lam_elliptic_pair(self):
        # conjugate of the lam=2 family: roots at sqrt(1/2), sqrt(3/2)
        ic = find_intercepts(FlowParams(0.5, -0.25, -3 / 16))
        assert ic.kind is InterceptKind.EllipticPair
        assert ic.x0 == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert ic.x1 == pytest.approx(math.sqrt(1.5), rel=1e-12)

    def test_low_lam_positive_B_always_single(self):
        for P in (-2.0, 0.0, 3.0):
            ic = find_intercepts(FlowParams(0.8, P, 2.0))
            assert ic.kind is InterceptKind.HyperbolicSingle

    def test_empty_cases(self):
        assert (find_intercepts(FlowParams(3.0, 1.0, -1.0)).kind
                is InterceptKind.Empty)
        assert (find_intercepts(FlowParams(3.0, 1.0, 0.0)).kind
                is InterceptKind.Empty)
        assert (find_intercepts(FlowParams(0.7, 1.0, -1.0)).kind
                is InterceptKind.Empty)

    def test_shear_lam_one(self):
        ic = find_intercepts(FlowParams(1.0, 0.5, 2.0))
        assert ic.kind is InterceptKind.HyperbolicSingle
        assert ic.x0 == pytest.approx(1.0, rel=1e-13)

    @given(lam=st.floats(min_value=1.1, max_value=6.0),
           frac=st.floats(min_value=1e-6, max_value=1 - 1e-6),
           B=st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_elliptic_residual_and_straddle(self, lam, frac, B):
        info = steady_state(lam, B)
        p = FlowParams(lam, frac * info.P_max, B)
        ic = find_intercepts(p)
        assert ic.kind is InterceptKind.EllipticPair
        assert ic.x0 < info.x_s < ic.x1
        scale = max(lam * lam * ic.x1 ** 2, 2 * abs(p.P), 1.0)
        assert abs(radicand_residual(p, ic.x0)) <= 1e-12 * scale
        assert abs(radicand_residual(p, ic.x1)) <= 1e-12 * scale

    @given(lam=st.floats(min_value=1.1, max_value=6.0),
           P=st.floats(min_value=-100.0, max_value=-1e-4),
           B=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_hyperbolic_residual(self, lam, P, B):
        p = FlowParams(lam, P, B)
        ic = find_intercepts(p)
        assert ic.kind is InterceptKind.HyperbolicSingle
        scale = max(lam * lam * ic.x0 ** 2, 2 * abs(P), 1.0)
        assert abs(radicand_residual(p, ic.x0)) <= 1e-12 * scale


def sign_kind(p):
    """The kind the signs of R = -2P - lam^2 x^2 + B x^alpha give: R at the
    axis, and at its maximum x_c where alpha B > 0.  DomainError where P
    exceeds P_max (lam > 1), None where x_c or P_max is out of range."""
    lam, P, B = p.lam, p.P, p.B
    alpha = 2.0 - 2.0 / lam
    if alpha * B > 0.0:
        try:
            x_c = (alpha * B / (2.0 * lam * lam)) ** (0.5 * lam)
        except OverflowError:
            return None
        p_max = lam * lam * x_c * x_c / (2.0 * (lam - 1.0))
        if not math.isfinite(p_max):
            return None
        if abs(P - p_max) <= 1e-13 * (abs(p_max) + 1e-300):
            return InterceptKind.Center
        if P > p_max:
            return DomainError if lam > 1.0 else InterceptKind.Empty
        if P > 0.0 or lam < 1.0:
            return InterceptKind.EllipticPair
        return InterceptKind.HyperbolicSingle
    if lam < 1.0 and B > 0.0:
        axis = math.inf
    else:
        axis = B - 2.0 * P if lam == 1.0 else -2.0 * P
    if axis > 0.0:
        return InterceptKind.HyperbolicSingle
    return InterceptKind.Empty


def intercepts_outcome(p):
    """find_intercepts(p) within 5 s: its kind, whose turning points are
    local minimisers of |R| over the doubles and within 1e-12 of the largest
    term of R, or the name of the DomainError (NoBracket included) or
    NumericalError it raised, whose message names (lam, P, B)."""
    t0 = time.perf_counter()
    try:
        ic = find_intercepts(p)
    except (DomainError, NumericalError) as exc:
        assert time.perf_counter() - t0 < 5.0, p
        assert f"lam={p.lam!r}, P={p.P!r}, B={p.B!r}" in str(exc), exc
        return type(exc).__name__
    assert time.perf_counter() - t0 < 5.0, p
    want = sign_kind(p)
    assert want is None or ic.kind is want, (p, ic)
    R, lam2, alpha = orbits._radicand_funcs(p)
    if ic.kind is InterceptKind.EllipticPair:
        assert 0.0 < ic.x0 < ic.x1, (p, ic)
        points = (ic.x0, ic.x1)
    elif ic.kind is InterceptKind.HyperbolicSingle:
        assert ic.x0 > 0.0 and ic.x1 is None, (p, ic)
        points = (ic.x0,)
    else:
        points = ()
    for x in points:
        r = abs(R(x))
        assert r <= abs(R(math.nextafter(x, math.inf))), (p, x)
        assert r <= abs(R(math.nextafter(x, 0.0))), (p, x)
        scale = max(lam2 * x * x, abs(p.B) * x ** alpha if p.B else 0.0,
                    2.0 * abs(p.P))
        assert r <= 1e-12 * scale, (p, x)
    return ic.kind


def sweep_triples():
    """lam in (0.51, 1000], |P| and |B| in [1e-300, 1e300] with either
    sign; three draws in ten are pulled into lam < 30, |P|, |B| in
    [1e-3, 1e3]."""
    def triple(usual, lam, log_p, log_b, sp, sb):
        if usual:
            lam = 0.51 + lam % 29.49
            log_p, log_b = log_p / 100.0, log_b / 100.0
        return FlowParams(lam, sp * 10.0 ** log_p, sb * 10.0 ** log_b)
    return st.builds(
        triple, st.integers(0, 9).map(lambda k: k < 3),
        st.floats(0.51, 1000.0, exclude_min=True),
        st.floats(-300.0, 300.0), st.floats(-300.0, 300.0),
        st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]))


class TestTurningPointSolve:
    """One bracketed solve per turning point: whatever the triple,
    find_intercepts returns the kind of the sign analysis with turning
    points that pass the residual check and minimise |R| locally, or raises
    a typed error naming (lam, P, B)."""

    @staticmethod
    def params():
        rng = np.random.default_rng(23)
        for lam in (1.2, 1.5, 2.0, 3.0, 5.0, 13.0, 30.0):
            for B in (1.0, float(10.0 ** rng.uniform(-3.0, 3.0))):
                # alpha B > 0: elliptic pairs from mid-range to next to the
                # centre, and hyperbolic arches
                p_max = steady_state(lam, B).P_max
                for frac in (0.5, 1e-8, 1.0 - 1e-6, 1.0 - 1e-12, -1.0, -1e6):
                    yield FlowParams(lam, frac * p_max, B)
            # alpha B < 0: R falls from the axis
            yield FlowParams(lam, -float(10.0 ** rng.uniform(-6.0, 6.0)),
                             -float(10.0 ** rng.uniform(-3.0, 3.0)))
        for lam, P, B in ((0.7, 1.0, -1.0), (0.7, -1.0, 2.0), (1.0, -1.0, 0.5),
                          (0.4, -3.0, -0.2), (3.0, -2.0, 0.0)):
            yield FlowParams(lam, P, B)

    # an inner turning point below the smallest double, a radicand that is
    # nan (-inf + inf) between the centre and the outer bracket end, one
    # whose terms come within a factor of two of the largest double at its
    # turning point, and one whose terms overflow there
    EXTREMES = {
        FlowParams(1.2, 1.1528751225399146e-168, 1.0):
            ("DomainError", "bracket underflows a double"),
        FlowParams(1.5, 1.7735943027886556, 8.942593947789929e+262):
            ("DomainError", "radicand overflows"),
        FlowParams(1.8330589507873012, -3.3574442582157416e+306,
                   2.1131570852463014e+168):
            (InterceptKind.HyperbolicSingle, None),
        FlowParams(2.62181196233299, 1.0, 9.61855365421427e+141):
            ("DomainError", "radicand overflows"),
    }

    def test_parameter_list(self):
        kinds = [intercepts_outcome(p) for p in self.params()]
        assert kinds.count(InterceptKind.EllipticPair) == 57
        assert kinds.count(InterceptKind.HyperbolicSingle) == 38
        assert kinds.count(InterceptKind.Empty) == 1

    @pytest.mark.parametrize("p", EXTREMES, ids=[
        "inner-underflow", "nan-radicand", "largest-double", "overflow"])
    def test_extremes(self, p):
        kind, text = self.EXTREMES[p]
        assert intercepts_outcome(p) == kind
        if text is not None:
            with pytest.raises(DomainError, match=text):
                find_intercepts(p)

    @given(p=sweep_triples())
    @settings(max_examples=400, deadline=None)
    def test_sweep(self, p):
        intercepts_outcome(p)

    # radicands whose power term B x^alpha, or all of whose terms, are
    # subnormal next to the turning point: the first raised NumericalError
    # (B times the few digits left in x^alpha missed the residual check),
    # the second put x0 3.2e-3 off (every term formed in subnormals)
    SUBNORMAL = (FlowParams(2.5813, -1.1179e-256, -1.6854e59),
                 FlowParams(1.01, -5e-324, 1e-322))

    @staticmethod
    def mp_turning_point(p, lo, hi):
        """The zero of -2P - lam^2 x^2 + B x^alpha in [lo, hi] by 200
        bisections in ln x at 60 digits, with alpha = 2 - 2/lam as R forms
        it in doubles."""
        with mpmath.workdps(60):
            lam, P, B = (mpmath.mpf(v) for v in (p.lam, p.P, p.B))
            alpha = mpmath.mpf(2.0 - 2.0 / p.lam)

            def sign(u):
                x = mpmath.exp(u)
                return -2 * P - lam * lam * x * x + B * x ** alpha > 0

            a, b = mpmath.log(lo), mpmath.log(hi)
            s_a = sign(a)
            for _ in range(200):
                m = (a + b) / 2
                a, b = (m, b) if sign(m) == s_a else (a, m)
            return float(mpmath.exp(a))

    @pytest.mark.parametrize("p", SUBNORMAL, ids=["power-term", "all-terms"])
    def test_subnormal_terms(self, p):
        ic = find_intercepts(p)
        assert ic.kind is InterceptKind.HyperbolicSingle
        want = self.mp_turning_point(p, 0.5 * ic.x0, 2.0 * ic.x0)
        # within two ulps; the exact alpha moves the first root by 6.5e-15,
        # its 1-ulp rounding times |alpha ln x| = 725
        assert ic.x0 == pytest.approx(want, rel=4.5e-16, abs=0.0)

    # triples below lam = 1 with subnormal B, whose bracket end
    # (B/lam^2)^(lam/2) formed from the subnormal quotient misses the
    # turning point by millions of doubles, and the last step's walk toward
    # the least |R| runs to its bound (orbits._ratio_power takes logs).
    # Each x0 is that of the rescaled level set (_intercepts(_rescaled(p)))
    LONG_WALK = (
        (FlowParams(0.6991776076681748, -2.614380699731755e-286, 1.47069e-317),
         2.226248536946111e-111),
        (FlowParams(0.7171304726388666, 1.270491011477e-311, 5.4e-323),
         3.552979107212978e-116),
        (FlowParams(0.7517996048365357, 1.2420616589977142e-293,
                    2.0311067e-316), 2.6575748664757556e-119))

    @pytest.mark.parametrize("p,x0", LONG_WALK,
                             ids=["P<0", "P>0", "P>0-B-2e-316"])
    def test_subnormal_quotient_brackets(self, p, x0):
        start = time.perf_counter()
        ic = find_intercepts(p)
        assert time.perf_counter() - start < 0.1
        assert ic.kind is InterceptKind.HyperbolicSingle
        assert abs(ic.x0 - x0) <= 4 * math.ulp(x0)

    # triples whose walk from the solve's last step passes 8 doubles (and
    # stops within 64 at the first two, within 256 at the third)
    WALKS_PAST_8 = (
        FlowParams(14.083928609796525, -2.5387611802293193e-24,
                   -1.1850609023692172e+26),
        FlowParams(7.975347388192293, 2.3468059949301935e-21,
                   6.98357313896493e+23),
        FlowParams(0.8107911796160658, 2.6483187256110187e-292,
                   2.1551481e-316))

    @pytest.mark.parametrize("p", WALKS_PAST_8,
                             ids=["P<0", "P>0", "P>0-B-2e-316"])
    def test_walk_is_bounded(self, p, monkeypatch):
        # a walk that is not bounded fails the test by the timer instead of
        # hanging it
        def too_long(signum, frame):
            raise TimeoutError(f"find_intercepts({p}) ran past 10 s")

        monkeypatch.setattr(orbits, "_WALK_ULPS", 8)
        handler = signal.signal(signal.SIGALRM, too_long)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            with pytest.raises(NumericalError, match=re.escape(
                    f"turning points of lam={p.lam!r}, P={p.P!r},"
                    f" B={p.B!r}: |R| still falls 8 doubles")):
                find_intercepts(p)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, handler)

    def test_residual_check_is_relative(self):
        # lam = 30, B = 1 next to the centre: every term of R is about
        # 1e-87, so the check's former floor of 1.0 passed any x; a turning
        # point 1e-6 off now fails it
        p = FlowParams(30.0, (1.0 - 1e-6) * steady_state(30.0, 1.0).P_max, 1.0)
        ic = find_intercepts(p)
        R, lam2, alpha = orbits._radicand_funcs(p)
        for x in (ic.x0, ic.x1):
            orbits._check_residual(x, R(x), lam2, alpha, p.B, p.P)
            bad = x * (1.0 + 1e-6)
            with pytest.raises(NumericalError, match="residual"):
                orbits._check_residual(bad, R(bad), lam2, alpha, p.B, p.P)


def scan_rows(lam, region, sign, p_max=None):
    ps, B = _scan_grid(argparse.Namespace(
        lam=lam, n_points=200, region=region, p_min=None, p_max=p_max,
        b_sign=sign))
    return [FlowParams(lam, P, B) for P in ps]


def test_evaluations_per_turning_point(monkeypatch):
    # the radicand evaluations of each turning point, counted the way the
    # tracer contract counts kernel calls, over the period-scan tables of
    # benchmarks/bench_kernels.py and two near-centre scans
    calls = [0]

    def counting(p):
        R, lam2, alpha = radicand_funcs(p)

        def counted(x):
            calls[0] += 1
            return R(x)
        return counted, lam2, alpha

    radicand_funcs = orbits._radicand_funcs
    monkeypatch.setattr(orbits, "_radicand_funcs", counting)
    rows = (scan_rows(5.0, "elliptic", "plus")
            + scan_rows(3.0, "hyperbolic", "plus")
            + scan_rows(3.0, "hyperbolic", "minus"))
    for lam in (3.0, 5.0):
        rows += scan_rows(lam, "elliptic", "plus",
                          (1.0 - 1e-6) * steady_state(lam, 1.0).P_max)
    per_point = []
    for p in rows:
        calls[0] = 0
        span_any(p)
        # an elliptic period solves both turning points, an arch its apex
        per_point.append(calls[0] / (2 if p.P > 0.0 else 1))
    assert statistics.median(per_point) <= 10.0


# (lam, n): P* at B = 1 of the census roots, frozen from an earlier
# bisection on P; the Brent root in ln P lies within 3e-9 relative of each
CENSUS_ROOTS = {
    (10.0, 3): 6.846676616322176e-24,
    (10.0, 4): 3.6906044207341044e-21,
    (13.0, 3): 1.8538570411303935e-34,
    (13.0, 4): 6.2166682559144325e-31,
    (13.0, 5): 2.0733312189496292e-29,
    (18.374073, 3): 6.596902195461735e-55,
    (18.374073, 4): 8.08526431701063e-50,
    (18.374073, 5): 7.731525669227727e-48,
    (18.374073, 6): 1.0594851948274014e-46,
    (24.4, 3): 1.5167341639871312e-79,
    (24.4, 4): 1.169308313352156e-72,
    (24.4, 5): 4.9131260711447217e-70,
    (24.4, 6): 1.1427471135157247e-68,
}


class TestClosedOrbit:
    @pytest.mark.parametrize("lam,n", sorted(CENSUS_ROOTS))
    def test_census_roots_match_quadrature(self, lam, n):
        p = FlowParams(lam, CENSUS_ROOTS[(lam, n)], 1.0)
        ic = find_intercepts(p)
        o = closed_orbit(p, ic.x0)
        assert abs(o.measured_span - span_any(p).T) <= 1e-11
        # one loop from x1, through x0 at half the period, back to x1; the
        # half from x1 is the mirror image of the integrated one
        t, x, y = o.samples.T
        k = len(t) // 2
        assert len(t) == 2 * k + 1
        assert t[0] == 0.0 and t[-1] == o.measured_span
        assert t[k] == 0.5 * o.measured_span
        assert x[k] == ic.x0 and y[k] == 0.0
        assert y[0] == 0.0 and y[-1] == 0.0
        assert x[0] == x[-1] == pytest.approx(ic.x1, rel=1e-9)
        assert np.all(np.diff(t) > 0.0)
        assert np.all(y[1:k] < 0.0) and np.all(y[k + 1:-1] > 0.0)
        assert np.abs(t[:k + 1] + t[k:][::-1] - t[-1]).max() <= 1e-15 * t[-1]
        assert np.array_equal(x[:k + 1], x[k:][::-1])
        assert np.array_equal(y[:k + 1], -y[k:][::-1])

    @pytest.mark.parametrize("frac,tol", [(0.5, 1e-12), (1.0 - 1e-9, 1e-12),
                                          (1e-4, 1e-10), (1e-12, 1e-10)])
    def test_lam_two_continuum(self, frac, tol):
        # every closed orbit at lam = 2 has period pi; the census takes the
        # one at P_max / 2, and orbits that dwell by the separatrix collect
        # more of the per-step error
        p = FlowParams(2.0, frac * steady_state(2.0, 1.0).P_max, 1.0)
        o = closed_orbit(p, find_intercepts(p).x0)
        assert abs(o.measured_span - math.pi) <= tol

    def test_refuses_the_outer_turning_point(self):
        p = FlowParams(5.0, 0.5 * steady_state(5.0, 1.0).P_max, 1.0)
        with pytest.raises(DomainError, match="inner turning point"):
            closed_orbit(p, find_intercepts(p).x1)

    @pytest.mark.parametrize("lam,B", [(5.0, 1.0), (13.0, 1.0),
                                       (0.75, -1.0)])
    def test_refuses_the_centre(self, lam, B):
        # v'(0) at the centre is the rounding noise of K - lam^2, positive
        # at these three; the centre is a single point, not a loop
        alpha = 2.0 - 2.0 / lam
        x_c = (alpha * B / (2.0 * lam * lam)) ** (0.5 * lam)
        p = FlowParams(lam, 0.5 * (B * x_c ** alpha - lam * lam * x_c * x_c),
                       B)
        ic = find_intercepts(p)
        assert ic.kind is InterceptKind.Center
        with pytest.raises(DomainError, match="inner turning point"):
            closed_orbit(p, ic.x0)


class TestIntegrateOrbit:
    def test_closed_orbit_period_lam2(self):
        # psi = 1 + 0.5 cos(2 theta) has period pi; x0 = 0.5, x1 = 1.5
        p = FlowParams(2.0, 1.5, 8.0)
        o = closed_orbit(p, 0.5)
        assert o.measured_span == pytest.approx(math.pi, abs=1e-8)

    def test_harmonic_arch_span(self):
        # B = 0: arch span is pi/lam for any P < 0
        for lam in (0.8, 2.0, 3.7):
            a = 1.3
            p = FlowParams(lam, -lam * lam * a * a / 2, 0.0)
            o = integrate_orbit(p, a)
            assert o.measured_span == pytest.approx(math.pi / lam, abs=1e-8)

    def test_steady_state_return_raises(self):
        p = FlowParams(2.0, 2.0, 8.0)
        with pytest.raises(SteadyStateError):
            integrate_orbit(p, 1.0)

    def test_pressure_conservation_along_samples(self):
        p = FlowParams(3.0, -0.7, 1.0)
        ic = find_intercepts(p)
        o = integrate_orbit(p, ic.x0)
        t, x, y = o.samples.T
        alpha = 2 - 2 / 3.0
        # B-term vanishes at x = 0 since alpha > 0
        bterm = 0.5 * np.where(x > 0, x, 0.0) ** alpha
        H = -y * y / 2 - 4.5 * x * x + bterm
        assert np.abs(H - p.P).max() <= 1e-9 * (1 + abs(p.P))

    def test_singular_axis_refused_below_lam2(self):
        p = FlowParams(1.5, -0.5, 1.0)
        ic = find_intercepts(p)
        with pytest.raises(SingularEndpoint, match=re.escape(
                "x < X_MIN = 1e-12 near the axis") + r".* for FlowParams\(lam=1\.5,"
                r" P=-0\.5, B=1\.0\)"):
            integrate_orbit(p, ic.x0)

    def test_apex_must_be_positive(self):
        # (-1, 0) lies on the level set of B = 0 too, but an orbit from it
        # crosses x = 0 upward before it returns
        p = FlowParams(3.0, -4.5, 0.0)
        with pytest.raises(DomainError, match="is not positive"):
            integrate_orbit(p, -1.0)

    def test_off_level_set_start_rejected(self):
        # the turning points are 0.5 and 1.5; (1, 0) sits on the level P = 2
        p = FlowParams(2.0, 1.5, 8.0)
        with pytest.raises(DomainError, match="off the level set"):
            integrate_orbit(p, 1.0)

    def test_samples_read_only_array(self):
        p = FlowParams(3.0, -0.7, 1.0)
        ic = find_intercepts(p)
        o = integrate_orbit(p, ic.x0)
        s = o.samples
        assert isinstance(s, np.ndarray)
        assert s.dtype == np.float64
        assert s.ndim == 2 and s.shape[1] == 3 and s.shape[0] > 2
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0, 1] = 1.0
        assert np.all(s[:, 1] >= 0.0)
        assert np.all(np.diff(s[:, 0]) > 0.0)

    def test_harmonic_arch_closed_form(self):
        # B = 0 from the apex: x = a cos(lam t), y = -a lam sin(lam t)
        lam, a = 3.0, 0.9
        p = FlowParams(lam, -lam * lam * a * a / 2, 0.0)
        o = integrate_orbit(p, a)
        t, x, y = o.samples.T
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(0.5 * o.measured_span, abs=1e-12)
        assert np.abs(x - a * np.cos(lam * t)).max() <= 1e-7
        assert np.abs(y + a * lam * np.sin(lam * t)).max() <= 1e-7

    def test_closed_orbit_closed_form_lam2(self):
        # psi = 1 + 0.5 cos(2 theta) from its apex, one full period
        p = FlowParams(2.0, 1.5, 8.0)
        o = closed_orbit(p, 0.5)
        t, x, y = o.samples.T
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(o.measured_span)
        assert np.abs(x - (1 + 0.5 * np.cos(2 * t))).max() <= 1e-8
        assert np.abs(y + np.sin(2 * t)).max() <= 1e-8
