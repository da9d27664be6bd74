"""Turning points and orbit integration."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homoeuler import (
    DomainError,
    FlowParams,
    NoBracket,
    SingularEndpoint,
    SteadyStateError,
    steady_state,
)
from homoeuler import orbits
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


# Test-only copies of the step-by-step turning-point scans: one radicand
# evaluation per grid point.  The galloping scans must give the same bracket
# bit for bit, and the same exception where these raise.
def step_march_up(R, start):
    a, fa = start, R(start)
    for _ in range(orbits._SCAN_MAX_STEPS):
        b = a * orbits._SCAN_FACTOR
        fb = R(b)
        if fb <= 0.0:
            return a, b, fa, fb
        a, fa = b, fb
    raise NoBracket(f"no sign change found scanning up from {start!r}")


def step_march_down(R, start):
    b, fb = start, R(start)
    for _ in range(orbits._SCAN_MAX_STEPS):
        a = b / orbits._SCAN_FACTOR
        fa = R(a)
        if fa <= 0.0:
            return a, b, fa, fb
        b, fb = a, fa
    raise NoBracket(f"no sign change found scanning down from {start!r}")


def outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # the type and text must match too
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        return tuple(float(v).hex() for v in out)
    return out.kind, float(out.x0).hex(), out.x1 and float(out.x1).hex()


class TestGallopingScanOracle:
    @staticmethod
    def params():
        rng = np.random.default_rng(23)
        for lam in (1.2, 1.5, 2.0, 3.0, 5.0, 13.0, 30.0):
            for B in (1.0, float(10.0 ** rng.uniform(-3.0, 3.0))):
                # alpha B > 0: elliptic pairs (up-scan from the centre and
                # down-scan to the inner root) from mid-range to next to the
                # centre, and hyperbolic arches
                p_max = steady_state(lam, B).P_max
                for frac in (0.5, 1e-8, 1.0 - 1e-6, 1.0 - 1e-12, -1.0, -1e6):
                    yield FlowParams(lam, frac * p_max, B)
            # alpha B < 0: the up-scan from 8 decades below the root
            yield FlowParams(lam, -float(10.0 ** rng.uniform(-6.0, 6.0)),
                             -float(10.0 ** rng.uniform(-3.0, 3.0)))
        for lam, P, B in ((0.7, 1.0, -1.0), (0.7, -1.0, 2.0), (1.0, -1.0, 0.5),
                          (0.4, -3.0, -0.2), (3.0, -2.0, 0.0)):
            yield FlowParams(lam, P, B)
        # no sign change within the scan's 300 decades, and a scan whose
        # radicand is nan (-inf + inf) at every grid point
        yield FlowParams(1.2, 1.1528751225399146e-168, 1.0)
        yield FlowParams(1.5, 1.7735943027886556, 8.942593947789929e+262)
        # radicands that turn nan (inf - inf) past their sign change, and
        # before a power overflows
        yield FlowParams(1.8330589507873012, -3.3574442582157416e+306,
                         2.1131570852463014e+168)
        yield FlowParams(2.62181196233299, 1.0, 9.61855365421427e+141)

    def test_scans_match_step_by_step(self, monkeypatch):
        scans = []
        marches = {"up": orbits._march_up, "down": orbits._march_down}
        for way, march in marches.items():
            def record(R, start, way=way, march=march):
                scans.append((way, R, start))
                return march(R, start)
            monkeypatch.setattr(orbits, f"_march_{way}", record)
        for p in self.params():
            outcome(find_intercepts, p)
        steps = {"up": step_march_up, "down": step_march_down}
        kinds = set()
        for way, R, start in scans:
            want = outcome(steps[way], R, start)
            assert outcome(marches[way], R, start) == want, (way, start)
            kinds.add((way, want[0] == "NoBracket"))
        assert kinds == {("up", False), ("down", False), ("up", True),
                         ("down", True)}

    def test_intercepts_match_step_by_step(self, monkeypatch):
        got = [outcome(find_intercepts, p) for p in self.params()]
        monkeypatch.setattr(orbits, "_march_up", step_march_up)
        monkeypatch.setattr(orbits, "_march_down", step_march_down)
        assert got == [outcome(find_intercepts, p) for p in self.params()]

    @pytest.mark.parametrize("way", ["up", "down"])
    def test_synthetic_radicands(self, way):
        march = {"up": orbits._march_up, "down": orbits._march_down}[way]
        step = {"up": step_march_up, "down": step_march_down}[way]
        # 20 and 40 decades from the start, in the direction of the scan
        near, far = (1e20, 1e40) if way == "up" else (1e-20, 1e-40)

        def past(x, edge):
            return x > edge if way == "up" else x < edge

        def overflow(x):
            # positive until a power of a large (up) or tiny (down) x
            # overflows
            return 1.0 + 0.0 * (x ** 8.0 if way == "up" else x ** -8.0)

        def nan_gap(x):
            # nan over 20 decades of the grid, then negative: the step scan
            # goes on through the nan
            if not past(x, near):
                return 1.0
            return -1.0 if past(x, far) else math.nan

        def sign_then_nan(x):
            # negative for a grid point or two past 20 decades, then nan
            if not past(x, near):
                return 1.0
            return -1.0 if not past(x, near ** 1.001) else math.nan

        def nan_then_raise(x):
            # nan from 20 decades on, a power overflows from 40 decades on,
            # and nan again from 60 decades, as at an infinite grid point
            if past(x, far ** 1.5):
                return math.nan
            if past(x, far):
                raise OverflowError("power out of range")
            return 1.0 if not past(x, near) else math.nan

        for R, expect in ((lambda x: 1.0, "NoBracket"),
                          (overflow, "OverflowError"),
                          (nan_gap, (-1.0).hex()),
                          (sign_then_nan, (-1.0).hex()),
                          (nan_then_raise, "OverflowError"),
                          (lambda x: -1.0 if past(x, far) else 1.0,
                           (-1.0).hex())):
            want = outcome(step, R, 1.0)
            assert expect in want
            assert outcome(march, R, 1.0) == want

    @pytest.mark.parametrize("way", ["up", "down"])
    def test_nan_gap_ending_inside_a_stride(self, way):
        # nan from grid index 100 to 119, then negative: the gallop from 64
        # lands on 128, past the gap, and the bisection stops at the first
        # nan; the restart from there must probe the points after it, not
        # 128 again
        march = {"up": orbits._march_up, "down": orbits._march_down}[way]
        step = {"up": step_march_up, "down": step_march_down}[way]
        sign = 1.0 if way == "up" else -1.0

        def R(x):
            k = sign * math.log(x) / math.log(orbits._SCAN_FACTOR)
            if k < 99.5:
                return 1.0
            return -1.0 if k > 119.5 else math.nan
        want = outcome(step, R, 1.0)
        assert (-1.0).hex() in want
        assert outcome(march, R, 1.0) == want


def step_grid(start, up, n):
    """g_0 .. g_{n-1} of a scan from start, one product after the other."""
    grid = [start]
    for _ in range(n - 1):
        g = grid[-1]
        grid.append(g * orbits._SCAN_FACTOR if up else g / orbits._SCAN_FACTOR)
    return grid


class TestScanGridReuse:
    """_scan keeps the last grid of each direction and extends it across
    calls; its points must be the step-by-step loop's bits."""

    @staticmethod
    def stop_after(start, up, k):
        # positive up to grid index k - 1 of the scan from start, then -1
        edge = step_grid(start, up, k + 1)[k]
        if up:
            return lambda x: -1.0 if x >= edge else 1.0
        return lambda x: -1.0 if x <= edge else 1.0

    def test_grids_match_step_by_step(self, monkeypatch):
        monkeypatch.setattr(orbits, "_GRIDS",
                            {True: [math.nan], False: [math.nan]})
        steps = {True: step_march_up, False: step_march_down}
        marches = {True: orbits._march_up, False: orbits._march_down}
        s1, s2 = 0.7234512, 3.1e-5
        # a fresh start, the same start again (reused, then extended across
        # calls), another start (rebuilt), then the first one again, in
        # both directions and interleaved
        calls = [(s1, True, 5), (s1, True, 3), (s1, True, 300),
                 (s1, False, 40), (s1, True, 2000), (s2, True, 17),
                 (s1, False, 1), (s1, False, 900), (s2, False, 64),
                 (s1, True, 129), (s1, True, 7000)]
        lengths = {True: 0, False: 0}
        for start, up, k in calls:
            R = self.stop_after(start, up, k)
            want = outcome(steps[up], R, start)
            assert outcome(marches[up], R, start) == want, (start, up, k)
            grid = orbits._GRIDS[up]
            assert grid[0] == start
            assert ([g.hex() for g in grid]
                    == [g.hex() for g in step_grid(start, up, len(grid))])
            lengths[up] = max(lengths[up], len(grid))
        # the longest scans built grids far past one gallop stride
        assert lengths[True] > 7000 and lengths[False] > 900


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
