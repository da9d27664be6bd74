"""Turning points and orbit integration."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homoeuler import (
    DomainError,
    FlowParams,
    NoBracket,
    PhaseState,
    SingularEndpoint,
    SteadyStateError,
    steady_state,
)
from homoeuler import orbits
from homoeuler.orbits import (
    FixedTime,
    InterceptKind,
    Orbit,
    ReturnToAxis,
    ReturnToStart,
    find_intercepts,
    integrate_orbit,
)


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


class TestIntegrateOrbit:
    def test_closed_orbit_period_lam2(self):
        # psi = 1 + 0.5 cos(2 theta) has period pi; start at its apex
        p = FlowParams(2.0, 1.5, 8.0)
        o = integrate_orbit(p, PhaseState(1.5, 0.0), ReturnToStart())
        assert o.closed
        assert o.measured_span == pytest.approx(math.pi, abs=1e-8)

    def test_period_independent_of_start_point(self):
        p = FlowParams(2.0, 1.5, 8.0)
        o1 = integrate_orbit(p, PhaseState(1.5, 0.0), ReturnToStart())
        y = -math.sqrt(2 * (-p.P - 2 * 1.2 ** 2 + 4 * 1.2))
        o2 = integrate_orbit(p, PhaseState(1.2, y), ReturnToStart())
        assert o2.measured_span == pytest.approx(o1.measured_span, abs=1e-9)

    def test_harmonic_arch_span(self):
        # B = 0: arch span is pi/lam for any P < 0
        for lam in (0.8, 2.0, 3.7):
            a = 1.3
            p = FlowParams(lam, -lam * lam * a * a / 2, 0.0)
            o = integrate_orbit(p, PhaseState(a, 0.0), ReturnToAxis())
            assert o.measured_span == pytest.approx(math.pi / lam, abs=1e-8)

    def test_steady_state_stays_fixed_time(self):
        p = FlowParams(2.0, 2.0, 8.0)
        o = integrate_orbit(p, PhaseState(1.0, 0.0), FixedTime(1.0))
        assert o.measured_span == 1.0
        _, xs, ys = o.samples.T
        assert np.allclose(xs, 1.0, atol=1e-13)
        assert np.allclose(ys, 0.0, atol=1e-13)

    def test_steady_state_return_raises(self):
        p = FlowParams(2.0, 2.0, 8.0)
        with pytest.raises(SteadyStateError):
            integrate_orbit(p, PhaseState(1.0, 0.0), ReturnToStart())

    def test_full_arch_axis_to_axis_lam2(self):
        p = FlowParams(2.0, -1.0, 1.0)
        v = math.sqrt(2.0)  # |y| = sqrt(-2P) at the axis
        o = integrate_orbit(p, PhaseState(0.0, v), ReturnToAxis())
        t, x, y = o.samples.T
        assert x[0] <= 1e-12 and x[-1] <= 1e-12
        assert abs(abs(y[0]) - v) <= 1e-6
        assert abs(abs(y[-1]) - v) <= 1e-6

    def test_pressure_conservation_along_samples(self):
        p = FlowParams(3.0, -0.7, 1.0)
        ic = find_intercepts(p)
        o = integrate_orbit(p, PhaseState(ic.x0, 0.0), ReturnToAxis())
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
            integrate_orbit(p, PhaseState(ic.x0, 0.0), ReturnToAxis())

    def test_off_level_set_start_rejected(self):
        p = FlowParams(2.0, 1.5, 8.0)
        with pytest.raises(DomainError):
            integrate_orbit(p, PhaseState(1.5, 0.5), ReturnToStart())

    def test_axis_start_rejected_below_lam2(self):
        p = FlowParams(1.5, -0.5, 1.0)
        with pytest.raises(DomainError):
            integrate_orbit(p, PhaseState(0.0, 1.0), ReturnToAxis())

    def test_stop_accepts_bare_class(self):
        p = FlowParams(2.0, 1.5, 8.0)
        o = integrate_orbit(p, PhaseState(1.5, 0.0), ReturnToStart)
        assert o.closed

    def test_samples_read_only_array(self):
        p = FlowParams(3.0, -0.7, 1.0)
        ic = find_intercepts(p)
        o = integrate_orbit(p, PhaseState(ic.x0, 0.0), ReturnToAxis())
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
        o = integrate_orbit(p, PhaseState(a, 0.0), ReturnToAxis())
        t, x, y = o.samples.T
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(0.5 * o.measured_span, abs=1e-12)
        assert np.abs(x - a * np.cos(lam * t)).max() <= 1e-7
        assert np.abs(y + a * lam * np.sin(lam * t)).max() <= 1e-7

    def test_closed_orbit_closed_form_lam2(self):
        # psi = 1 + 0.5 cos(2 theta) from its apex, one full period
        p = FlowParams(2.0, 1.5, 8.0)
        o = integrate_orbit(p, PhaseState(1.5, 0.0), ReturnToStart())
        t, x, y = o.samples.T
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(o.measured_span)
        assert np.abs(x - (1 + 0.5 * np.cos(2 * t))).max() <= 1e-8
        assert np.abs(y + np.sin(2 * t)).max() <= 1e-8


class TestReconstructProfile:
    """The profile (theta, psi, psi') is read straight off orbit.samples."""

    def test_steady_profile_constant(self):
        p = FlowParams(2.0, 2.0, 8.0)
        o = integrate_orbit(p, PhaseState(1.0, 0.0), FixedTime(2.0))
        t, ps, dps = o.samples.T
        assert t[0] == 0.0 and t[-1] == pytest.approx(2.0)
        assert np.abs(ps - 1.0).max() <= 1e-12
        assert np.abs(dps).max() <= 1e-12
