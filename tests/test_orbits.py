"""Turning points and orbit integration."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homoeuler import (
    DomainError,
    FlowParams,
    PhaseState,
    SingularEndpoint,
    SteadyStateError,
    steady_state,
)
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
