"""Quadrature and integrator kernels checked against scipy and closed forms."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from homoeuler import _kernels as K


def raw_halfspan(lam, P, B, lo, hi):
    """Oracle: int dx / sqrt(-2P - lam^2 x^2 + B x^(2-2/lam)) via scipy."""
    def f(x):
        return 1.0 / np.sqrt(-2 * P - lam * lam * x * x + B * x ** (2 - 2 / lam))
    val, err = quad(f, lo, hi, points=[lo, hi], limit=400)
    return val


def elliptic_roots(lam, P, B):
    def R(x):
        return -2 * P - lam * lam * x * x + B * x ** (2 - 2 / lam)
    from scipy.optimize import brentq
    xs = (B * (lam - 1) / lam ** 3) ** (lam / 2)
    x0 = brentq(R, 1e-14, xs, xtol=1e-15)
    x1 = brentq(R, xs, 10 * xs + 10, xtol=1e-15)
    return x0, x1


class TestRuleConstants:
    def test_weights_sum_to_interval_length(self):
        # both rules must integrate the constant 1 over [-1, 1] exactly
        assert 2 * K._WGK[:7].sum() + K._WGK[7] == pytest.approx(2.0, abs=1e-15)
        assert 2 * K._WG[:3].sum() + K._WG[3] == pytest.approx(2.0, abs=1e-15)

    def test_gauss_nodes_are_legendre_roots(self):
        roots = np.sort(np.polynomial.legendre.legroots([0] * 7 + [1]))
        mine = np.sort(np.concatenate([-K._XGK[1:7:2], [0.0], K._XGK[1:7:2]]))
        assert np.allclose(mine, roots, atol=1e-14)


class TestQAlpha:
    @pytest.mark.parametrize("alpha", [-1.5, -0.5, 0.5, 1.0, 1.6])
    def test_matches_direct_form(self, alpha):
        for u in [0.9, 0.6, 0.5, 0.3, 0.01]:
            xi = 1.0 - u
            direct = (1.0 - xi ** alpha) / u
            assert K._q_alpha(u, alpha) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-1.5, 0.5, 1.6])
    def test_small_u_limit(self, alpha):
        # q_alpha(u) -> alpha as u -> 0; the direct form loses all digits there
        assert K._q_alpha(1e-14, alpha) == pytest.approx(alpha, rel=1e-12)
        assert K._q_alpha(0.0, alpha) == alpha


class TestEllipticQuadrature:
    def test_lam_two_flat_period(self):
        for P in (0.001, 0.01, 0.03):
            x0, x1 = elliptic_roots(2.0, P, 1.0)
            v, e, st = K.adaptive_gk(0, 4.0, 1.0, 1.0, -2 * P, x0, x1,
                                     -np.pi / 2, np.pi / 2, 1e-12, 512)
            assert st == 0
            assert 2 * v == pytest.approx(np.pi, abs=1e-11)

    @pytest.mark.parametrize("lam,P,B", [(3.0, 5e-4, 1.0), (1.5, 0.01, 1.0),
                                         (5.0, 5e-8, 1.0)])
    def test_against_scipy(self, lam, P, B):
        x0, x1 = elliptic_roots(lam, P, B)
        v, e, st = K.adaptive_gk(0, lam * lam, B, 2 - 2 / lam, -2 * P, x0, x1,
                                 -np.pi / 2, np.pi / 2, 1e-12, 512)
        ref = raw_halfspan(lam, P, B, x0, x1)
        assert st == 0
        assert v == pytest.approx(ref, rel=5e-9)

    def test_error_estimate_honest_when_budget_exhausted(self):
        x0, x1 = elliptic_roots(3.0, 5e-4, 1.0)
        args = (0, 9.0, 1.0, 2 - 2 / 3.0, -1e-3, x0, x1, -np.pi / 2, np.pi / 2)
        v, e, st = K.adaptive_gk(*args, 1e-30, 4)
        assert st == 1
        ref, _, st_ref = K.adaptive_gk(*args, 1e-13, 512)
        # the unconverged answer must sit inside its own reported error bar
        assert abs(v - ref) <= 10 * e + 1e-13


class TestHyperbolicQuadrature:
    def test_zero_coupling_closed_form(self):
        for lam in (0.7, 1.3, 2.0, 5.0):
            v, e, st = K.adaptive_gk(1, lam * lam, 0.0, 2 - 2 / lam, 0, 0, 0,
                                     0.0, np.pi / 2, 1e-13, 512)
            assert 2 * v == pytest.approx(np.pi / lam, rel=1e-13)

    @pytest.mark.parametrize("lam,P,B", [(2.0, -0.5, 1.0), (3.0, -1.0, 2.0),
                                         (2.0, -0.5, -1.0), (0.8, 1.0, 2.0)])
    def test_against_scipy(self, lam, P, B):
        # apex = largest root of the radicand; arch runs from the axis to it
        from scipy.optimize import brentq

        def R(x):
            return -2 * P - lam * lam * x * x + B * x ** (2 - 2 / lam)
        hi = 1.0
        while R(hi) > 0:
            hi *= 2
        x0 = brentq(R, 1e-12, hi, xtol=1e-15)
        C = B * x0 ** (-2.0 / lam)
        v, e, st = K.adaptive_gk(1, lam * lam, C, 2 - 2 / lam, 0, 0, 0,
                                 0.0, np.pi / 2, 1e-12, 512)
        ref = raw_halfspan(lam, P, B, 0.0, x0) * x0 / x0
        assert st == 0
        assert v * 2 == pytest.approx(2 * ref, rel=5e-9)


class TestCumulative:
    def test_monotone_and_totals(self):
        lam, P, B = 2.0, -0.5, 1.0
        r = np.roots([-4.0, 1.0, 1.0])
        x0 = max(r)
        C = B * x0 ** (-1.0)
        phis = np.linspace(0.0, np.pi / 2, 33)
        th, worst = K.cumulative_theta(1, 4.0, C, 1.0, 0, 0, 0, phis, 1e-12, 256)
        assert worst == 0
        assert np.all(np.diff(th) > 0)
        v, e, st = K.adaptive_gk(1, 4.0, C, 1.0, 0, 0, 0, 0.0, np.pi / 2, 1e-13, 512)
        assert th[-1] == pytest.approx(v, rel=1e-12)


class TestRK45:
    def setup_method(self):
        cap = 1 << 16
        self.bufs = (np.empty(cap), np.empty(cap), np.empty(cap), np.empty(8))

    def run(self, lam, B, x0, y0, t_max, stop_kind, n_stop, guard=0,
            rtol=1e-10, atol=1e-14):
        tb, xb, yb, ev = self.bufs
        out = K.rk45_orbit(lam, B, x0, y0, t_max, rtol, atol, atol,
                           2 * np.pi / 1024, 1e-14, 1e-12, guard,
                           stop_kind, n_stop, tb, xb, yb, ev)
        return out, tb, xb, yb, ev

    def test_linear_center_closed_form(self):
        # B = 0 decouples the power term: x(t) = cos(lam t), orbit period 2 pi/lam
        lam = 3.0
        (st, n, nev, t, x, y), tb, xb, yb, ev = self.run(
            lam, 0.0, 1.0, 0.0, 10.0, 2, 2)
        assert st == 0
        assert t == pytest.approx(2 * np.pi / lam, abs=1e-11)
        assert x == pytest.approx(1.0, abs=1e-10)

    def test_fixed_time_against_scipy(self):
        lam, B = 2.0, 1.0
        sol = solve_ivp(lambda t, s: [s[1], -lam ** 2 * s[0]
                                      + (lam - 1) / lam * B],
                        (0.0, 2.5), [0.2, 0.0], rtol=1e-12, atol=1e-14,
                        dense_output=True)
        (st, n, nev, t, x, y), *_ = self.run(lam, B, 0.2, 0.0, 2.5, 0, 0)
        assert st == 0 and t == 2.5
        ref = sol.sol(2.5)
        assert x == pytest.approx(ref[0], abs=1e-9)
        assert y == pytest.approx(ref[1], abs=1e-9)

    def test_axis_event_velocity(self):
        # arch at lam = 2, P = -1/2: the axis is hit with y = -sqrt(-2P) = -1
        r = np.roots([-4.0, 1.0, 1.0])
        apex = max(r)
        (st, n, nev, t, x, y), *_ = self.run(2.0, 1.0, apex, 0.0, 10.0, 1, 1)
        assert st == 0
        assert abs(x) < 1e-12
        assert y == pytest.approx(-1.0, abs=1e-10)

    def test_pressure_drift_small(self):
        P = 0.01
        x1 = (1 + np.sqrt(1 - 32 * P)) / 8
        (st, n, nev, t, x, y), tb, xb, yb, ev = self.run(
            2.0, 1.0, x1, 0.0, 20.0, 2, 2)
        H = -yb[:n] ** 2 / 2 - 2.0 * xb[:n] ** 2 + 0.5 * xb[:n]
        assert np.abs(H - H[0]).max() < 1e-12

    def test_singular_guard_triggers(self):
        # lam < 2 arch heading into the axis with the guard on stops early
        lam, P, B = 1.5, -0.5, 1.0
        from scipy.optimize import brentq

        def R(x):
            return -2 * P - lam * lam * x * x + B * x ** (2 - 2 / lam)
        apex = brentq(R, 1e-12, 5.0, xtol=1e-15)
        (st, n, nev, t, x, y), *_ = self.run(lam, B, apex, 0.0, 10.0, 1, 1,
                                             guard=1)
        assert st == 4
        # stops at the last state before the step that would cross the floor
        assert 0.0 <= x < 1e-8

    def event_runs(self):
        """(label, run output) for axis and y = 0 events at lam = 2, 3, 5."""
        from scipy.optimize import brentq

        def R(x):
            return 1.4 - 9.0 * x * x + x ** (2 - 2 / 3.0)
        apex3 = brentq(R, 1e-12, 5.0, xtol=1e-15)
        x1_5 = elliptic_roots(5.0, 5e-8, 1.0)[1]
        cases = (("arch lam3 B0", (3.0, 0.0, 0.0, 1.0, 10.0, 1, 1)),
                 ("arch lam3 B1", (3.0, 1.0, apex3, 0.0, 10.0, 1, 1)),
                 ("closed lam2", (2.0, 8.0, 1.5, 0.0, 10.0, 2, 2)),
                 ("closed lam5", (5.0, 1.0, x1_5, 0.0, 10.0, 2, 2)))
        for label, args in cases:
            yield label, self.run(*args)

    def test_events_located_to_rounding(self):
        # B = 0 at lam = 3: x = sin(3 t)/3 returns to the axis at t = pi/3
        (st, n, nev, t, x, y), *_ = self.run(3.0, 0.0, 0.0, 1.0, 10.0, 1, 1)
        assert st == 0
        assert abs(t - np.pi / 3.0) <= 1e-13
        assert abs(x) <= 1e-15
        # psi = 1 + 0.5 cos(2 theta) at lam = 2, B = 8 closes after pi
        (st, n, nev, t, x, y), *_ = self.run(2.0, 8.0, 1.5, 0.0, 10.0, 2, 2)
        assert st == 0 and nev == 2
        assert abs(t - np.pi) <= 1e-12

    def test_event_times_inside_their_steps(self):
        for label, out in self.event_runs():
            (st, n, nev, t, x, y), tb, xb, yb, ev = out
            assert st == 0, label
            ts = tb[:n]
            assert np.all(np.diff(ts) > 0.0), label
            assert ts[-1] == t, label
            assert np.all((ev[:nev] > ts[0]) & (ev[:nev] <= t)), label

    @pytest.mark.skipif(K.JIT_ENABLED,
                        reason="compiled callers do not see the rebinding")
    def test_event_search_work_bound(self, monkeypatch):
        calls = [0]
        substeps = K._dp_substeps

        def counted(*args):
            calls[0] += 1
            return substeps(*args)
        monkeypatch.setattr(K, "_dp_substeps", counted)
        for label, out in self.event_runs():
            (st, n, nev, t, x, y), *_ = out
            events = nev if nev else 1   # the axis event is not in ev_buf
            assert calls[0] <= 8 * events, label
            calls[0] = 0

    def test_buffer_full_status(self):
        tb, xb, yb = np.empty(4), np.empty(4), np.empty(4)
        ev = np.empty(8)
        out = K.rk45_orbit(2.0, 1.0, 0.2, 0.0, 10.0, 1e-10, 1e-14, 1e-14,
                           2 * np.pi / 1024, 1e-14, 1e-12, 0, 0, 0,
                           tb, xb, yb, ev)
        assert out[0] == 2


class TestJitToggle:
    def test_env_flag_disables_jit_same_numbers(self):
        code = (
            "import numpy as np\n"
            "from homoeuler import _kernels as K\n"
            "assert not K.JIT_ENABLED\n"
            "v, e, s = K.adaptive_gk(1, 4.0, 1.2, 1.0, 0, 0, 0, 0.0,"
            " np.pi/2, 1e-12, 256)\n"
            "print(repr(float(v)))\n"
        )
        env = dict(os.environ, HOMOEULER_DISABLE_JIT="1")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        v_plain = float(out.stdout.strip())
        v_jit, _, _ = K.adaptive_gk(1, 4.0, 1.2, 1.0, 0, 0, 0, 0.0,
                                    np.pi / 2, 1e-12, 256)
        assert v_plain == pytest.approx(v_jit, rel=1e-14)
