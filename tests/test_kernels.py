"""Quadrature and integrator kernels checked against scipy and closed forms."""

import functools
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from homoeuler import _kernels as K
from homoeuler import periods
from homoeuler.core import FlowParams, steady_state
from homoeuler.errors import EventNotFound, SingularEndpoint, StepFailure
from homoeuler.orbits import find_intercepts


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


def period_args(lam, P, B):
    """period_integrand's arguments (lam^2, C, 2/lam, u1) for the closed
    orbit of (lam, P, B): the turning points by brentq in x, then u1 by
    brentq on V(u) in u = ln(x/x0)."""
    from scipy.optimize import brentq
    x0, x1 = elliptic_roots(lam, P, B)
    C = B * x0 ** (-2.0 / lam)
    beta = 2.0 / lam

    def V(u):
        return (lam * lam * math.expm1(-2.0 * u)
                - C * math.exp(-beta * u) * math.expm1((beta - 2.0) * u))
    u = math.log(x1 / x0)
    return lam * lam, C, beta, brentq(V, 0.5 * u, 2.0 * u, xtol=1e-15)


class TestRuleConstants:
    # the rule constants are tuples of Python floats; slices are read as arrays
    def test_weights_sum_to_interval_length(self):
        # both rules must integrate the constant 1 over [-1, 1] exactly
        assert 2 * np.asarray(K._WGK[:7]).sum() + K._WGK[7] == pytest.approx(2.0, abs=1e-15)
        assert 2 * np.asarray(K._WG[:3]).sum() + K._WG[3] == pytest.approx(2.0, abs=1e-15)

    def test_gauss_nodes_are_legendre_roots(self):
        roots = np.sort(np.polynomial.legendre.legroots([0] * 7 + [1]))
        gauss = np.asarray(K._XGK[1:7:2])
        mine = np.sort(np.concatenate([-gauss, [0.0], gauss]))
        assert np.allclose(mine, roots, atol=1e-14)


# Test-only copies of the array-and-loop kernels on NumPy scalars (np.sin,
# np.sqrt, rule constants in arrays, the Dormand-Prince stages in a loop).
# The scalar kernels must reproduce them bit for bit, including the inf and
# nan that NumPy gives where a Python float would raise.
_XGK_ARR, _WGK_ARR, _WG_ARR = (np.array(c) for c in (K._XGK, K._WGK, K._WG))


def loop_dp_step(x, y, h, lam, B):
    kx = np.empty(7)
    ky = np.empty(7)
    kx[0], ky[0] = K._phase_rhs(x, y, lam, B)
    for i in range(1, 7):
        ax = 0.0
        ay = 0.0
        for j in range(i):
            ax += K._DP_A[i, j] * kx[j]
            ay += K._DP_A[i, j] * ky[j]
        kx[i], ky[i] = K._phase_rhs(x + h * ax, y + h * ay, lam, B)
    x5 = x
    y5 = y
    for i in range(6):
        x5 += h * K._DP_A[6, i] * kx[i]
        y5 += h * K._DP_A[6, i] * ky[i]
    ex = 0.0
    ey = 0.0
    for i in range(7):
        ex += K._DP_E[i] * kx[i]
        ey += K._DP_E[i] * ky[i]
    return x5, y5, h * ex, h * ey


def np_integrand_hyp(lam2, cc, alpha, d0, phi):
    sz = np.sin(0.5 * (0.5 * np.pi - phi))
    u = 2.0 * sz * sz
    if u >= 0.5:
        # xi = sin(phi) <= 1/2: D (1 - xi) = d0 - lam2 xi^2 + C xi^alpha,
        # where xi^alpha is inf once it overflows or xi = 0 with alpha < 0
        xi = np.float64(np.sin(phi))
        with np.errstate(over="ignore", divide="ignore"):
            p = xi ** alpha
        d = (d0 - lam2 * xi * xi + cc * p) / (1.0 - xi)
    else:
        d = lam2 * (2.0 - u) - cc * K._q_alpha(u, alpha)
    if not d > 0.0:
        return np.inf
    return np.sqrt(2.0 - u) / np.sqrt(d)


def loop_gk_panel(f, a, b):
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    fc = f(c)
    resk = _WGK_ARR[7] * fc
    resg = _WG_ARR[3] * fc
    for j in range(7):
        dx = hw * _XGK_ARR[j]
        f1 = f(c - dx)
        f2 = f(c + dx)
        resk += _WGK_ARR[j] * (f1 + f2)
        if j % 2 == 1:
            resg += _WG_ARR[(j - 1) // 2] * (f1 + f2)
    return resk * hw, abs(resk - resg) * hw


def hexes(values):
    return tuple(float(v).hex() for v in values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the oracles' inf/nan
class TestScalarKernelOracle:
    """The scalar kernels against the loop-form oracles above."""

    def test_dp_step(self):
        rng = np.random.default_rng(8)
        reached_axis = 0
        for lam in (1.5, 2.0, 3.0, 13.0):
            for B in (0.0, 0.8, -1.3):
                # a few fixed states, then random ones: a reordered sum
                # differs from the loop only in some last bits
                states = [(x, y, h) for x in (0.0, 1e-3, 0.4, 1.2)
                          for y in (0.0, -0.0, -1.0) for h in (1e-3, 0.7)]
                states += zip(rng.uniform(0.0, 1.5, 60).tolist(),
                              rng.uniform(-2.0, 2.0, 60).tolist(),
                              rng.uniform(1e-3, 0.5, 60).tolist())
                for x, y, h in states:
                    got = K._dp_step(x, y, h, lam, B)
                    want = loop_dp_step(x, y, h, lam, B)
                    assert hexes(got) == hexes(want), (x, y, h, lam, B)
                    reached_axis += x + h * K._A10 * y <= 0.0 < x
        assert reached_axis > 0

    @staticmethod
    def ell_params():
        # orbits from next to the centre (half-width 1/26 of it) to next
        # to the separatrix (u1 = 12.6, where C = 1485 against lam^2 = 64)
        for lam, P in ((1.5, 0.01), (3.0, 5e-4), (5.0, 5e-8), (8.0, 2e-15),
                       (3.0, 9.1266e-4), (8.0, 3e-23)):
            yield period_args(lam, P, 1.0)

    def test_integrand_ell(self):
        # period_integrand against 1/sqrt(V/(u (u1 - u))) at 40 digits,
        # from nodes 1e-12 from either end to the form switch at phi = 0
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(5)
        for args in self.ell_params():
            lam2, C, beta, u1 = (mp.mpf(a) for a in args)

            def V(u):
                return (lam2 * mp.expm1(-2 * u)
                        - C * mp.exp(-beta * u) * mp.expm1((beta - 2) * u))
            u1 = mp.findroot(V, u1)
            f = K.period_integrand(*args)
            eps = 10.0 ** rng.uniform(-12.0, -1.0, 20)
            phis = np.concatenate([rng.uniform(-np.pi / 2, np.pi / 2, 40),
                                   -np.pi / 2 + eps, np.pi / 2 - eps,
                                   [0.0, 1e-9, -1e-9]])
            for phi in phis.tolist():
                u = u1 / 2 * (1 + mp.sin(phi))
                want = 1 / mp.sqrt(V(u) / (u * (u1 - u)))
                assert f(phi) == pytest.approx(float(want), rel=1e-13,
                                               abs=0.0), (args, phi)

    def test_integrand_ell_forms_meet(self):
        # V is formed about u = 0 up to u1/2 and about u1 past it; next to
        # the switch both forms give the direct V about 0, in floats.  Next
        # to the centre V's terms cancel to a few percent of themselves,
        # and the forms differ by up to 1.2e-14 there (4e-16 elsewhere)
        for lam2, C, beta, u1 in self.ell_params():
            f = K.period_integrand(lam2, C, beta, u1)
            for phi in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3):
                u = 0.5 * u1 * (1.0 + math.sin(phi))
                v = (lam2 * math.expm1(-2.0 * u) - C * math.exp(-beta * u)
                     * math.expm1((beta - 2.0) * u))
                assert f(phi) == pytest.approx(
                    1.0 / math.sqrt(v / (u * (u1 - u))), rel=1e-13, abs=0.0)

    def test_integrand_hyp(self):
        rng = np.random.default_rng(6)
        # alpha = -38 (lam = 0.05) overflows xi**alpha as xi = sin(phi) -> 0;
        # d0 = lam2 - C, the integrand's value at the axis, except at the
        # separatrix-like (9, 9): there the caller passes -2P/x0^2 > 0
        for lam2, cc, alpha, d0 in ((4.0, 1.2, 1.0, 2.8),
                                    (9.0, -0.7, 4.0 / 3.0, 9.7),
                                    (9.0, 9.0, 4.0 / 3.0, 1.5e-17),
                                    (0.64, 2.0, -0.5, -1.36),
                                    (0.0025, 1.0, -38.0, -0.9975)):
            # u = 1 - sin(phi) is 0 at pi/2, exactly 1/2 at pi/6 and nan at
            # a nan phi: the edges of the inline 0 < u < 1/2 branch
            phis = np.concatenate([
                rng.uniform(0.0, np.pi / 6, 20),            # u >= 1/2
                np.pi / 2 - rng.uniform(0.0, 1e-3, 20),     # u near 0
                rng.uniform(0.0, np.pi / 2, 20),
                [0.0, np.pi / 2, 1e-12, np.pi / 6, np.nan]])
            f = K.hyp_integrand(lam2, cc, alpha, d0)
            for phi in phis:
                phi = float(phi)
                got = f(phi)
                want = np_integrand_hyp(lam2, cc, alpha, d0, phi)
                assert got.hex() == float(want).hex(), (phi, lam2, cc, alpha)
        sz = math.sin(0.5 * (0.5 * math.pi - math.pi / 6))
        assert 2.0 * sz * sz == 0.5
        # next to the axis D is d0, not the lam2 - C = 0 that cancelled
        f = K.hyp_integrand(9.0, 9.0, 4.0 / 3.0, 1.5e-17)
        assert f(1e-30) == pytest.approx(1.5e-17 ** -0.5, rel=1e-12)

    def test_gk_panel(self):
        rng = np.random.default_rng(9)
        for args in self.ell_params():
            cuts = np.sort(rng.uniform(-np.pi / 2, np.pi / 2, 6))
            edges = [-np.pi / 2, *cuts, np.pi / 2]
            f = K.period_integrand(*args)
            for a, b in zip(edges[:-1], edges[1:]):
                got = K._gk_panel(f, float(a), float(b))
                assert hexes(got) == hexes(loop_gk_panel(f, a, b))
        for args in ((4.0, 1.2, 1.0, 2.8), (0.64, 2.0, -0.5, -1.36),
                     (0.0025, 1.0, -38.0, -0.9975)):
            f = K.hyp_integrand(*args)
            f_np = functools.partial(np_integrand_hyp, *args)
            cuts = np.sort(rng.uniform(0.0, np.pi / 2, 6))
            edges = [0.0, *cuts, np.pi / 2]
            for a, b in zip(edges[:-1], edges[1:]):
                got = K._gk_panel(f, float(a), float(b))
                assert hexes(got) == hexes(loop_gk_panel(f_np, a, b))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_gk_panel_inf_and_nan_nodes(self, bad):
        # an integrand that is inf or nan at some of the nodes: at the
        # centre, at one node of a Kronrod-only pair (j even) or of a Gauss
        # pair (j odd), on one side only or on both
        def integrand(cut_lo, cut_hi):
            def f(x):
                return bad if cut_lo <= x <= cut_hi else math.cos(3.0 * x)
            return f
        for cut_lo, cut_hi in ((0.0, 0.0), (-1.0, -0.98), (0.9, 1.0),
                               (-0.6, -0.55), (-1.0, 1.0), (0.3, 0.5)):
            f = integrand(cut_lo, cut_hi)
            got = K._gk_panel(f, -1.0, 1.0)
            assert hexes(got) == hexes(loop_gk_panel(f, -1.0, 1.0))


def linear_adaptive_gk(f, a, b, tol, max_panels):
    """Test-only restatement of adaptive_gk: an explicit strict-> scan for
    the worst panel, and the in-order total summed after every bisection."""
    aa = np.empty(max_panels)
    bb = np.empty(max_panels)
    vv = np.empty(max_panels)
    ee = np.empty(max_panels)
    v, e = K._gk_panel(f, a, b)
    aa[0] = a
    bb[0] = b
    vv[0] = v
    ee[0] = e
    n = 1
    total_e = e
    while total_e > tol and n < max_panels:
        iw = 0
        for i in range(1, n):
            if ee[i] > ee[iw]:
                iw = i
        am = aa[iw]
        bm = bb[iw]
        mid = 0.5 * (am + bm)
        if mid <= am or mid >= bm:
            break
        v1, e1 = K._gk_panel(f, am, mid)
        v2, e2 = K._gk_panel(f, mid, bm)
        aa[iw] = am
        bb[iw] = mid
        vv[iw] = v1
        ee[iw] = e1
        aa[n] = mid
        bb[n] = bm
        vv[n] = v2
        ee[n] = e2
        n += 1
        total_e = 0.0
        for i in range(n):
            total_e += ee[i]
    total_v = 0.0
    for i in range(n):
        total_v += vv[i]
    status = 0 if total_e <= tol else 1
    return total_v, total_e, status


def gk_outcome(fn, *args):
    v, e, status = fn(*args)
    return float(v).hex(), float(e).hex(), status


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the oracle's inf/nan
class TestPanelSelectionOracle:
    """adaptive_gk's max/index panel choice and in-order total against the
    explicit strict-> scan above, by float.hex of value and estimate, and
    the status: the first of equal estimates is bisected, and only the
    in-order sum of the estimates decides when the loop stops."""

    @staticmethod
    def sweep(rng):
        # yields (kind, args, whether to run the 1024-panel budget): elliptic
        # periods in u = ln(x/x0) at B = 1 from P/P_max = 0.3 to 1 - 1e-6,
        # and hyperbolic arches with C of both signs
        for lam in (1.5, 3.0, 5.0, 13.0):
            p_max = steady_state(lam, 1.0).P_max
            for frac in (0.3, 1.0 - 1e-4, 1.0 - 1e-6):
                ic = find_intercepts(FlowParams(lam, frac * p_max, 1.0))
                C = ic.x0 ** (-2.0 / lam)
                u1 = periods._outer_end(lam * lam, C, 2.0 / lam,
                                        math.log(ic.x1 / ic.x0))
                f = K.period_integrand(lam * lam, C, 2.0 / lam, u1)
                yield ("ell", (f, -np.pi / 2, np.pi / 2),
                       lam > 4.0 and frac > 0.99999)
        for lam, cc in ((0.7, 1.3), (1.5, -0.8), (2.0, 2.5), (5.0, 4.0)):
            cc *= rng.uniform(0.9, 1.1)
            f = K.hyp_integrand(lam * lam, cc, 2.0 - 2.0 / lam,
                                lam * lam - cc)
            yield "hyp", (f, 0.0, np.pi / 2), lam in (0.7, 5.0)

    def test_seeded_sweep_with_budget_hits(self):
        rng = np.random.default_rng(17)
        hits = {}
        for kind, args, full in self.sweep(rng):
            runs = [(max_panels, tol)
                    for max_panels in (1, 2, 3, int(rng.integers(4, 200)))
                    for tol in (1e-12, 10.0 ** rng.uniform(-15.0, -6.0))]
            if full:
                # the whole budget: 2047 panels (the oracle's O(n^2) scan
                # makes this the slow part, so only some rows run it)
                runs.append((1024, 0.0))
            for max_panels, tol in runs:
                want = gk_outcome(linear_adaptive_gk, *args, tol, max_panels)
                got = gk_outcome(K.adaptive_gk, *args, tol, max_panels)
                assert got == want, (args, tol, max_panels)
                if want[2] == 1:
                    hits[kind, max_panels] = True
        for kind in ("ell", "hyp"):
            for max_panels in (1, 2, 3, 1024):
                assert hits.get((kind, max_panels)), (kind, max_panels)

    @staticmethod
    def synthetic(monkeypatch, panel):
        monkeypatch.setattr(K, "_gk_panel", panel)

    def test_equal_estimates_go_to_the_lower_index(self, monkeypatch):
        # the estimate depends on the panel width only, so every level of
        # the bisection is a tie; the linear scan takes the first of them
        def panel(f, a, b):
            return (b - a) * math.cos(a), 2.0 ** round(1.5 * math.log2(b - a))
        self.synthetic(monkeypatch, panel)
        for tol in (0.0, 1e-3, 0.3):
            for max_panels in (2, 3, 50, 1024):
                args = (None, 0.0, 1.0, tol, max_panels)
                assert (gk_outcome(K.adaptive_gk, *args)
                        == gk_outcome(linear_adaptive_gk, *args))

    @pytest.mark.parametrize("bad", ["nan", "inf", "inf until narrow"])
    def test_nan_and_inf_estimates(self, monkeypatch, bad):
        # a nan estimate stops the loop at once (nan > tol is false); an inf
        # one keeps it going, for good or until its panel is bisected away
        def panel(f, a, b):
            e = (b - a) ** 3 * (1.0 + abs(math.sin(40.0 * a)))
            if a <= 0.3141 < b:
                if bad == "nan" and b - a < 0.01:
                    e = math.nan
                elif bad == "inf" or b - a > 0.01:
                    e = math.inf
            return (b - a) * math.cos(a), e
        self.synthetic(monkeypatch, panel)
        for tol in (1e-9, 1e-5, math.inf):
            for max_panels in (1, 3, 1024):
                args = (None, 0.0, 1.0, tol, max_panels)
                assert (gk_outcome(K.adaptive_gk, *args)
                        == gk_outcome(linear_adaptive_gk, *args))

    def test_stopping_test_at_the_rounding_level(self, monkeypatch):
        # estimates of wildly different sizes make any other order of
        # summation (or a running total) differ from the in-order sum in
        # the last bits; with tol set to the in-order sum after k
        # bisections (or one ulp either side) only that sum decides when the
        # loop stops
        def panel(f, a, b):
            w = b - a
            return w, w ** 3 * 10.0 ** (8.0 * math.sin(1e3 * a + 1.0) ** 2)
        self.synthetic(monkeypatch, panel)
        args = (None, 0.0, 1.0)
        for k in range(1, 120):
            # the in-order sum after k bisections, as the budget leaves it
            s_k = linear_adaptive_gk(*args, 0.0, k + 1)[1]
            for tol in (s_k, math.nextafter(s_k, 0.0),
                        math.nextafter(s_k, math.inf)):
                assert (gk_outcome(K.adaptive_gk, *args, tol, 1024)
                        == gk_outcome(linear_adaptive_gk, *args, tol, 1024))

    def test_unrefined_estimate_keeps_its_sign(self, monkeypatch):
        # with no bisection the first panel's estimate is returned as is,
        # -0.0 included (0.0 + -0.0 would be +0.0)
        self.synthetic(monkeypatch, lambda *args: (1.0, -0.0))
        args = (None, 1.0, 0.0, 1e-10, 16)
        assert gk_outcome(K.adaptive_gk, *args) == ("0x1.0000000000000p+0",
                                                   "-0x0.0p+0", 0)
        assert gk_outcome(linear_adaptive_gk, *args) == gk_outcome(
            K.adaptive_gk, *args)

    def test_inf_integrand(self):
        # lam = 0.01, B = 0 (span_quadrature(0.01, -1, 0)): C xi^alpha is
        # 0 * inf, so the integrand is inf at the nodes near phi = 0
        args = (K.hyp_integrand(1e-4, 0.0, -198.0, 1e-4), 0.0, np.pi / 2)
        for max_panels in (1, 2, 1024):
            want = gk_outcome(linear_adaptive_gk, *args, 1e-10, max_panels)
            assert want[1] in ("inf", "nan")
            assert gk_outcome(K.adaptive_gk, *args, 1e-10, max_panels) == want


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
            f = K.period_integrand(*period_args(2.0, P, 1.0))
            v, e, st = K.adaptive_gk(f, -np.pi / 2, np.pi / 2, 1e-12, 512)
            assert st == 0
            assert 2 * v == pytest.approx(np.pi, abs=1e-11)

    @pytest.mark.parametrize("lam,P,B", [(3.0, 5e-4, 1.0), (1.5, 0.01, 1.0),
                                         (5.0, 5e-8, 1.0)])
    def test_against_scipy(self, lam, P, B):
        # the half period in u against scipy's quad of dx/sqrt(R) in x
        x0, x1 = elliptic_roots(lam, P, B)
        f = K.period_integrand(*period_args(lam, P, B))
        v, e, st = K.adaptive_gk(f, -np.pi / 2, np.pi / 2, 1e-12, 512)
        ref = raw_halfspan(lam, P, B, x0, x1)
        assert st == 0
        assert v == pytest.approx(ref, rel=5e-9)

    def test_error_estimate_honest_when_budget_exhausted(self):
        args = (K.period_integrand(*period_args(3.0, 5e-4, 1.0)),
                -np.pi / 2, np.pi / 2)
        v, e, st = K.adaptive_gk(*args, 1e-30, 4)
        assert st == 1
        ref, _, st_ref = K.adaptive_gk(*args, 1e-13, 512)
        # the unconverged answer must sit inside its own reported error bar
        assert abs(v - ref) <= 10 * e + 1e-13


class TestHyperbolicQuadrature:
    def test_zero_coupling_closed_form(self):
        for lam in (0.7, 1.3, 2.0, 5.0):
            f = K.hyp_integrand(lam * lam, 0.0, 2 - 2 / lam, lam * lam)
            v, e, st = K.adaptive_gk(f, 0.0, np.pi / 2, 1e-13, 512)
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
        f = K.hyp_integrand(lam * lam, C, 2 - 2 / lam, -2 * P / x0 ** 2)
        v, e, st = K.adaptive_gk(f, 0.0, np.pi / 2, 1e-12, 512)
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
        f = K.hyp_integrand(4.0, C, 1.0, 4.0 - C)
        th, worst = K.cumulative_theta(f, phis, 1e-12, 256)
        assert worst == 0
        assert np.all(np.diff(th) > 0)
        v, e, st = K.adaptive_gk(f, 0.0, np.pi / 2, 1e-13, 512)
        assert th[-1] == pytest.approx(v, rel=1e-12)


class TestRK45:
    @staticmethod
    def run(lam, P, B, x0, t_max=10.0, h_max=2 * np.pi / 1024):
        """rk45_orbit from the apex (x0, 0): (t_end, x_end, y_end) and the
        sample arrays."""
        ts, xs, ys = K.rk45_orbit(FlowParams(lam, P, B), x0, t_max, h_max)
        return (ts[-1], xs[-1], ys[-1]), np.array(ts), np.array(xs), \
            np.array(ys)

    def test_linear_center_closed_form(self):
        # B = 0 decouples the power term: x(t) = cos(lam t) from the apex,
        # which meets the axis at t = pi/(2 lam) with y = -lam
        lam = 3.0
        (t, x, y), *_ = self.run(lam, -4.5, 0.0, 1.0)
        assert t == pytest.approx(np.pi / (2 * lam), abs=1e-11)
        assert y == pytest.approx(-lam, abs=1e-10)

    def test_arch_against_scipy(self):
        # lam = 2, B = 1 from the apex x1 = 1/2 of P = -1/4: the states at
        # every sample and at the axis event match solve_ivp
        lam, B, x1 = 2.0, 1.0, 0.5

        def rhs(t, s):
            return [s[1], -lam ** 2 * s[0] + (lam - 1) / lam * B]
        (t, x, y), tb, xb, yb = self.run(lam, -0.25, B, x1)
        assert abs(x) <= 1e-12
        sol = solve_ivp(rhs, (0.0, t), [x1, 0.0], rtol=1e-12, atol=1e-14,
                        dense_output=True)
        ref = sol.sol(tb)
        assert np.abs(xb - ref[0]).max() <= 1e-9
        assert np.abs(yb - ref[1]).max() <= 1e-9
        assert y == pytest.approx(sol.y[1, -1], abs=1e-9)

    def test_axis_event_velocity(self):
        # arch at lam = 2, P = -1/2: the axis is hit with y = -sqrt(-2P) = -1
        r = np.roots([-4.0, 1.0, 1.0])
        apex = max(r)
        (t, x, y), *_ = self.run(2.0, -0.5, 1.0, apex)
        assert abs(x) < 1e-12
        assert y == pytest.approx(-1.0, abs=1e-10)

    def test_pressure_drift_small(self):
        # the same arch: every sample keeps H = -y^2/2 - 2 x^2 + x/2 = -1/2
        apex = max(np.roots([-4.0, 1.0, 1.0]))
        _end, tb, xb, yb = self.run(2.0, -0.5, 1.0, apex)
        H = -yb ** 2 / 2 - 2.0 * xb ** 2 + 0.5 * xb
        assert np.abs(H - H[0]).max() < 1e-12

    def test_closed_orbit_never_reaches_the_axis(self):
        # from the outer turning point of a closed orbit the run ends at
        # t_max without an axis crossing
        P = 0.01
        x1 = (1 + np.sqrt(1 - 32 * P)) / 8
        with pytest.raises(EventNotFound, match=re.escape(
                "the axis was not reached by t_max = 20.0 for"
                " FlowParams(lam=2.0, P=0.01, B=1.0)")):
            self.run(2.0, P, 1.0, x1, t_max=20.0)

    def test_singular_guard_triggers(self):
        # lam < 2 arch heading into the axis stops before x < X_MIN
        lam, P, B = 1.5, -0.5, 1.0
        from scipy.optimize import brentq

        def R(x):
            return -2 * P - lam * lam * x * x + B * x ** (2 - 2 / lam)
        apex = brentq(R, 1e-12, 5.0, xtol=1e-15)
        with pytest.raises(SingularEndpoint, match=re.escape(
                "x < X_MIN = 1e-12 near the axis") + r".* for FlowParams\("
                r"lam=1\.5, P=-0\.5, B=1\.0\)"):
            self.run(lam, P, B, apex)

    def test_step_underflow(self):
        # a largest step under 8 _H_MIN makes the first step too small
        with pytest.raises(StepFailure, match=re.escape(
                "step size fell below 1e-14 at t=0.0, x=1.0 for"
                " FlowParams(lam=3.0, P=-4.5, B=0.0)")):
            self.run(3.0, -4.5, 0.0, 1.0, h_max=4e-14)

    def event_runs(self):
        """(label, run output) for axis events at lam = 2 and 3."""
        from scipy.optimize import brentq

        def R(x):
            return 1.4 - 9.0 * x * x + x ** (2 - 2 / 3.0)
        apex3 = brentq(R, 1e-12, 5.0, xtol=1e-15)
        cases = (("arch lam3 B0", (3.0, -0.5, 0.0, 1.0 / 3.0)),
                 ("arch lam3 B1", (3.0, -0.7, 1.0, apex3)),
                 ("arch lam2 B1", (2.0, -0.25, 1.0, 0.5)))
        for label, args in cases:
            yield label, self.run(*args)

    def test_events_located_to_rounding(self):
        # B = 0 at lam = 3: x = cos(3 t)/3 from the apex (1/3, 0) meets the
        # axis at t = pi/6
        (t, x, y), *_ = self.run(3.0, -0.5, 0.0, 1.0 / 3.0)
        assert abs(t - np.pi / 6.0) <= 1e-13
        assert abs(x) <= 1e-15

    def test_event_times_inside_their_steps(self):
        for label, ((t, x, y), tb, xb, yb) in self.event_runs():
            assert np.all(np.diff(tb) > 0.0), label
            assert tb[-1] == t, label
            # every accepted state lies right of the axis
            assert np.all(xb[:-1] > 0.0) and xb[-1] >= 0.0, label

    def test_event_search_work_bound(self, monkeypatch):
        calls = [0]
        substeps = K._dp_substeps

        def counted(*args):
            calls[0] += 1
            return substeps(*args)
        monkeypatch.setattr(K, "_dp_substeps", counted)
        for label, _out in self.event_runs():
            assert 0 < calls[0] <= 8, label
            calls[0] = 0
