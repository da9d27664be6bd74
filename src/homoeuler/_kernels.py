"""Numerical kernels: adaptive Gauss-Kronrod quadrature and an embedded RK45.

These are the hot loops.  When numba is importable and the environment
variable HOMOEULER_DISABLE_JIT is not set, every kernel is compiled with
@njit(cache=True); otherwise the identical pure-Python definitions run as-is
(numerically the same path, just slower).  Nothing here may call scipy.

Quadrature integrand kinds
--------------------------
The span integrals are regularized by trigonometric substitutions so that the
integrands below are smooth on the open interval:

* kind 0 (elliptic): T/2 = int_{-pi/2}^{pi/2} dphi / sqrt(g(m + rho sin phi))
  where R(x) = c - a2 x^2 + ac x^alpha has simple roots x0 < x1,
  m = (x0+x1)/2, rho = (x1-x0)/2, and g = R/((x-x0)(x1-x)) > 0.
* kind 1 (hyperbolic): T/2 = int_0^{pi/2} sqrt(1+xi)/sqrt(D(xi)) dphi with
  xi = sin phi, D(xi) = lam2 (1+xi) - C q_alpha(xi),
  q_alpha(xi) = (1-xi^alpha)/(1-xi), C = B x0^(alpha-2).

The RK45 pair is the Dormand-Prince 5(4) method; events (axis and y=0
crossings) are located by a Newton iteration on the partial-step length,
safeguarded by the sign bracket [0, h] (Henon 1982).
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env-flag fallback
    _HAVE_NUMBA = False


def _jit_disabled_by_env() -> bool:
    v = os.environ.get("HOMOEULER_DISABLE_JIT", "").strip().lower()
    return v in ("1", "true", "yes", "on")


JIT_ENABLED = _HAVE_NUMBA and not _jit_disabled_by_env()

if JIT_ENABLED:
    def _jit(func):
        return _njit(cache=True)(func)
else:
    def _jit(func):
        return func


# 15-point Kronrod extension of the 7-point Gauss rule (positive half).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


def _q_alpha(u: float, alpha: float) -> float:
    """(1 - xi**alpha)/(1 - xi) evaluated at xi = 1-u, stable for all u in (0,1].

    For u -> 0 the direct form cancels; -expm1(alpha*log1p(-u))/u does not.
    """
    if u >= 0.5:
        xi = 1.0 - u
        if xi <= 0.0:
            if alpha > 0.0:
                return 1.0 / u
            if alpha == 0.0:
                return 0.0
            return -np.inf
        return (1.0 - xi ** alpha) / u
    if u <= 0.0:
        return alpha
    return -math.expm1(alpha * math.log1p(-u)) / u


_q_alpha = _jit(_q_alpha)


def _radicand(x: float, a2: float, ac: float, alpha: float, c: float) -> float:
    """R(x) = c - a2 x^2 + ac x^alpha; y^2 = R(x) on the level curve."""
    if ac == 0.0:
        return c - a2 * x * x
    if x > 0.0:
        return c - a2 * x * x + ac * x ** alpha
    if alpha > 0.0:
        return c
    if alpha == 0.0:
        return c + ac
    return -np.inf if ac < 0.0 else np.inf


_radicand = _jit(_radicand)


def _integrand_ell(phi, a2, ac, alpha, c, x0, x1):
    rho = 0.5 * (x1 - x0)
    z = 0.5 * (0.5 * np.pi - phi)
    sz = np.sin(z)
    cz = np.cos(z)
    d1 = 2.0 * rho * sz * sz       # x1 - x, exact near phi = +pi/2
    d0 = 2.0 * rho * cz * cz       # x - x0, exact near phi = -pi/2
    near = 1.0e-3
    if d0 < near * min(rho, x0):
        # 4-term Taylor of R about x0 removes the 0/0 in R/((x-x0)(x1-x)).
        r1 = -2.0 * a2 * x0 + ac * alpha * x0 ** (alpha - 1.0)
        r2 = -2.0 * a2 + ac * alpha * (alpha - 1.0) * x0 ** (alpha - 2.0)
        r3 = ac * alpha * (alpha - 1.0) * (alpha - 2.0) * x0 ** (alpha - 3.0)
        r4 = ac * alpha * (alpha - 1.0) * (alpha - 2.0) * (alpha - 3.0) * x0 ** (alpha - 4.0)
        s = r1 + d0 * (0.5 * r2 + d0 * (r3 / 6.0 + d0 * r4 / 24.0))
        g = s / d1
    elif d1 < near * min(rho, x1):
        r1 = -2.0 * a2 * x1 + ac * alpha * x1 ** (alpha - 1.0)
        r2 = -2.0 * a2 + ac * alpha * (alpha - 1.0) * x1 ** (alpha - 2.0)
        r3 = ac * alpha * (alpha - 1.0) * (alpha - 2.0) * x1 ** (alpha - 3.0)
        r4 = ac * alpha * (alpha - 1.0) * (alpha - 2.0) * (alpha - 3.0) * x1 ** (alpha - 4.0)
        s = -r1 + d1 * (0.5 * r2 + d1 * (-r3 / 6.0 + d1 * r4 / 24.0))
        g = s / d0
    else:
        x = x0 + d0
        g = _radicand(x, a2, ac, alpha, c) / (d0 * d1)
    if g <= 0.0:
        return np.inf
    return 1.0 / np.sqrt(g)


_integrand_ell = _jit(_integrand_ell)


def _integrand_hyp(phi, lam2, cc, alpha):
    z = 0.5 * (0.5 * np.pi - phi)
    sz = np.sin(z)
    u = 2.0 * sz * sz              # 1 - sin(phi), exact near phi = pi/2
    q = _q_alpha(u, alpha)
    d = lam2 * (2.0 - u) - cc * q
    if not d > 0.0:
        return np.inf
    return np.sqrt(2.0 - u) / np.sqrt(d)


_integrand_hyp = _jit(_integrand_hyp)


def _f_eval(kind, phi, p0, p1, p2, p3, p4, p5):
    if kind == 0:
        return _integrand_ell(phi, p0, p1, p2, p3, p4, p5)
    return _integrand_hyp(phi, p0, p1, p2)


_f_eval = _jit(_f_eval)


def _gk_panel(kind, p0, p1, p2, p3, p4, p5, a, b):
    """One G7/K15 panel on [a, b]: returns (kronrod, |kronrod - gauss|)."""
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    fc = _f_eval(kind, c, p0, p1, p2, p3, p4, p5)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        dx = hw * _XGK[j]
        f1 = _f_eval(kind, c - dx, p0, p1, p2, p3, p4, p5)
        f2 = _f_eval(kind, c + dx, p0, p1, p2, p3, p4, p5)
        resk += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * (f1 + f2)
    return resk * hw, abs(resk - resg) * hw


_gk_panel = _jit(_gk_panel)


def adaptive_gk(kind, p0, p1, p2, p3, p4, p5, a, b, tol, max_panels):
    """Globally adaptive Gauss-Kronrod on [a, b], worst-panel-first bisection.

    Returns (value, error_estimate, status); status 0 when the estimate met
    tol, 1 when the panel budget ran out first (estimate still honest).
    """
    aa = np.empty(max_panels)
    bb = np.empty(max_panels)
    vv = np.empty(max_panels)
    ee = np.empty(max_panels)
    v, e = _gk_panel(kind, p0, p1, p2, p3, p4, p5, a, b)
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
            break  # panel narrower than machine spacing
        v1, e1 = _gk_panel(kind, p0, p1, p2, p3, p4, p5, am, mid)
        v2, e2 = _gk_panel(kind, p0, p1, p2, p3, p4, p5, mid, bm)
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


adaptive_gk = _jit(adaptive_gk)


def cumulative_theta(kind, p0, p1, p2, p3, p4, p5, phis, tol, max_panels):
    """theta(phis[k]) = int_{phis[0]}^{phis[k]} integrand dphi, panel by panel.

    phis must be increasing; each inter-node panel is refined adaptively.
    Returns (thetas, worst_status).
    """
    n = phis.shape[0]
    out = np.empty(n)
    out[0] = 0.0
    acc = 0.0
    worst = 0
    for k in range(1, n):
        v, _e, st = adaptive_gk(kind, p0, p1, p2, p3, p4, p5,
                                phis[k - 1], phis[k], tol, max_panels)
        acc += v
        out[k] = acc
        if st > worst:
            worst = st
    return out, worst


cumulative_theta = _jit(cumulative_theta)


# Dormand-Prince 5(4) coefficients.
_DP_C = np.array([0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
])
# 5th-order weights are row 6 of A (FSAL); error weights b5 - b4:
_DP_E = np.array([
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
    -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
])


def _phase_rhs(x, y, lam, B):
    """Phase system RHS with the continuous x <= 0 extension for trial stages."""
    beta = (lam - 2.0) / lam
    if B == 0.0:
        pw = 0.0
    elif x > 0.0:
        pw = x ** beta
    elif beta == 0.0:
        pw = 1.0
    else:
        pw = 0.0
    return y, -lam * lam * x + (lam - 1.0) / lam * B * pw


_phase_rhs = _jit(_phase_rhs)


def _dp_step(x, y, h, lam, B):
    """One Dormand-Prince step; returns (x5, y5, err_x, err_y)."""
    kx = np.empty(7)
    ky = np.empty(7)
    kx[0], ky[0] = _phase_rhs(x, y, lam, B)
    for i in range(1, 7):
        ax = 0.0
        ay = 0.0
        for j in range(i):
            ax += _DP_A[i, j] * kx[j]
            ay += _DP_A[i, j] * ky[j]
        kx[i], ky[i] = _phase_rhs(x + h * ax, y + h * ay, lam, B)
    x5 = x
    y5 = y
    for i in range(6):
        x5 += h * _DP_A[6, i] * kx[i]
        y5 += h * _DP_A[6, i] * ky[i]
    ex = 0.0
    ey = 0.0
    for i in range(7):
        ex += _DP_E[i] * kx[i]
        ey += _DP_E[i] * ky[i]
    return x5, y5, h * ex, h * ey


_dp_step = _jit(_dp_step)


def _dp_substeps(x, y, h, lam, B):
    """Advance by h in 32 equal substeps.

    Used only for event trial states, both the Newton iterates and the final
    event state: for lam > 2 the vector field is merely Holder continuous at
    x = 0 and a single step across the axis loses the Hamiltonian to ~1e-9;
    substeps keep the endpoint inside the 1e-9 budget.
    """
    for _ in range(32):
        x, y, _ex, _ey = _dp_step(x, y, h / 32.0, lam, B)
    return x, y


_dp_substeps = _jit(_dp_substeps)


def rk45_orbit(lam, B, x0, y0, t_max, rtol, atol_x, atol_y, h_max, h_min,
               x_floor, guard_singular, stop_kind, n_stop,
               t_buf, x_buf, y_buf, ev_buf):
    """Integrate the phase system with event detection.

    stop_kind: 0 fixed time, 1 first x=0 crossing (axis), 2 n_stop-th y=0
    crossing.  A crossing inside an accepted step of length h is located
    on tau -> g(_dp_substeps(x, y, tau)), g = x (axis) or y, by Newton steps
    tau -= g/g' with g' from _phase_rhs, started from the secant guess.  The
    sign of g keeps a bracket [lo, hi] in [0, h]; a step leaving it falls
    back to the midpoint.  The search stops once a step is at most 1e-13,
    the bracket at most 1e-12 wide or 64 states were tried, and takes the
    last Newton iterate only if it lies in the bracket (otherwise the last
    evaluated tau).

    Returns (status, n_samples, n_events, t_end, x_end, y_end):
    status 0 ok, 2 sample buffer full, 3 step underflow, 4 singular endpoint
    (x < x_floor with the guard on), 5 stop condition not met before t_max.
    """
    t = 0.0
    x = x0
    y = y0
    h = 0.125 * h_max
    n = 0
    nev = 0
    t_buf[n] = t
    x_buf[n] = x
    y_buf[n] = y
    n += 1
    while t < t_max:
        if h > t_max - t:
            h = t_max - t
        if h < h_min:
            return 3, n, nev, t, x, y
        x5, y5, ex, ey = _dp_step(x, y, h, lam, B)
        sc_x = atol_x + rtol * max(abs(x), abs(x5))
        sc_y = atol_y + rtol * max(abs(y), abs(y5))
        err = math.sqrt(0.5 * ((ex / sc_x) ** 2 + (ey / sc_y) ** 2))
        if err > 1.0:
            fac = 0.9 * err ** -0.2
            if fac < 0.2:
                fac = 0.2
            h *= fac
            continue
        # step accepted
        if guard_singular == 1 and x5 < x_floor:
            # refuse to approach the singular axis; report the last safe state
            return 4, n, nev, t, x, y
        crossed_axis = stop_kind == 1 and x > 0.0 and x5 <= 0.0
        crossed_y = stop_kind == 2 and (y != 0.0) and ((y < 0.0) != (y5 < 0.0) or y5 == 0.0)
        if crossed_axis or crossed_y:
            g0 = x if crossed_axis else y
            g1 = x5 if crossed_axis else y5
            lo = 0.0
            hi = h
            te = h * g0 / (g0 - g1)
            for it in range(64):
                xe, ye = _dp_substeps(x, y, te, lam, B)
                ge = xe if crossed_axis else ye
                if ge != 0.0 and (ge < 0.0) == (g0 < 0.0):
                    lo = te
                else:
                    hi = te
                dx, dy = _phase_rhs(xe, ye, lam, B)
                dg = dx if crossed_axis else dy
                # without a slope -1 lies outside, so the midpoint is taken
                tn = te - ge / dg if dg != 0.0 else -1.0
                if abs(tn - te) <= 1e-13 or hi - lo <= 1e-12 or it == 63:
                    if lo <= tn <= hi and tn != te:
                        te = tn
                        xe, ye = _dp_substeps(x, y, te, lam, B)
                    break
                te = tn if lo < tn < hi else 0.5 * (lo + hi)
            if crossed_axis:
                if n >= t_buf.shape[0]:
                    return 2, n, nev, t, x, y
                t_buf[n] = t + te
                x_buf[n] = xe if xe > 0.0 else 0.0
                y_buf[n] = ye
                n += 1
                return 0, n, nev, t + te, xe, ye
            if nev >= ev_buf.shape[0]:
                return 5, n, nev, t, x, y
            ev_buf[nev] = t + te
            nev += 1
            if nev >= n_stop:
                if n >= t_buf.shape[0]:
                    return 2, n, nev, t, x, y
                t_buf[n] = t + te
                x_buf[n] = xe
                y_buf[n] = 0.0
                n += 1
                return 0, n, nev, t + te, xe, 0.0
        t += h
        x = x5
        y = y5
        if n >= t_buf.shape[0]:
            return 2, n, nev, t, x, y
        t_buf[n] = t
        x_buf[n] = x
        y_buf[n] = y
        n += 1
        fac = 5.0
        if err > 0.0:
            fac = 0.9 * err ** -0.2
            if fac > 5.0:
                fac = 5.0
            elif fac < 0.2:
                fac = 0.2
        h *= fac
        if h > h_max:
            h = h_max
    if stop_kind == 0:
        return 0, n, nev, t, x, y
    return 5, n, nev, t, x, y


rk45_orbit = _jit(rk45_orbit)
