"""Numerical kernels: adaptive Gauss-Kronrod quadrature and an embedded RK45.

These are the one-span hot loops, written as scalar code on Python floats
(math.*, tuple rule constants, an unrolled Dormand-Prince step), since
NumPy scalar indexing and ufuncs on single floats cost several times the
arithmetic.  The spans of a whole period-scan table are the exception:
_rows evaluates them together, with array forms of the elliptic and arch
integrands here; a table's near-centre row takes the scalar series.
_gk_panel, _dp_step and hyp_integrand are bit-identical to the
array-and-loop forms kept as oracles in tests/test_kernels.py, except that
a _dp_step trial stage whose x**beta overflows raises OverflowError instead
of going on with inf.  The callers here look _gk_panel, _dp_step and
_dp_substeps up as module globals, so a rebinding (the perfbench tracer
counts calls that way) sees every call.  Nothing here may call scipy.

Quadrature integrands
---------------------
The quadrature takes the integrand as a callable f(phi).  The factories
period_integrand, centre_integrand and hyp_integrand build one closure per
orbit, which computes what depends only on the orbit once.  The span
integrals are regularized by trigonometric substitutions so that the
integrands are smooth on the open interval:

* period_integrand(lam2, C, beta, u1)(phi), beta = 2/lam:
  T/2 = int_{-pi/2}^{pi/2} dphi / sqrt(g(u)),  u = (u1/2)(1 + sin phi),
  where u = ln(x/x0), V(u) = (y/x)^2 = lam2 expm1(-2u)
  - C e^(-beta u) expm1((beta - 2) u) has the simple zeros 0 < u1, and
  g = V/(u (u1 - u)) > 0.  Past u1/2, V is formed about u1 instead, as
  A1 expm1(2 d) + C1 expm1(beta d) with d = u1 - u and A1 + C1 = lam2;
  each form vanishes exactly at its own end, so neither cancels there.
* centre_integrand(e0, ..., e9)(phi) = 1/sqrt(g), g = sum_n e_n sin^n phi:
  the same period of a near-circular orbit, with g summed from the series
  about its centre (periods._centre), where V cancels.
* hyp_integrand(lam2, C, alpha, d0)(phi):
  T/2 = int_0^{pi/2} sqrt(1+xi)/sqrt(D(xi)) dphi with
  xi = sin phi, D(xi) = lam2 (1+xi) - C q_alpha(xi),
  q_alpha(xi) = (1-xi^alpha)/(1-xi), C = B x0^(alpha-2); for xi <= 1/2,
  D(xi) = (d0 - lam2 xi^2 + C xi^alpha)/(1-xi) with d0 = lam2 - C
  = -2P/x0^2 exactly.

rk45_orbit steps an arch of the phase system in (x, y) from its apex with
the Dormand-Prince 5(4) pair, as a plain loop that collects the samples in
lists and raises the typed errors of homoeuler.errors itself.  The axis
crossing that ends the arch is located by a Newton iteration on the
partial-step length, safeguarded by the sign bracket [0, h] (Henon 1982).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EventNotFound, SingularEndpoint, StepFailure

# Always False: the kernels run as plain Python.  Kept only because the
# benchmark harness reads it (perfbench/run.py records it as provenance, and
# perfbench/tracer.py sets kernels_counted from it).
JIT_ENABLED = False

# rk45_orbit's relative step error tolerance and smallest step
_ARCH_RTOL = 1e-10
_H_MIN = 1e-14
# below this abscissa an arch with lam < 2 and B != 0 counts as singular
X_MIN = 1e-12


# 15-point Kronrod extension of the 7-point Gauss rule (positive half), as
# tuples of Python floats: indexing a NumPy array yields a slower np.float64.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


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
            return -math.inf
        try:
            p = xi ** alpha
        except OverflowError:
            # 0 < xi <= 1/2 and alpha << 0; NumPy would give inf
            p = math.inf
        return (1.0 - p) / u
    if u <= 0.0:
        return alpha
    return -math.expm1(alpha * math.log1p(-u)) / u


def _about_u1(lam2, cc, beta, u1):
    """(A1, C1) of V about u1: V = A1 expm1(2 d) + C1 expm1(beta d),
    d = u1 - u, with A1 = (lam2 - C) e^(-2 u1) and C1 = C e^(-beta u1).

    The smaller of the two is formed directly and the other as lam2 minus
    it: V then vanishes at d = 0, and the smaller keeps the digits that
    lam2 minus the larger would cancel away (next to the separatrix A1 is
    1e-9 of lam2)."""
    a1 = (lam2 - cc) * math.exp(-2.0 * u1)
    c1 = cc * math.exp(-beta * u1)
    if abs(a1) < abs(c1):
        return a1, lam2 - a1
    return lam2 - c1, c1


def period_integrand(lam2, cc, beta, u1):
    """The elliptic period integrand f(phi) in u = ln(x/x0), of the orbit
    with C = cc and beta = 2/lam whose outer turning point is u1 > 0."""
    hpi = 0.5 * math.pi
    a1, c1 = _about_u1(lam2, cc, beta, u1)
    gam = beta - 2.0
    # closure cells load faster than math.* lookups on every node
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    exp, expm1 = math.exp, math.expm1

    def f(phi):
        z = 0.5 * (hpi - phi)
        sz = sin(z)
        cz = cos(z)
        d1 = u1 * sz * sz          # u1 - u, exact near phi = +pi/2
        d0 = u1 * cz * cz          # u, exact near phi = -pi/2
        if d0 <= d1:
            v = lam2 * expm1(-2.0 * d0) - cc * exp(-beta * d0) * expm1(
                gam * d0)
        else:
            v = a1 * expm1(2.0 * d1) + c1 * expm1(beta * d1)
        try:
            g = v / (d0 * d1)
        except ZeroDivisionError:
            g = 0.0                # a node on an end, or u1 = 0
        if not g > 0.0:
            return math.inf
        return 1.0 / sqrt(g)
    return f


def hyp_integrand(lam2, cc, alpha, d0):
    """The hyperbolic span integrand f(phi) with C = cc and d0 = lam2 - C,
    which the caller forms without cancellation (periods._arch_args)."""
    hpi = 0.5 * math.pi
    sin, sqrt, expm1, log1p = math.sin, math.sqrt, math.expm1, math.log1p

    def f(phi):
        sz = sin(0.5 * (hpi - phi))
        u = 2.0 * sz * sz          # 1 - sin(phi), exact near phi = pi/2
        if u >= 0.5:
            # xi <= 1/2: D = (d0 - lam2 xi^2 + C xi^alpha)/(1 - xi) has no
            # lam2 - C to cancel next to the separatrix
            xi = sin(phi)
            try:
                p = xi ** alpha
            except (OverflowError, ZeroDivisionError):
                p = math.inf       # xi -> 0 with alpha < 0
            d = (d0 - lam2 * xi * xi + cc * p) / (1.0 - xi)
        elif 0.0 < u:
            # _q_alpha's branch for 0 < u < 1/2, inline
            d = lam2 * (2.0 - u) - cc * (-expm1(alpha * log1p(-u)) / u)
        else:
            d = lam2 * (2.0 - u) - cc * _q_alpha(u, alpha)
        if not d > 0.0:
            return math.inf
        return sqrt(2.0 - u) / sqrt(d)
    return f


def centre_integrand(e0, e1, e2, e3, e4, e5, e6, e7, e8, e9):
    """The near-circular period integrand f(phi) = 1/sqrt(g(sin phi)), g
    the polynomial with the coefficients e0, ..., e9 from the series about
    the centre (periods._centre)."""
    sin, sqrt, inf = math.sin, math.sqrt, math.inf

    def f(phi):
        y = sin(phi)
        g = e0 + y * (e1 + y * (e2 + y * (e3 + y * (e4 + y * (e5 + y * (
            e6 + y * (e7 + y * (e8 + y * e9))))))))
        return 1.0 / sqrt(g) if g > 0.0 else inf
    return f


# the rule constants as separate floats for the unrolled _gk_panel
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = _XGK[:7]
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7 = _WGK
_G0, _G1, _G2, _G3 = _WG


def _gk_panel(f, a, b):
    """One G7/K15 panel of f on [a, b]: returns (kronrod, |kronrod - gauss|).

    Unrolled, with the nodes evaluated and the sums formed in the loop
    form's order: with s_j = f(c - hw x_j) + f(c + hw x_j),
    resk = K7 fc + K0 s0 + ... + K6 s6 and resg = G3 fc + G0 s1 + G1 s3
    + G2 s5."""
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    fc = f(c)
    dx = hw * _X0
    s0 = f(c - dx) + f(c + dx)
    dx = hw * _X1
    s1 = f(c - dx) + f(c + dx)
    dx = hw * _X2
    s2 = f(c - dx) + f(c + dx)
    dx = hw * _X3
    s3 = f(c - dx) + f(c + dx)
    dx = hw * _X4
    s4 = f(c - dx) + f(c + dx)
    dx = hw * _X5
    s5 = f(c - dx) + f(c + dx)
    dx = hw * _X6
    s6 = f(c - dx) + f(c + dx)
    resk = (_K7 * fc + _K0 * s0 + _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4
            + _K5 * s5 + _K6 * s6)
    resg = _G3 * fc + _G0 * s1 + _G1 * s3 + _G2 * s5
    return resk * hw, abs(resk - resg) * hw


def _sum(xs):
    """0.0 + xs[0] + xs[1] + ..., in order.

    Not the builtin sum, which sums floats with compensated summation from
    Python 3.12 on and so would change the last bits."""
    total = 0.0
    for x in xs:
        total += x
    return total


def adaptive_gk(f, a, b, tol, max_panels):
    """Globally adaptive Gauss-Kronrod of f on [a, b], worst-panel-first
    bisection (QUADPACK's QAG, Piessens et al. 1983).

    Each pass bisects the panel with the largest error estimate, the lowest
    index among equal ones, as a strict-> scan picks it; the left half
    keeps the panel's index, the right half is appended.  The loop goes on
    while the in-order sum 0.0 + e[0] + ... + e[n-1] of the panels'
    estimates exceeds tol (a nan sum stops it), and stops at the panel
    budget or at a panel narrower than the machine spacing.

    Returns (value, error_estimate, status): the in-order sums of the panel
    values and estimates, status 0 when the estimate met tol and 1 when the
    panel budget ran out first (estimate still honest).  With no bisection
    the first estimate is returned as is (-0.0 included).
    """
    v, e = _gk_panel(f, a, b)
    ab = [(a, b)]
    vv = [v]
    ee = [e]
    total = e
    while total > tol and len(ee) < max_panels:
        iw = ee.index(max(ee))
        am, bm = ab[iw]
        mid = 0.5 * (am + bm)
        if mid <= am or mid >= bm:
            break  # panel narrower than machine spacing
        v1, e1 = _gk_panel(f, am, mid)
        v2, e2 = _gk_panel(f, mid, bm)
        ab[iw] = (am, mid)
        vv[iw] = v1
        ee[iw] = e1
        ab.append((mid, bm))
        vv.append(v2)
        ee.append(e2)
        total = _sum(ee)
    return _sum(vv), total, 0 if total <= tol else 1


def cumulative_theta(f, phis, tol, max_panels):
    """theta(phis[k]) = int_{phis[0]}^{phis[k]} f(phi) dphi, panel by panel.

    phis must be increasing; each inter-node panel is refined adaptively.
    Returns (thetas, worst_status).
    """
    n = phis.shape[0]
    out = np.empty(n)
    out[0] = 0.0
    acc = 0.0
    worst = 0
    for k in range(1, n):
        v, _e, st = adaptive_gk(f, phis[k - 1], phis[k], tol, max_panels)
        acc += v
        out[k] = acc
        if st > worst:
            worst = st
    return out, worst


# Dormand-Prince 5(4) coefficients.
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
# the same numbers as Python floats for the unrolled _dp_step: _Aij = A[i, j]
_A10 = float(_DP_A[1, 0])
_A20, _A21 = _DP_A[2, :2].tolist()
_A30, _A31, _A32 = _DP_A[3, :3].tolist()
_A40, _A41, _A42, _A43 = _DP_A[4, :4].tolist()
_A50, _A51, _A52, _A53, _A54 = _DP_A[5, :5].tolist()
_A60, _A61, _A62, _A63, _A64, _A65 = _DP_A[6].tolist()
_E0, _E1, _E2, _E3, _E4, _E5, _E6 = _DP_E.tolist()


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


def _dp_step(x, y, h, lam, B):
    """One Dormand-Prince step; returns (x5, y5, err_x, err_y).

    The seven stages are unrolled, but every sum keeps the order of the loop
    form on purpose, so the result is bit-identical to it: a stage increment
    is 0.0 + A[i,0] k0 + A[i,1] k1 + ... (zero entries of A and E included),
    x5 is x + h A[6,0] k0 + h A[6,1] k1 + ..., and the error 0.0 + E0 k0 + ...
    """
    k0x, k0y = _phase_rhs(x, y, lam, B)
    k1x, k1y = _phase_rhs(x + h * (0.0 + _A10 * k0x),
                          y + h * (0.0 + _A10 * k0y), lam, B)
    k2x, k2y = _phase_rhs(x + h * (0.0 + _A20 * k0x + _A21 * k1x),
                          y + h * (0.0 + _A20 * k0y + _A21 * k1y), lam, B)
    k3x, k3y = _phase_rhs(
        x + h * (0.0 + _A30 * k0x + _A31 * k1x + _A32 * k2x),
        y + h * (0.0 + _A30 * k0y + _A31 * k1y + _A32 * k2y), lam, B)
    k4x, k4y = _phase_rhs(
        x + h * (0.0 + _A40 * k0x + _A41 * k1x + _A42 * k2x + _A43 * k3x),
        y + h * (0.0 + _A40 * k0y + _A41 * k1y + _A42 * k2y + _A43 * k3y),
        lam, B)
    k5x, k5y = _phase_rhs(
        x + h * (0.0 + _A50 * k0x + _A51 * k1x + _A52 * k2x + _A53 * k3x
                 + _A54 * k4x),
        y + h * (0.0 + _A50 * k0y + _A51 * k1y + _A52 * k2y + _A53 * k3y
                 + _A54 * k4y), lam, B)
    k6x, k6y = _phase_rhs(
        x + h * (0.0 + _A60 * k0x + _A61 * k1x + _A62 * k2x + _A63 * k3x
                 + _A64 * k4x + _A65 * k5x),
        y + h * (0.0 + _A60 * k0y + _A61 * k1y + _A62 * k2y + _A63 * k3y
                 + _A64 * k4y + _A65 * k5y), lam, B)
    x5 = (x + h * _A60 * k0x + h * _A61 * k1x + h * _A62 * k2x
          + h * _A63 * k3x + h * _A64 * k4x + h * _A65 * k5x)
    y5 = (y + h * _A60 * k0y + h * _A61 * k1y + h * _A62 * k2y
          + h * _A63 * k3y + h * _A64 * k4y + h * _A65 * k5y)
    ex = (0.0 + _E0 * k0x + _E1 * k1x + _E2 * k2x + _E3 * k3x + _E4 * k4x
          + _E5 * k5x + _E6 * k6x)
    ey = (0.0 + _E0 * k0y + _E1 * k1y + _E2 * k2y + _E3 * k3y + _E4 * k4y
          + _E5 * k5y + _E6 * k6y)
    return x5, y5, h * ex, h * ey


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


def rk45_orbit(p, x0, t_max, h_max):
    """Integrate the phase system of p from the apex (x0, 0) up to its first
    x = 0 crossing.

    Dormand-Prince 5(4) steps, no longer than h_max and the first h_max/8,
    keep the error within _ARCH_RTOL of the state plus 1e-13 x0 in x and
    1e-13 lam x0 in y: large-lam arches live at x ~ (lam^-2)^(lam/2), far
    below any fixed floor, which would void the error control.

    A crossing inside an accepted step of length h is located on
    tau -> x(_dp_substeps(x, y, tau)) by Newton steps tau -= x/x' with
    x' = y, started from the secant guess.  The sign of x keeps a bracket
    [lo, hi] in [0, h]; a step leaving it falls back to the midpoint.  The
    search stops once a step is at most 1e-13, the bracket at most 1e-12
    wide or 64 states were tried, and takes the last Newton iterate only if
    it lies in the bracket (otherwise the last evaluated tau).

    Returns lists (ts, xs, ys): the apex at t = 0, the state after every
    accepted step, and last the crossing, with x clamped to >= 0.  Raises
    StepFailure if the step falls below _H_MIN, SingularEndpoint if a step
    with lam < 2 and B != 0 would enter x < X_MIN (the power term of the
    field is singular at the axis there), and EventNotFound if the axis is
    not reached by t_max; each message names p.
    """
    lam, B = p.lam, p.B
    atol_x = 1e-13 * x0
    atol_y = 1e-13 * lam * x0
    guard = lam < 2.0 and B != 0.0
    t = 0.0
    x = x0
    y = 0.0
    h = 0.125 * h_max
    ts = [t]
    xs = [x]
    ys = [y]
    while t < t_max:
        if h > t_max - t:
            h = t_max - t
        if h < _H_MIN:
            raise StepFailure(f"step size fell below {_H_MIN!r} at t={t!r},"
                              f" x={x!r} for {p}")
        x5, y5, ex, ey = _dp_step(x, y, h, lam, B)
        sc_x = atol_x + _ARCH_RTOL * max(abs(x), abs(x5))
        sc_y = atol_y + _ARCH_RTOL * max(abs(y), abs(y5))
        err = math.sqrt(0.5 * ((ex / sc_x) ** 2 + (ey / sc_y) ** 2))
        if err > 1.0:
            fac = 0.9 * err ** -0.2
            if fac < 0.2:
                fac = 0.2
            h *= fac
            continue
        # step accepted
        if guard and x5 < X_MIN:
            raise SingularEndpoint(
                f"state entered x < X_MIN = {X_MIN!r} near the axis at"
                f" t={t!r} for {p} (lam < 2 with B != 0); use the"
                " quadrature path")
        if x > 0.0 and x5 <= 0.0:
            lo = 0.0
            hi = h
            te = h * x / (x - x5)
            for it in range(64):
                xe, ye = _dp_substeps(x, y, te, lam, B)
                if xe > 0.0:
                    lo = te
                else:
                    hi = te
                # without a slope -1 lies outside, so the midpoint is taken
                tn = te - xe / ye if ye != 0.0 else -1.0
                if abs(tn - te) <= 1e-13 or hi - lo <= 1e-12 or it == 63:
                    if lo <= tn <= hi and tn != te:
                        te = tn
                        xe, ye = _dp_substeps(x, y, te, lam, B)
                    break
                te = tn if lo < tn < hi else 0.5 * (lo + hi)
            ts.append(t + te)
            xs.append(xe if xe > 0.0 else 0.0)
            ys.append(ye)
            return ts, xs, ys
        t += h
        x = x5
        y = y5
        ts.append(t)
        xs.append(x)
        ys.append(y)
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
    raise EventNotFound(f"the axis was not reached by t_max = {t_max!r}"
                        f" for {p}")
