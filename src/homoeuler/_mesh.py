"""Graded sample meshes and sample-based integration helpers.

Profiles on an arc are sampled on theta = span * b(u), u uniform in [0, 1],
with the symmetric grading map b(u) = u^p / (u^p + (1-u)^p).  p = 1 is the
uniform mesh; larger p crowds points toward both arc ends, which the
slope-residual integrals need when psi' degenerates there (cusp arcs, and the
quadrature-built arcs with 1 < lam < 2 whose profile is stiff near the axis).
"""

from __future__ import annotations

import math

import numpy as np


def arc_grading(lam: float) -> int:
    """Mesh exponent p for an arc at this lam; capped so b stays resolvable."""
    if lam < 1.0:
        t = 2.0 * lam - 1.0
        if t <= 0.0:
            return 64
        return min(64, math.ceil(4.0 / t))
    if 1.0 < lam < 2.0:
        return min(64, math.ceil(2.0 * lam / (lam - 1.0)))
    return 1


def graded_fractions(n: int, p: int) -> np.ndarray:
    """n+1 fractions of the arc span: b(k/n) for k = 0..n."""
    u = np.linspace(0.0, 1.0, n + 1)
    if p == 1:
        return u
    up = u ** p
    vp = (1.0 - u) ** p
    return up / (up + vp)


def graded_weights(n: int, p: int) -> np.ndarray:
    """d(graded_fractions)/dk at k = 0..n, the index-space mesh derivative.

    Carried alongside graded meshes because differencing theta samples
    loses all accuracy once the end spacings fall below one ulp of the
    span (steep gradings push nodes closer than doubles can represent).
    """
    if p == 1:
        return np.full(n + 1, 1.0 / n)
    u = np.linspace(0.0, 1.0, n + 1)
    up = u ** (p - 1)
    vp = (1.0 - u) ** (p - 1)
    den = u * up + (1.0 - u) * vp
    w = p * up * vp / (den * den * n)
    # the mesh is symmetric; make the weights bit-symmetric too
    m = (n + 1) // 2
    w[n + 1 - m:] = w[:m][::-1]
    return w


def deriv5(y: np.ndarray) -> np.ndarray:
    """dy/ds on the unit-spaced index s, 5-point stencils (4th order)."""
    n = y.shape[0]
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / 12.0
    d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / 12.0
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / 12.0
    d[n - 2] = (3.0 * y[n - 1] + 10.0 * y[n - 2] - 18.0 * y[n - 3]
                + 6.0 * y[n - 4] - y[n - 5]) / 12.0
    d[n - 1] = (25.0 * y[n - 1] - 48.0 * y[n - 2] + 36.0 * y[n - 3]
                - 16.0 * y[n - 4] + 3.0 * y[n - 5]) / 12.0
    return d


def simpson_uniform(y: np.ndarray) -> float:
    """Composite Simpson on unit spacing; odd interval counts end with a 3/8 cell."""
    n = y.shape[0] - 1
    if n < 1:
        return 0.0
    if n == 1:
        return 0.5 * (y[0] + y[1])
    total = 0.0
    m = n if n % 2 == 0 else n - 3
    if m >= 2:
        total += (y[0] + y[m]
                  + 4.0 * np.sum(y[1:m:2]) + 2.0 * np.sum(y[2:m - 1:2])) / 3.0
    if n % 2 == 1:
        total += 0.375 * (y[m] + 3.0 * y[m + 1] + 3.0 * y[m + 2] + y[n])
    return float(total)


def hermite_pair(xq: np.ndarray, x: np.ndarray, f: np.ndarray,
                 df: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubic Hermite interpolant and its derivative at query points xq."""
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.shape[0] - 2)
    h = x[idx + 1] - x[idx]
    hs = np.where(h > 0.0, h, 1.0)
    t = np.where(h > 0.0, (xq - x[idx]) / hs, 0.0)
    t2 = t * t
    t3 = t2 * t
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + t
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    vals = (h00 * f[idx] + h10 * h * df[idx]
            + h01 * f[idx + 1] + h11 * h * df[idx + 1])
    # d/dx of the basis polynomials, chain rule through t = (x - x_i)/h
    g00 = (6.0 * t2 - 6.0 * t) / hs
    g10 = 3.0 * t2 - 4.0 * t + 1.0
    g01 = (-6.0 * t2 + 6.0 * t) / hs
    g11 = 3.0 * t2 - 2.0 * t
    dvals = (g00 * f[idx] + g10 * df[idx]
             + g01 * f[idx + 1] + g11 * df[idx + 1])
    return vals, dvals


def quintic_pair(xq: np.ndarray, x: np.ndarray, f: np.ndarray, df: np.ndarray,
                 ddf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quintic Hermite interpolant of (f, df, ddf) and its derivative at xq.

    One order pair above hermite_pair: value error ~ f^(6) h^6, derivative
    ~ f^(6) h^5.  Used where node curvatures are known exactly (the phase ODE
    supplies psi'' in closed form) and cubic accuracy would not reach the
    1e-9 reconstruction budget.
    """
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.shape[0] - 2)
    h = x[idx + 1] - x[idx]
    hs = np.where(h > 0.0, h, 1.0)
    t = np.where(h > 0.0, (xq - x[idx]) / hs, 0.0)
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    t5 = t4 * t
    h0 = 1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5
    h1 = t - 6.0 * t3 + 8.0 * t4 - 3.0 * t5
    h2 = 0.5 * t2 - 1.5 * t3 + 1.5 * t4 - 0.5 * t5
    h3 = 10.0 * t3 - 15.0 * t4 + 6.0 * t5
    h4 = -4.0 * t3 + 7.0 * t4 - 3.0 * t5
    h5 = 0.5 * t3 - t4 + 0.5 * t5
    vals = (h0 * f[idx] + h3 * f[idx + 1]
            + hs * (h1 * df[idx] + h4 * df[idx + 1])
            + hs * hs * (h2 * ddf[idx] + h5 * ddf[idx + 1]))
    g0 = (-30.0 * t2 + 60.0 * t3 - 30.0 * t4) / hs
    g1 = 1.0 - 18.0 * t2 + 32.0 * t3 - 15.0 * t4
    g2 = hs * (t - 4.5 * t2 + 6.0 * t3 - 2.5 * t4)
    g3 = (30.0 * t2 - 60.0 * t3 + 30.0 * t4) / hs
    g4 = -12.0 * t2 + 28.0 * t3 - 15.0 * t4
    g5 = hs * (1.5 * t2 - 4.0 * t3 + 2.5 * t4)
    dvals = (g0 * f[idx] + g3 * f[idx + 1] + g1 * df[idx] + g4 * df[idx + 1]
             + g2 * ddf[idx] + g5 * ddf[idx + 1])
    return vals, dvals
