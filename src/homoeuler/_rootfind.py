"""Bracketed scalar root finding by Brent's method.

Used for the one-parameter solves in the classification layer (turning
points have their own solve, orbits._turning_point).  Callable-based and
pure Python; the per-call count is small so there is nothing to compile
here.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import NoBracket


def brent(f: Callable[[float], float], a: float, b: float,
          fa: Optional[float] = None, fb: Optional[float] = None,
          xtol: float = 1e-13, maxiter: int = 200) -> float:
    """Root of f in [a, b] by Brent's method; f(a), f(b) must straddle zero."""
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise NoBracket(f"no sign change on [{a!r}, {b!r}]")
    c, fc = a, fa
    d = e = b - a
    for _ in range(maxiter):
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * 2.220446049250313e-16 * abs(b) + 0.5 * xtol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0.0 else -tol1
        fb = f(b)
    return b

