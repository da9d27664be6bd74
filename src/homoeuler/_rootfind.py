"""Bracketed scalar root finding by Brent's method.

Used for the one-parameter solves in the classification layer (turning
points have their own solve, orbits._turning_point).  Callable-based and
pure Python; the per-call count is small so there is nothing to compile
here.
"""

from __future__ import annotations

from typing import Callable, Tuple

from .errors import NoBracket

# iterations before brent returns the point it holds
_MAXITER = 200


def brent(f: Callable[[float], float], a: float, b: float, fa: float,
          fb: float, xtol: float) -> Tuple[float, float]:
    """(x, f(x)) at the root of f in [a, b] by Brent's method, where
    fa = f(a) and fb = f(b) straddle zero; f(x) is the value f returned at
    x, so a caller need not evaluate f there again."""
    if fa == 0.0:
        return a, fa
    if fb == 0.0:
        return b, fb
    if (fa < 0.0) == (fb < 0.0):
        raise NoBracket(f"no sign change on [{a!r}, {b!r}]")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAXITER):
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * 2.220446049250313e-16 * abs(b) + 0.5 * xtol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b, fb
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
    return b, fb

