"""Turning points on level curves and two adaptive orbit integrators.

find_intercepts brackets each turning point between two points where two of
the radicand's three terms balance, so that the radicand's sign there is
known in closed form, and solves it once in ln x (_turning_point).

integrate_orbit steps the phase system in (x, y) from an arch's apex to the
axis with _kernels.rk45_orbit; its span is the independent oracle for the
quadrature spans of arches, and its samples are the arches of phase
portraits.  Arches with lam < 2 and B != 0 are not integrated into the
axis: the power term of the phase system is singular there, so the
integrator refuses (SingularEndpoint).

Both integrators check that their samples stay on the pressure level,
within a tolerance relative to the orbit's own scale (_check_level).

closed_orbit is the only integrator of closed orbits: it steps (ln x, y/x)
from the inner turning point, where the field is analytic, and returns the
whole loop.  Its period is the independent oracle for the quadrature
periods of the elliptic census, and its samples are the profiles of
elliptic arcs and the closed orbits of phase portraits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import (
    _A10, _A20, _A21, _A30, _A31, _A32, _A40, _A41, _A42, _A43,
    _A50, _A51, _A52, _A53, _A54, _A60, _A62, _A63, _A64, _A65,
    _E0, _E2, _E3, _E4, _E5, _E6,
)
from .core import FlowParams, PhaseState, phase_vector_field
from .errors import (
    DomainError,
    EventNotFound,
    NumericalError,
    SteadyStateError,
    StepFailure,
)

# next to the centre, where u0 (the half-width of the orbit in ln x) is
# below this, turning points are solved from the centre's expansion
_NEAR_CENTRE = 0.5

# the smallest normal double: a power x^alpha below it has lost digits
_MIN_NORMAL = 2.0 ** -1022
# where 2|P| and |B| are both below this, find_intercepts checks whether
# the radicand's terms are subnormal at a turning point
_TINY_TERMS = 2.0 ** -960
# the most doubles _turning_point's last step walks in one direction.  In
# two seeded 20,000-triple sweeps most walks took 0-3 and 0.7 % over 64;
# the longest that returned took 3,197,920, and 36 had not ended after
# 2^23, all from bracket ends formed from subnormal quotients, which
# _ratio_power now forms from logs.  A refused walk costs 1.1-1.6 s
# (Python 3.11, 2-CPU x86-64)
_WALK_ULPS = 2 ** 22

MAX_SAMPLE_STEP = 2.0 * math.pi / 1024.0
# step error tolerance of closed_orbit; census periods come out within
# about 5e-13 of the quadrature
_UV_TOL = 1e-12


class InterceptKind(enum.Enum):
    EllipticPair = "EllipticPair"
    HyperbolicSingle = "HyperbolicSingle"
    Center = "Center"
    Empty = "Empty"


@dataclass(frozen=True)
class Intercepts:
    """x-axis intersections of the level curve y^2 = R(x).

    x0 is the single turning point (HyperbolicSingle), the inner one
    (EllipticPair) or the center abscissa (Center); x1 is the outer turning
    point and present only for EllipticPair.
    """

    kind: InterceptKind
    x0: float = 0.0
    x1: Optional[float] = None


@dataclass(frozen=True, eq=False)
class Orbit:
    """An integrated orbit; samples is a read-only (n, 3) float64 array of
    (t, x, y) rows, so orbit.samples.T unpacks the columns.

    measured_span is the span or period the integration measured.  The
    samples of a closed orbit cover one loop, from its outer turning point
    round to it again.  Those of an arch run from its apex to the axis, half
    of the span, which is doubled by symmetry."""

    params: FlowParams
    samples: np.ndarray
    measured_span: float


def _radicand_funcs(p: FlowParams):
    """R(x) = -2P - lam^2 x^2 + B x^alpha, whose zeros are the turning
    points, with lam^2 and alpha = 2 - 2/lam.

    Where x^alpha is subnormal or zero, B x^alpha is formed as
    (B x^(alpha/2)) x^(alpha/2), so a large |B| does not multiply the few
    digits left in x^alpha.  (Formed from logs it would be off by about
    |alpha ln x| 2^-53, 1e-13 at x = 1e-257.)"""
    lam2 = p.lam * p.lam
    alpha = 2.0 - 2.0 / p.lam
    half = 0.5 * alpha
    B = p.B
    P2 = 2.0 * p.P
    tiny = _MIN_NORMAL

    def R(x: float) -> float:
        v = -P2 - lam2 * x * x
        if B != 0.0:
            pw = x ** alpha
            if pw < tiny:
                pw = x ** half
                v += B * pw * pw
            else:
                v += B * pw
        return v

    return R, lam2, alpha


def _power(a: float, b: float) -> float:
    # a ** b, inf where it overflows (or a = 0 underflowed and b < 0): a
    # bracket end that is the smaller of two may come from an overflowing one
    try:
        return a ** b
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _ratio_power(num: float, den: float, e: float) -> float:
    """(num/den)^e as _power forms it, for num/den >= 0; where the quotient
    is below the smallest normal double, and so keeps few digits or none,
    from the logs of num and den instead."""
    q = num / den
    if q < _MIN_NORMAL and num != 0.0:
        try:
            return math.exp(e * (math.log(abs(num)) - math.log(abs(den))))
        except OverflowError:
            return math.inf
    return _power(q, e)


def _turning_point(R, lo: float, hi: float, x: float, rising: bool,
                   P: float, lam2: float, alpha: float):
    """(x, R(x)) at the zero that R, rising or falling, has in [lo, hi],
    solved from x; the signs of R at lo and hi are known, not evaluated.

    Each step is Halley's in u = ln x (Newton's where Halley's correction is
    large), taken as x e^(-s): dR/du and d2R/du2 follow from R(x) itself,
    since B x^alpha = R + 2P + lam^2 x^2.  A step that leaves the bracket,
    or is not below half the step before the last one, is a bisection in u
    instead.  Each evaluation shrinks the bracket, and the solve stops at an
    exact zero, at a step that cannot move x, once the rate of the last two
    steps leaves no error, or at adjacent doubles.  Then x moves to an
    adjacent double while that has a smaller |R|.  Raises OverflowError
    where R is nan (inf - inf: both powers overflow), and NumericalError
    where that walk passes _WALK_ULPS doubles.
    """
    P2 = 2.0 * P
    dx = dx_old = math.log(hi) - math.log(lo)
    last, final = 1.0, False
    while True:
        f = R(x)
        if f != f:
            raise OverflowError(f"the radicand is nan at x={x!r}")
        if f == 0.0:
            return x, f
        if final:
            break
        lo, hi = (lo, x) if (f > 0.0) == rising else (x, hi)
        # dR/du = 2 d1 and d2R/du2 = 4 d2, which do not overflow where the
        # terms of R are close to the largest double
        t2 = lam2 * x * x
        tb = f + P2 + t2
        d1 = 0.5 * alpha * tb - t2
        s = math.inf
        if abs(f) < math.inf and 0.0 < abs(d1) < math.inf:
            s = 0.5 * f / d1
            h = 1.0 - s * (0.25 * alpha * alpha * tb - t2) / d1  # d2 / d1
            if h > 0.5:
                s /= h
        if abs(s) <= min(0.5 * abs(dx_old), 700.0):
            xn = x * math.exp(-s)
            if xn == x:
                break
            if lo < xn < hi:
                final = abs(s) * (s / last) ** 2 <= 2.0 ** -53
                dx_old, dx, last, x = dx, s, s, xn
                continue
        xn = math.sqrt(lo) * math.sqrt(hi)
        if not lo < xn < hi:
            break
        dx_old, dx, x = dx, 0.5 * (math.log(hi) - math.log(lo)), xn
    for toward in (math.inf, 0.0):
        xn, moved = math.nextafter(x, toward), False
        for _ in range(_WALK_ULPS):
            if not abs(fn := R(xn)) < abs(f):
                break
            x, f, moved = xn, fn, True
            xn = math.nextafter(x, toward)
        else:
            raise NumericalError(
                f"|R| still falls {_WALK_ULPS} doubles from the solve's"
                f" turning point, at x={x!r}")
        if moved:
            break
    return x, f


class _Unresolved(NumericalError):
    """A turning point's residual misses _check_residual's tolerance."""


def _check_residual(x: float, f: float, lam2: float, alpha: float, B: float,
                    P: float) -> None:
    """_Unresolved unless f = R(x) is within 1e-12 of R's largest term."""
    pw = 0.0
    if B != 0.0:
        pw = x ** alpha
        if pw < _MIN_NORMAL:      # as R forms it
            pw = x ** (0.5 * alpha)
            pw *= abs(B) * pw
        else:
            pw *= abs(B)
    scale = max(lam2 * x * x, pw, 2.0 * abs(P))
    if abs(f) > 1e-12 * scale:
        raise _Unresolved(
            f"turning point residual {f:.3e} exceeds tolerance at x={x!r}")


def find_intercepts(p: FlowParams) -> Intercepts:
    """Locate the y = 0 points of the level curve of pressure_hamiltonian.

    The signs of R(x) = -2P - lam^2 x^2 + B x^alpha give the kind and a
    bracket for each turning point.  Each is solved in ln x from the
    asymptote: x_c e^(+-u0) next to the centre x_c, otherwise the bracket
    end where one balance dominates.  Each turning point is a local
    minimiser of |R| over the doubles, within 1e-12 of R's largest term.

    Parameters
    ----------
    p : FlowParams

    Returns
    -------
    Intercepts
        EllipticPair (two turning points straddling the center),
        HyperbolicSingle (apex of an arch reaching the axis), Center (double
        root at the steady abscissa) or Empty.

    Raises
    ------
    DomainError
        If P exceeds P_max in the focusing regime (lam > 1, B > 0), or a
        bracket end, or a power of the radicand, overflows or underflows a
        double.
    NumericalError
        If a turning point misses its residual tolerance.

    Each of these errors names (lam, P, B).

    Where 2|P| and |B| are below 2^-960 and all three terms of R are
    subnormal at the (inner) turning point x0 found, R cannot resolve it.
    There the turning points are those of the rescaled level set
    (_rescaled) over its scale s = 2^h.  A centre or an empty level set
    stands as found.  Where 2|P| or |B| is subnormal and a turning point
    misses its residual tolerance, they are those of the rescaled level
    set too, unless its P or B is 0.
    """
    try:
        try:
            ic = _intercepts(p)
        except _Unresolved:
            if not (0.0 < 2.0 * abs(p.P) < _MIN_NORMAL
                    or 0.0 < abs(p.B) < _MIN_NORMAL):
                raise
            q, h = _rescaled(p)
            if q.P == 0.0 or q.B == 0.0:
                raise
        else:
            if not 0.0 < max(2.0 * abs(p.P), abs(p.B)) < _TINY_TERMS:
                return ic
            x0 = ic.x0
            if (ic.kind in (InterceptKind.Center, InterceptKind.Empty)
                    or max(p.lam * p.lam * x0 * x0, 2.0 * abs(p.P),
                           abs(p.B) * _power(x0, 2.0 - 2.0 / p.lam))
                    >= _MIN_NORMAL):
                return ic
            q, h = _rescaled(p)
        ic = _intercepts(q)
        return Intercepts(ic.kind, math.ldexp(ic.x0, -h),
                          None if ic.x1 is None else math.ldexp(ic.x1, -h))
    except OverflowError:
        exc = DomainError("a power in the radicand overflows a double")
    except (DomainError, NumericalError) as e:
        exc = e
    kind = NumericalError if isinstance(exc, _Unresolved) else type(exc)
    raise kind(f"turning points of lam={p.lam!r}, P={p.P!r}, B={p.B!r}:"
               f" {exc}") from None


def _rescaled(p: FlowParams):
    """(q, h): the level set of p in X = 2^h x, q = (lam, s^2 P, s^(2 - alpha)
    B) with s = 2^h, whose R is s^2 times that of p, and h chosen to bring
    s^2 2|P| or s^(2 - alpha) |B|, the smaller scale, to about 1.

    s^2 P is exact.  s^(2 - alpha) = 2^(h e) with e = 2 - alpha as R forms
    alpha: e is split into a 41-bit head, whose product with h is exact,
    and a tail, so the exponent is not rounded at its magnitude, about
    1000, and q's B is within about two ulps of the exact one.
    """
    e = 2.0 - (2.0 - 2.0 / p.lam)
    h = -math.frexp(p.P)[1] // 2 if p.P != 0.0 else 1100
    if p.B != 0.0:
        h = min(h, int(-math.frexp(p.B)[1] / e))
    head = math.floor(e * 2.0 ** 40) / 2.0 ** 40
    t = h * head
    n = math.floor(t)
    b = math.ldexp(p.B, n) * 2.0 ** ((t - n) + h * (e - head))
    return FlowParams(p.lam, math.ldexp(p.P, 2 * h), b), h


def _intercepts(p: FlowParams) -> Intercepts:
    lam, P, B = p.lam, p.P, p.B
    R, lam2, alpha = _radicand_funcs(p)

    def root(lo, hi, x, rising):
        if not (0.0 < lo and hi < math.inf):
            flow = "underflows" if lo == 0.0 else "overflows"
            raise DomainError(f"a turning point's bracket {flow} a double")
        x, f = _turning_point(R, lo, hi, min(max(x, lo), hi), rising, P,
                              lam2, alpha)
        _check_residual(x, f, lam2, alpha, B, P)
        return x

    single = InterceptKind.HyperbolicSingle
    if B > 0.0 and P < 0.0 and lam != 1.0:
        # lam^2 x^2 balances -2P or B x^alpha at the lower end, and outgrows
        # their sum at the upper end; the larger balance is the asymptote
        lo = max(math.sqrt(-2.0 * P) / lam, _ratio_power(B, lam2, 0.5 * lam))
        hi = max(2.0 * math.sqrt(-P) / lam,
                 _ratio_power(2.0 * B, lam2, 0.5 * lam))
        return Intercepts(single, root(lo, hi, lo, False))

    if alpha * B > 0.0:
        # interior critical point (center candidate) exists
        x_c = (alpha * B / (2.0 * lam2)) ** (0.5 * lam)
        # B x_c^alpha = lam^3 x_c^2/(lam - 1) at the centre: this form does
        # not cancel, and no finite P is the centre where x_c^2 overflows
        P_crit = lam2 * x_c * x_c / (2.0 * (lam - 1.0))
        if (math.isfinite(P_crit)
                and abs(P - P_crit) <= 1e-13 * (abs(P_crit) + 1e-300)):
            return Intercepts(InterceptKind.Center, x_c)
        if P > P_crit:
            if lam > 1.0:
                raise DomainError(
                    f"P={P!r} exceeds P_max={P_crit!r}: empty level set")
            return Intercepts(InterceptKind.Empty)
        # R(x_c e^u) = 2 (P_crit - P) - 2 lam x_c^2 u^2 (1 + (alpha + 2) u/3
        # + ...): next to the centre the turning points are about u0 either
        # side, shifted by -(alpha + 2) u0^2/6
        u0 = math.sqrt((P_crit - P) / x_c / (lam * x_c))
        near = u0 < _NEAR_CENTRE
        shift = (alpha + 2.0) * u0 * u0 / 6.0
        # the outer root: R <= -2P where lam^2 x^2 = B x^alpha (B > 0, so
        # P >= 0 here), R <= -2P - lam^2 x^2 for B < 0
        hi = (_ratio_power(B, lam2, 0.5 * lam) if B > 0.0
              else math.sqrt(-2.0 * P) / lam)
        x1 = root(x_c, hi, x_c * math.exp(u0 - shift) if near else hi, False)
        # the inner root, where R is negative at the axis: R = -lam^2 x^2
        # where B x^alpha = 2P
        if P > 0.0 or lam < 1.0:
            lo = _ratio_power(2.0 * P, B, 1.0 / alpha)
            x0 = root(lo, x_c, x_c * math.exp(-u0 - shift) if near else lo,
                      True)
            return Intercepts(InterceptKind.EllipticPair, x0, x1)
        return Intercepts(single, x1)

    # no interior critical point: R falls from c at the axis, or from +inf
    # where lam < 1 and B > 0
    c = B - 2.0 * P if lam == 1.0 else -2.0 * P
    if lam < 1.0 and B > 0.0:
        # P >= 0, alpha < 0: R <= -2P where B x^alpha falls to lam^2 x^2,
        # or to 2P; R >= 0 where it is at least twice both
        hi = _ratio_power(B, lam2, 0.5 * lam)
        lo = _ratio_power(B, 2.0 * lam2, 0.5 * lam)
        if P > 0.0:
            hi = min(hi, _ratio_power(2.0 * P, B, 1.0 / alpha))
            lo = min(lo, _ratio_power(4.0 * P, B, 1.0 / alpha))
    elif c <= 0.0:
        return Intercepts(InterceptKind.Empty)
    else:
        # R <= 0 where lam^2 x^2, or -B x^alpha, alone reaches c; R >= 0
        # where both stay below c/2
        hi = math.sqrt(c) / lam
        lo = math.sqrt(0.5 * c) / lam
        if B < 0.0 and lam != 1.0:
            hi = min(hi, _ratio_power(-c, B, 1.0 / alpha))
            lo = min(lo, _ratio_power(-0.5 * c, B, 1.0 / alpha))
    return Intercepts(single, root(lo, hi, hi, False))


def _uv_step(u, v, a, h, lam2, L, c):
    """One Dormand-Prince 5(4) step of u' = v, v' = lam2 expm1(c u + L) - v^2
    from (u, v), where a = v'(u, v).  Returns (u5, v5, a5, err_u, err_v),
    a5 = v' at (u5, v5), which is the next step's a (first same as last)."""
    expm1 = math.expm1
    u1 = u + h * (_A10 * v)
    v1 = v + h * (_A10 * a)
    a1 = lam2 * expm1(c * u1 + L) - v1 * v1
    u2 = u + h * (_A20 * v + _A21 * v1)
    v2 = v + h * (_A20 * a + _A21 * a1)
    a2 = lam2 * expm1(c * u2 + L) - v2 * v2
    u3 = u + h * (_A30 * v + _A31 * v1 + _A32 * v2)
    v3 = v + h * (_A30 * a + _A31 * a1 + _A32 * a2)
    a3 = lam2 * expm1(c * u3 + L) - v3 * v3
    u4 = u + h * (_A40 * v + _A41 * v1 + _A42 * v2 + _A43 * v3)
    v4 = v + h * (_A40 * a + _A41 * a1 + _A42 * a2 + _A43 * a3)
    a4 = lam2 * expm1(c * u4 + L) - v4 * v4
    u5 = u + h * (_A50 * v + _A51 * v1 + _A52 * v2 + _A53 * v3 + _A54 * v4)
    v5 = v + h * (_A50 * a + _A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4)
    a5 = lam2 * expm1(c * u5 + L) - v5 * v5
    # the 5th-order weights are row 6 of A, whose column 1 is zero
    un = u + h * (_A60 * v + _A62 * v2 + _A63 * v3 + _A64 * v4 + _A65 * v5)
    vn = v + h * (_A60 * a + _A62 * a2 + _A63 * a3 + _A64 * a4 + _A65 * a5)
    an = lam2 * expm1(c * un + L) - vn * vn
    eu = h * (_E0 * v + _E2 * v2 + _E3 * v3 + _E4 * v4 + _E5 * v5 + _E6 * vn)
    ev = h * (_E0 * a + _E2 * a2 + _E3 * a3 + _E4 * a4 + _E5 * a5 + _E6 * an)
    return un, vn, an, eu, ev


def closed_orbit(p: FlowParams, x0: float) -> Orbit:
    """The closed orbit of p through its inner turning point x0, one loop.

    The phase system is integrated in u = ln(x/x0) and the Riccati (Prufer)
    variable v = y/x,

        u' = v,    v' = K e^(-2u/lam) - lam^2 - v^2,
        K = ((lam - 1)/lam) B x0^(-2/lam),

    from (u, v) = (0, 0) until v returns to 0 at the outer turning point x1,
    which takes half the period T_h.  The field is analytic on the whole
    closed orbit, so an adaptive Dormand-Prince 5(4) step needs no step cap
    and no guard near the axis, and the start at x0 is well conditioned: one
    ulp of x0 moves the pressure of the orbit by a few ulps, where at x1 it
    can move it by 1e-6.  Each step keeps its error estimate within _UV_TOL
    of the state plus the orbit's extent.  The crossing of v = 0 inside the
    last step is located by Newton steps on the step length, one
    Dormand-Prince step per trial.  The half from x1 back to x0 is the
    mirror image (T_h - t, x, -y) of the integrated half.

    Parameters
    ----------
    p : FlowParams
    x0 : float
        The inner turning point, find_intercepts(p).x0 of an EllipticPair.

    Returns
    -------
    Orbit
        measured_span = 2 T_h, and (t, x, y) samples of one loop from
        (x1, 0) at t = 0 through (x0, 0) at T_h, reached with y < 0, to
        (x1, 0) at 2 T_h.

    Raises
    ------
    DomainError
        If x0 is not the inner turning point of a closed orbit (v' <= 0
        there, or v' <= 1e-13 lam^2 at the centre) or K is not a finite
        double.
    StepFailure
        If the step size falls below 1e-6 of the first step.
    EventNotFound
        If v does not return to 0 within 16 pi (1 + 1/lam).
    NumericalError
        If a sample drifts off the pressure level beyond 1e-9 of the
        orbit's scale (_check_level).
    """
    lam = p.lam
    lam2 = lam * lam
    c = -2.0 / lam
    try:
        a = (lam - 1.0) / lam * p.B * x0 ** c - lam2
    except ArithmeticError:
        a = math.inf
    if not 1e-13 * lam2 < a < math.inf:
        raise DomainError(f"x0 = {x0!r} is not the inner turning point of a"
                          f" closed orbit of {p}: v'(0) = {a!r}")
    # K e^(c u) - lam^2 = lam^2 expm1(c u + L), L = ln(K/lam^2), does not
    # cancel near the centre, where K e^(c u) stays close to lam^2
    L = math.log1p(a / lam2)
    # errors are measured against _UV_TOL times the state plus the orbit's
    # extent in u and the scale of v, from a = v'(0): near the centre u
    # oscillates with frequency w = sqrt(2 lam) about a / w^2, so it spans
    # a / lam and |v| reaches w/2 of that; toward the separatrix the span
    # grows like (lam/2) ln(a)
    su = _UV_TOL * 0.5 * lam * math.log1p(2.0 * a / lam2)
    sv = su * math.sqrt(0.5 * lam)
    # a first step of 1/20 of the shorter of two time scales, the
    # oscillation's and the start's; none under 1e-6 of that
    h = 0.05 / math.sqrt(2.0 * lam + a)
    h_min = 1e-6 * h
    # a half period is below pi (1 + 1/lam) for every lam
    t_cap = 16.0 * math.pi * (1.0 + 1.0 / lam)
    t = u = v = 0.0
    rows = [(t, u, v)]
    while True:
        if t > t_cap:
            raise EventNotFound(
                f"y/x did not return to 0 by t_cap = {t_cap!r} for {p}")
        if h < h_min:
            raise StepFailure(f"step size fell below {h_min!r} at t={t!r},"
                              f" x={x0 * math.exp(u)!r} for {p}")
        un, vn, an, eu, ev = _uv_step(u, v, a, h, lam2, L, c)
        err = math.sqrt(0.5 * ((eu / (su + _UV_TOL * abs(un))) ** 2
                               + (ev / (sv + _UV_TOL * abs(vn))) ** 2))
        if err <= 1.0:
            if v > 0.0 and not vn > 0.0:
                break
            t += h
            u, v, a = un, vn, an
            rows.append((t, u, v))
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 else 5.0
    # v = 0 inside this step: Newton on its length tau, from the secant
    # guess, dv/dtau = v' at the trial state
    tau = h * v / (v - vn)
    for _ in range(16):
        ue, ve, ae, _eu, _ev = _uv_step(u, v, a, tau, lam2, L, c)
        tau -= ve / ae
        if abs(ve / ae) <= 1e-15 * (t + tau):
            break
    t_h = t + tau
    rows.append((t_h, ue, 0.0))
    ts, us, vs = np.array(rows).T
    xs = x0 * np.exp(us)
    ys = xs * vs
    _check_level(p, xs, ys, 1e-9, NumericalError, "a sample")
    # the mirrored half, reversed, then the integrated one; 0.0 - y keeps
    # y = +0.0 at x1
    return Orbit(p, _samples(np.concatenate((t_h - ts[:0:-1], t_h + ts)),
                             np.concatenate((xs[:0:-1], xs)),
                             np.concatenate((0.0 - ys[:0:-1], ys))),
                 2.0 * t_h)


def integrate_orbit(p: FlowParams, x0: float, *,
                    max_step: float = MAX_SAMPLE_STEP) -> Orbit:
    """Integrate the phase system from the apex (x0, 0) of an arch to the
    axis x = 0.

    _kernels.rk45_orbit takes Dormand-Prince 5(4) steps in (x, y) at
    relative tolerance 1e-10 and locates the crossing of the axis inside
    the last step.  The samples cover half the arch, and the span is
    doubled by symmetry.

    Parameters
    ----------
    p : FlowParams
    x0 : float
        The apex, find_intercepts(p).x0 of a HyperbolicSingle; x0 > 0, and
        (x0, 0) must lie on the level set {pressure_hamiltonian = p.P}
        within 1e-10 of the orbit's scale (_check_level).
    max_step : float, optional
        Largest time step, and so the widest spacing of the samples.

    Returns
    -------
    Orbit
        With (t, x, y) samples from (x0, 0) at t = 0, spaced at most
        max_step apart, x > 0 up to the last sample, the axis crossing,
        whose x is clamped to x >= 0, and measured_span set to the span of
        the arch.

    Raises
    ------
    DomainError
        If x0 is not positive or (x0, 0) is off the level set.
    SteadyStateError
        If (x0, 0) is a stationary point.
    SingularEndpoint
        If the state enters x < 1e-12 while lam < 2 and B != 0.
    StepFailure
        If the step size falls below 1e-14.
    EventNotFound
        If the orbit does not reach the axis within the time cap.
    NumericalError
        If a sample drifts off the pressure level beyond 1e-9 of the
        orbit's scale.
    """
    lam, B = p.lam, p.B
    if not x0 > 0.0:
        raise DomainError(f"the apex x0 = {x0!r} of {p} is not positive")
    _check_level(p, np.array([x0]), np.zeros(1), 1e-10, DomainError,
                 "the start (x0, 0)")

    dx0, dy0 = phase_vector_field(PhaseState(x0, 0.0), lam, B)
    if max(abs(dx0), abs(dy0)) <= 1e-13 * (lam * lam * x0):
        raise SteadyStateError(
            "start is a steady state; it never reaches the axis")

    t_cap = 8.0 * (2.0 * math.pi / math.sqrt(2.0 * lam) + math.pi
                   + math.pi / lam)
    ts, xs, ys = _kernels.rk45_orbit(p, x0, t_cap, max_step)
    samples = _samples(ts, xs, ys)
    _check_level(p, samples[:, 1], samples[:, 2], 1e-9, NumericalError,
                 "a sample")
    return Orbit(p, samples, 2.0 * ts[-1])


def _samples(ts, xs, ys) -> np.ndarray:
    out = np.column_stack((ts, xs, ys)).astype(np.float64, copy=False)
    out.flags.writeable = False
    return out


def _check_level(p: FlowParams, xs: np.ndarray, ys: np.ndarray, tol: float,
                 error: type, what: str) -> None:
    """Raise error if a sample (x, y) is off the pressure level p.P by more
    than tol times the orbit's scale max(1 + |P|, max y^2/2 + lam^2 x^2/2).

    The second term is the size of the terms of H on the orbit: on a large
    orbit (large B or lam x) they cancel to a P much smaller than
    themselves, and their rounding alone outgrows 1 + |P|."""
    alpha = 2.0 - 2.0 / p.lam
    # an overflow gives an infinite or nan drift, which raises
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k = 0.5 * ys * ys + 0.5 * p.lam * p.lam * xs * xs
        H = -k
        if p.B != 0.0:
            pw = np.where(xs > 0.0, xs ** alpha,
                          1.0 if alpha == 0.0 else 0.0)
            H = H + 0.5 * p.B * pw
    drift = float(np.abs(H - p.P).max())
    scale = max(1.0 + abs(p.P), float(k.max()))
    if not drift <= tol * scale:
        raise error(f"{what} is {drift:.3e} off the level set, past"
                    f" {tol:g} of the orbit's scale {scale:.3e}, for {p}")
