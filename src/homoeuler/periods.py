"""Life-spans and periods by singular quadrature, limit values, and the
numerical monotonicity certificate.

One body, `_quadrature`, evaluates every span and period from (lam, P, B)
and the turning points, after substitutions that remove the
inverse-square-root endpoint singularities and the corners, so the kernel
only ever sees smooth integrands.  Both span integrands see B only as
C = B x0^(-2/lam), the Bernoulli constant in units of the turning point x0
(`_scaled_bernoulli`), so no magnitude of B, P or x0 enters them (the
near-centre series below works in x, with the raw B):

* hyperbolic arch (single turning point x0):
  T/2 = int_0^1 dxi / sqrt(lam^2 (1 - xi^2) - C (1 - xi^alpha)),  xi = x/x0,
  then xi = sin phi, then phi = (pi/2) s^3 on [0, 1] (`_arch`).  The last
  step removes the corner phi^alpha at the axis that adaptive GK would
  otherwise bisect toward; next to the axis the radicand is formed from
  lam^2 - C = -2P/x0^2 (`arch_integrand`), which does not cancel next to
  the separatrix;
* elliptic orbit (turning points x0 < x1): in u = ln(x/x0),
  T = 2 int_0^u1 du / sqrt(V(u)) with
  V = (y/x)^2 = lam^2 expm1(-2u) - C e^(-2u/lam) expm1(-2u (lam-1)/lam),
  which vanishes at u = 0 without cancelling.  Its zero u1 is solved on
  this V (`_outer_end`), and u = (u1/2)(1 + sin phi)
  (`_kernels.period_integrand`).  For a near-circular orbit,
  (x1 - x0)/2 <= m/64 about its centre m, the integrand is not formed
  from V, which cancels there, but summed as a series in sin phi from the
  second divided difference of x^alpha about the centre (`_centre`).

Routing: lam > 1 computes directly; lam < 1 conjugates to 1/lam and scales
the span; lam = 1 is the parallel shear closed form pi.  A span whose
quadrature misses its target, or runs out of its panel budget, is a
QuadratureFailure naming (lam, P, B).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import _kernels
from .core import FlowParams, conjugate
from .errors import (
    DomainError,
    InconsistentParams,
    NoSolution,
    QuadratureFailure,
    SteadyStateError,
)
from .orbits import InterceptKind, Intercepts, find_intercepts

_MAX_PANELS = 1024
_ACCEPT_ERR = 1e-9


class SpanMethod(enum.Enum):
    QuadratureHyperbolic = "QuadratureHyperbolic"
    QuadratureElliptic = "QuadratureElliptic"
    Conjugacy = "Conjugacy"
    ClosedForm = "ClosedForm"


@dataclass(frozen=True)
class SpanResult:
    T: float
    method: SpanMethod
    est_error: float


@dataclass(frozen=True)
class LimitValues:
    T_center: float
    T_separatrix: float
    T_infinity: float


def _finish(lam: float, P: float, B: float, v: float, e: float,
            status: int, method: SpanMethod) -> SpanResult:
    """The span 2 v, with estimate 2 e, of adaptive_gk's half-span result
    (v, e, status), or a QuadratureFailure naming (lam, P, B)."""
    two_v, two_e = 2.0 * v, 2.0 * e
    # a nan estimate passes the target test, and an inf or zero T (a
    # zero-width orbit, or nodes where the integrand overflows) is no span
    if not (0.0 < two_v < math.inf and math.isfinite(two_e)):
        raise QuadratureFailure(
            f"quadrature at lam={lam!r} gave T={two_v!r} with error estimate"
            f" {two_e!r} (P={P!r}, B={B!r}), which is not a span")
    if two_e > _ACCEPT_ERR:
        raise QuadratureFailure(
            f"quadrature at lam={lam!r}, P={P!r}, B={B!r}: error estimate"
            f" {two_e:.3e} misses the 1e-9 target")
    if status:
        raise QuadratureFailure(
            f"quadrature at lam={lam!r}, P={P!r}, B={B!r}: the"
            f" {_MAX_PANELS}-panel budget ran out at error estimate"
            f" {two_e:.3e}, short of its target")
    return SpanResult(float(two_v), method, float(two_e))


def _scaled_bernoulli(lam: float, P: float, B: float, x0: float) -> float:
    """C = B x0^(-2/lam), the Bernoulli constant in units of the turning
    point x0, which both span integrands take.

    The direct power is kept wherever it does not raise; where x0^(-2/lam)
    alone overflows, C is taken from logs with the sign of B.  A C that is
    still not finite is a DomainError naming (lam, P, B).
    """
    try:
        C = B * x0 ** (-2.0 / lam)
    except OverflowError:
        log_c = math.log(abs(B)) - 2.0 / lam * math.log(x0)
        # exp overflows a double from log(max) = 709.78
        C = math.copysign(math.exp(log_c) if log_c < 709.0 else math.inf, B)
    if not math.isfinite(C):
        raise DomainError(
            f"span integrand at lam={lam!r}, P={P!r}, B={B!r}:"
            f" C = B x0^(-2/lam) overflows a double (x0={x0!r})")
    return C


def _outer_end(lam2: float, C: float, beta: float, u: float) -> float:
    """The zero u1 > 0 of V(u) = lam2 expm1(-2u) - C e^(-beta u)
    expm1((beta - 2) u), by Newton steps from u = ln(x1/x0).

    ln(x1/x0) carries the rounding of both turning points in x.  Solved on
    V itself, u1 leaves V(u1) at the rounding of V's terms, which is what
    period_integrand's form of V about u1 takes for zero.
    """
    exp, expm1 = math.exp, math.expm1
    for _ in range(8):
        eb = exp(-beta * u)
        dv = -2.0 * (lam2 - C) * exp(-2.0 * u) - beta * C * eb
        if not dv < 0.0:
            break                  # no simple zero: u1 = 0, the centre
        s = (lam2 * expm1(-2.0 * u) - C * eb * expm1((beta - 2.0) * u)) / dv
        u -= s
        if not abs(s) > 2.0 ** -50 * u:
            break
    return u


def arch_integrand(lam: float, P: float, C: float, x0: float):
    """The arch's span integrand f(phi), _kernels.hyp_integrand at its
    turning point x0 and C = B x0^(-2/lam).

    Its d0 = lam^2 - C is the radicand over x0^2 at the axis, where
    R(x0) = 0 makes it -2P/x0^2 as well.  For C >= lam^2/2 the difference
    is exact, but next to the separatrix the rounding of C alone exceeds
    it, so d0 is -2P/x0^2 there.  Below, lam^2 - C loses nothing and agrees
    with the C that the rest of the integrand uses, which matters where x0
    is itself inexact (radicands formed in subnormals).
    """
    a2 = lam * lam
    d0 = a2 - C if C < 0.5 * a2 else -2.0 * P / x0 / x0
    return _kernels.hyp_integrand(a2, C, 2.0 - 2.0 / lam, d0)


def _arch(f):
    """The arch integrand f(phi) on s in [0, 1], phi = (pi/2) s^3.

    Next to the axis f(phi) = a + b phi^alpha, a corner at phi = 0 that
    adaptive GK bisects toward geometrically unless alpha = 1.  In s the
    integrand f(phi) dphi/ds is s^2 (a + b' s^(3 alpha)): a polynomial at
    lam = 3/2 and 3, and flat to second order at s = 0 for every lam.
    """
    hpi = 0.5 * math.pi
    w = 1.5 * math.pi

    def g(s):
        s2 = s * s
        return f(hpi * s2 * s) * (w * s2)
    return g


def _centre(a2: float, ac: float, alpha: float, x0: float, x1: float):
    """The elliptic integrand 1/sqrt(g(m + rho sin phi)) of a near-circular
    orbit, free of cancellation, or None where it does not apply.

    R(X) = c - a2 X^2 + ac X^alpha vanishes at m - rho and m + rho, so
    g = R/((X - m + rho)(m + rho - X)) = a2 - ac h[m - rho, m + rho, X],
    the second divided difference of h = X^alpha, and c drops out.  With
    X = m + rho y, y = sin phi,

        h[m - rho, m + rho, X] = sum_n D_n y^n,  D_n = sum_{j >= 0} c_{n+2j},
        c_k = binom(alpha, k+2) m^(alpha-k-2) rho^k,

    since the divided difference of t^(k+2) at (-rho, rho, rho y) is
    rho^k (y^k + y^(k-2) + ...).  Ten terms leave (rho/m)^10 <= 8.7e-19
    of g for rho <= m/64 and |alpha| <= 2 (lam >= 1/2), where
    binom(alpha, k) grows at most linearly in k; other orbits, and the
    coinciding turning points rho = 0, get None.

    rho is (x1 - x0)/2, but m is not their midpoint.  Next to the centre R
    cancels, and x0 and x1 are each off by up to eps c/|R'|, about 1e-11 of
    m at rho = 1e-5 m; unequal errors tilt the orbit and move T by as much.
    So m is solved from R(m - rho) = R(m + rho), that is
    2 a2 = ac sum_j binom(alpha, 2j+1) m^(alpha-2j-2) rho^(2j), by two
    Newton steps from the midpoint; that equation does not cancel.
    """
    m = 0.5 * (x0 + x1)
    rho = 0.5 * (x1 - x0)
    if not (0.0 < rho <= m / 64.0 and -2.0 <= alpha <= 2.0):
        return None
    bn = [1.0]                      # binom(alpha, k), k = 0..11
    for k in range(11):
        bn.append(bn[-1] * (alpha - k) / (k + 1))
    try:
        for _ in range(2):
            w = ac * m ** (alpha - 2.0)
            r2 = (rho / m) ** 2
            odd = [bn[2 * j + 1] * r2 ** j for j in range(5)]
            slope = w * math.fsum(t * (alpha - 2.0 - 2 * j)
                                  for j, t in enumerate(odd)) / m
            m -= (w * math.fsum(odd) - 2.0 * a2) / slope
        ck = -ac * m ** (alpha - 2.0)
    except OverflowError:
        return None
    r = rho / m
    cs = []                         # -ac c_k
    for k in range(10):
        cs.append(bn[k + 2] * ck)
        ck *= r
    e0, e1, e2, e3, e4, e5, e6, e7, e8, e9 = (
        math.fsum(cs[n::2]) for n in range(10))
    e0 += a2
    sin, sqrt, inf = math.sin, math.sqrt, math.inf

    def f(phi):
        y = sin(phi)
        g = e0 + y * (e1 + y * (e2 + y * (e3 + y * (e4 + y * (e5 + y * (
            e6 + y * (e7 + y * (e8 + y * e9))))))))
        return 1.0 / sqrt(g) if g > 0.0 else inf
    return f


def _quadrature(lam: float, P: float, B: float, ic: Intercepts,
                tol: float) -> SpanResult:
    """Span of the radicand -2P - lam^2 x^2 + B x^alpha at its turning
    points ic: a full period over an elliptic pair, else the whole arch."""
    alpha = 2.0 - 2.0 / lam
    a2 = lam * lam
    x0 = ic.x0
    if ic.kind is InterceptKind.EllipticPair:
        f = _centre(a2, B, alpha, x0, ic.x1)
        if f is None:
            C = _scaled_bernoulli(lam, P, B, x0)
            beta = 2.0 / lam
            u1 = _outer_end(a2, C, beta, math.log(ic.x1) - math.log(x0))
            f = _kernels.period_integrand(a2, C, beta, u1)
        v, e, st = _kernels.adaptive_gk(f, -0.5 * math.pi, 0.5 * math.pi,
                                        0.5 * tol, _MAX_PANELS)
        return _finish(lam, P, B, v, e, st, SpanMethod.QuadratureElliptic)
    C = _scaled_bernoulli(lam, P, B, x0) if B != 0.0 else 0.0
    f = _arch(arch_integrand(lam, P, C, x0))
    v, e, st = _kernels.adaptive_gk(f, 0.0, 1.0, 0.5 * tol, _MAX_PANELS)
    return _finish(lam, P, B, v, e, st, SpanMethod.QuadratureHyperbolic)


def span_hyperbolic(lam: float, P: float, B: float,
                    tol: float = 1e-10) -> SpanResult:
    """Life-span of the hyperbolic arch of (lam, P, B).

    Parameters
    ----------
    lam : float
        Exponent, lam > 1.
    P : float
        Pressure constant; P < 0.
    B : float
        Bernoulli constant; B = 0 returns the closed form pi/lam exactly.
    tol : float, optional
        Quadrature error target for the half-span integral.

    Returns
    -------
    SpanResult

    Raises
    ------
    DomainError
        If P >= 0 or lam <= 1.
    QuadratureFailure
        If the error target is missed after max refinement.
    """
    if lam <= 1.0:
        raise DomainError(f"span_hyperbolic requires lam > 1, got {lam!r}")
    if P >= 0.0:
        raise DomainError(f"hyperbolic regime requires P < 0, got {P!r}")
    if B == 0.0:
        return SpanResult(math.pi / lam, SpanMethod.ClosedForm, 0.0)
    ic = find_intercepts(FlowParams(lam, P, B))
    if ic.kind is not InterceptKind.HyperbolicSingle:
        raise DomainError(f"expected a single turning point, got {ic.kind}")
    return _quadrature(lam, P, B, ic, tol)


def period_elliptic(lam: float, P: float, B: float,
                    tol: float = 1e-10) -> SpanResult:
    """Full period of the closed orbit of (lam, P, B).

    The period is T = 2 int_0^u1 du / sqrt(V(u)) in u = ln(x/x0), x0 the
    inner turning point, where V = (y/x)^2 depends on lam and
    C = B x0^(-2/lam) alone, so no magnitude of B, P or x enters
    (_kernels.period_integrand); a near-circular orbit takes the series
    about its centre instead (_centre).

    Parameters
    ----------
    lam : float
        Exponent, lam > 1.
    P : float
        Pressure constant, 0 < P < P_max(B).
    B : float
        Bernoulli constant, B > 0.
    tol : float, optional
        Quadrature error target for the half-period integral.

    Raises
    ------
    DomainError
        If lam <= 1, the level set is not a closed orbit, or a turning
        point or C overflows a double.
    SteadyStateError
        If (P, B) sits at the centre.
    QuadratureFailure
        If the error target is missed.
    """
    if lam <= 1.0:
        raise DomainError(f"period_elliptic requires lam > 1, got {lam!r}")
    ic = find_intercepts(FlowParams(lam, P, B))
    if ic.kind is InterceptKind.Center:
        raise SteadyStateError("parameters sit at the center; no orbit")
    if ic.kind is not InterceptKind.EllipticPair:
        raise DomainError(f"expected two turning points, got {ic.kind}")
    return _quadrature(lam, P, B, ic, tol)


def span_any(p: FlowParams, tol: float = 1e-10) -> SpanResult:
    """Life-span/period dispatch over the whole parameter plane.

    lam > 1 goes to direct quadrature of (lam, P, B) as given: an arch
    (P < 0) to span_hyperbolic, a closed orbit (P, B > 0) to
    period_elliptic; lam < 1 is conjugated to 1/lam and the span scaled by
    1/lam, lam = 1 is the parallel shear closed form pi.

    Raises
    ------
    SteadyStateError
        If (P, B) sits at the center.
    InconsistentParams
        If B < 0 with P >= 0 (empty level set).
    NoSolution
        If no orbit exists (B = 0 with P >= 0).
    DomainError
        If P exceeds P_max, or a turning point or the scaled Bernoulli
        constant overflows a double.
    """
    lam = p.lam
    if lam == 1.0:
        return SpanResult(math.pi, SpanMethod.ClosedForm, 0.0)
    if lam < 1.0:
        q = conjugate(p)
        lam_t = q.lam
        inner = span_any(q, tol=0.5 * tol / max(lam_t, 1.0))
        return SpanResult(lam_t * inner.T, SpanMethod.Conjugacy,
                          lam_t * inner.est_error)
    if p.B == 0.0 and p.P >= 0.0:
        raise NoSolution("B = 0 with P >= 0 admits no arch")
    if p.P < 0.0:
        # B = 0 arches are harmonic; span_hyperbolic returns their closed
        # form
        return span_hyperbolic(lam, p.P, p.B, tol)
    if p.B > 0.0:
        if p.P == 0.0:
            # separatrix: the parallel shear arch with span pi
            return SpanResult(math.pi, SpanMethod.ClosedForm, 0.0)
        return period_elliptic(lam, p.P, p.B, tol)
    raise InconsistentParams(
        f"B < 0 with P >= 0 has an empty level set (lam={lam!r})")


def span_quadrature(lam: float, P: float, B: float,
                    tol: float = 1e-10) -> SpanResult:
    """Direct quadrature at the given lam, with no conjugacy routing.

    Unlike span_any this evaluates the raw radicand -2P - lam^2 x^2
    + B x^alpha at lam itself, including lam < 1; it exists so the conjugacy
    identity can be checked between genuinely independent computations.
    """
    ic = find_intercepts(FlowParams(lam, P, B))
    if ic.kind is InterceptKind.Center:
        raise SteadyStateError("parameters sit at the center; no orbit")
    if ic.kind is InterceptKind.Empty:
        raise DomainError("empty level set; no span defined")
    return _quadrature(lam, P, B, ic, tol)


def limit_values(lam: float) -> LimitValues:
    """The three analytic endpoint spans at this lam.

    T_center = 2 pi / sqrt(2 lam) (linearization at the center),
    T_separatrix = pi (parallel shear), T_infinity = pi/lam (harmonic arch).
    """
    if lam <= 1.0:
        raise DomainError(f"limit values defined for lam > 1, got {lam!r}")
    return LimitValues(2.0 * math.pi / math.sqrt(2.0 * lam), math.pi,
                       math.pi / lam)


def chicone_W(x: float, lam: float) -> float:
    """Monotonicity test function for the elliptic period.

    W >= 0 on the admissible interval certifies an increasing period in the
    orbit parameter (lam > 2); W <= 0 certifies decreasing (4/3 <= lam < 2).
    W(1) = W'(1) = 0 at the center.

    Raises
    ------
    DomainError
        Outside 0 < x < (lam/(lam-1))^(lam/2), or lam <= 1, or lam = 2
        (the flat case carries no sign information).
    """
    if lam <= 1.0 or lam == 2.0:
        raise DomainError(f"chicone_W requires lam > 1, lam != 2; got {lam!r}")
    x_sup = (lam / (lam - 1.0)) ** (0.5 * lam)
    if not 0.0 < x < x_sup:
        raise DomainError(f"x={x!r} outside (0, {x_sup!r})")
    k = (lam - 2.0) / lam
    u = x ** (-2.0 / lam)
    return (-k * x ** (2.0 - 2.0 / lam) + x ** (2.0 - 4.0 / lam) - 1.0
            + k * u
            + (lam - 1.0) * (lam - 2.0) / 6.0 * x ** 3 * (1.0 - u) ** 3)
