"""Life-spans and periods by singular quadrature, limit values, and the
numerical monotonicity certificate.

One body, `_quadrature`, evaluates every span and period from (lam, P, B)
and the turning points, after trigonometric substitutions that remove the
inverse-square-root endpoint singularities, so the kernel only ever sees
smooth integrands:

* hyperbolic arch (single turning point x0):
  T/2 = int_0^1 dxi / sqrt(lam^2 (1 - xi^2) - C (1 - xi^alpha)),  xi = x/x0,
  C = B x0^(-2/lam), then xi = sin phi;
* elliptic orbit (turning points x0 < x1): the radicand is factored as
  (x - x0)(x1 - x) g(x) with g smooth and positive, and x = m + rho sin phi.

Routing: lam > 1 computes directly; lam < 1 conjugates to 1/lam and scales
the span; lam = 1 is the parallel shear closed form pi.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from . import _kernels
from .core import FlowParams, conjugate, rescale_to_unit_B, steady_state
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


def _check_simple_zero(dR_val: float, scale: float, where: str) -> None:
    # the substitution needs simple turning points; a vanishing derivative
    # means the parameters sit on an excluded boundary (center/separatrix)
    if abs(dR_val) < 1e-8 * scale:
        raise QuadratureFailure(
            f"turning point at {where} is not simple; parameters sit on a"
            " degenerate boundary")


def _finish(given: tuple, two_v: float, two_e: float,
            method: SpanMethod) -> SpanResult:
    lam, P, B = given
    # a nan estimate passes the target test, and coinciding turning points
    # give T = 0; neither is a span
    if not (0.0 < two_v < math.inf and math.isfinite(two_e)):
        raise QuadratureFailure(
            f"quadrature at lam={lam!r} gave T={two_v!r} with error estimate"
            f" {two_e!r} (P={P!r}, B={B!r}), which is not a span")
    if two_e > _ACCEPT_ERR:
        raise QuadratureFailure(
            f"quadrature at lam={lam!r}, P={P!r}, B={B!r}: error estimate"
            f" {two_e:.3e} misses the 1e-9 target")
    return SpanResult(float(two_v), method, float(two_e))


def _quadrature(lam: float, P: float, B: float, ic: Intercepts,
                tol: float, given: tuple | None = None) -> SpanResult:
    """Span of the radicand -2P - lam^2 x^2 + B x^alpha at its turning
    points ic: a full period over an elliptic pair, else the whole arch.

    A failure names given, the (lam, P, B) the caller was asked for, which
    defaults to the triple integrated here."""
    given = given or (lam, P, B)
    alpha = 2.0 - 2.0 / lam
    a2 = lam * lam
    if ic.kind is InterceptKind.EllipticPair:
        f = functools.partial(_kernels._integrand_ell, a2, B, alpha,
                              -2.0 * P, ic.x0, ic.x1)
        v, e, _st = _kernels.adaptive_gk(f, -0.5 * math.pi, 0.5 * math.pi,
                                         0.5 * tol, _MAX_PANELS)
        return _finish(given, 2.0 * v, 2.0 * e, SpanMethod.QuadratureElliptic)
    C = B * ic.x0 ** (-2.0 / lam) if B != 0.0 else 0.0
    f = functools.partial(_kernels._integrand_hyp, a2, C, alpha)
    v, e, _st = _kernels.adaptive_gk(f, 0.0, 0.5 * math.pi, 0.5 * tol,
                                     _MAX_PANELS)
    return _finish(given, 2.0 * v, 2.0 * e, SpanMethod.QuadratureHyperbolic)


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


def period_elliptic(lam: float, P: float, tol: float = 1e-10) -> SpanResult:
    """Full period of the closed orbit at unit B.

    Works in center-normalized coordinates X = x/x_s, where the radicand
    becomes c0 - lam^2 X^2 + (lam^3/(lam-1)) X^alpha with the center at
    X = 1; this keeps all magnitudes O(1) even when P_max is tiny (large
    lam).  The time integral is invariant under the normalization.

    Raises
    ------
    DomainError
        If P is outside (0, P_max) or lam <= 1.
    QuadratureFailure
        If the error target is missed after max refinement.
    """
    if lam <= 1.0:
        raise DomainError(f"period_elliptic requires lam > 1, got {lam!r}")
    p_max = steady_state(lam, 1.0).P_max
    if not 0.0 < P < p_max:
        raise DomainError(
            f"elliptic regime requires P in (0, P_max={p_max!r}), got {P!r}")
    a2 = lam * lam
    ac = lam ** 3 / (lam - 1.0)
    alpha = 2.0 - 2.0 / lam
    # the normalized triple has c0 = -2 P_n exactly (power-of-two scalings)
    P_n = 0.5 * (a2 / (lam - 1.0)) * (P / p_max)
    ic = find_intercepts(FlowParams(lam, P_n, ac))
    if ic.kind is InterceptKind.Center:
        raise SteadyStateError("parameters sit at the center; no orbit")
    if ic.kind is not InterceptKind.EllipticPair:
        raise DomainError(f"expected two turning points, got {ic.kind}")
    for xr in (ic.x0, ic.x1):
        dval = -2.0 * a2 * xr + ac * alpha * xr ** (alpha - 1.0)
        _check_simple_zero(dval, a2 * max(xr, 1.0), f"X={xr!r}")
    return _quadrature(lam, P_n, ac, ic, tol, given=(lam, P, 1.0))


def span_any(p: FlowParams, tol: float = 1e-10) -> SpanResult:
    """Life-span/period dispatch over the whole parameter plane.

    lam > 1 goes to direct quadrature (after unit-B rescaling), lam < 1 is
    conjugated to 1/lam and the span scaled by 1/lam, lam = 1 is the parallel
    shear closed form pi.

    Raises
    ------
    SteadyStateError
        If (P, B) sits at the center.
    InconsistentParams
        If B < 0 with P >= 0 (empty level set).
    NoSolution
        If no orbit exists (B = 0 with P >= 0).
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
    # B = 0 arches are harmonic; span_hyperbolic returns their closed form
    p2 = rescale_to_unit_B(p)[0] if p.B != 0.0 else p
    if p2.P < 0.0:
        return span_hyperbolic(lam, p2.P, p2.B, tol)
    if p2.B > 0.0:
        if p2.P == 0.0:
            # separatrix: the parallel shear arch with span pi
            return SpanResult(math.pi, SpanMethod.ClosedForm, 0.0)
        p_max = steady_state(lam, 1.0).P_max
        if abs(p2.P - p_max) <= 1e-12 * p_max:
            raise SteadyStateError("parameters at the center (P = P_max)")
        return period_elliptic(lam, p2.P, tol=tol)
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
