"""Solution-type rules, elliptic counting/solving and hyperbolic span solving.

The sign rules: for lam > 1 a solution is elliptic exactly when P > 0, for
lam < 1 exactly when B < 0, and B < 0 forces P < 0.  On top of the rules sit
two root solvers, both Brent's method leaning on the monotonicity of the
span in its parameter: solve_elliptic finds the pressure (in ln P) whose
closed-orbit period is 2 pi / n, solve_hyperbolic_span finds the Bernoulli
constant whose arch at a given pressure has a requested life-span.  Neither
builds an arc: each root is gated on the span the solve itself evaluated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ._rootfind import brent
from .core import FlowParams, steady_state
from .errors import (
    DomainError,
    InconsistentParams,
    NoSolution,
    NonMonotoneDetected,
    NumericalError,
    OutOfRange,
)
from .orbits import InterceptKind, Orbit, closed_orbit, find_intercepts
from .periods import span_any

# |P - P_max| below this relative width counts as the rotational center
_CENTER_REL = 1e-12


class SolutionTag(enum.Enum):
    Elliptic = "Elliptic"
    Hyperbolic = "Hyperbolic"
    Parabolic = "Parabolic"
    Rotational = "Rotational"
    ParallelShear = "ParallelShear"
    Unknown = "Unknown"


class TypeBasis(enum.Enum):
    """What the classification rests on: a sign rule, a table row, or an
    explicit formula."""

    SignRule = "SignRule"
    Table = "Table"
    Explicit = "Explicit"


@dataclass(frozen=True)
class SolutionType:
    tag: SolutionTag
    basis: TypeBasis


class CountKind(enum.Enum):
    Zero = "Zero"
    Finite = "Finite"
    Continuum = "Continuum"
    Unknown = "Unknown"


@dataclass(frozen=True)
class EllipticCatalog:
    """Census of non-trivial elliptic periodic solutions at one lam.

    count is the kind of answer; n is the cardinality when count is Finite
    (None otherwise); entries holds solved (n, P_star, period) triples when
    the catalog was built with roots, and stays empty for a count-only query.
    The rotational flow is not counted here: it exists in addition whenever
    (lam - 1) P > 0 is achievable.
    """

    lam: float
    count: CountKind
    n: Optional[int] = None
    entries: tuple = ()


class EllipticRoot(NamedTuple):
    """Outcome of solve_elliptic.

    status is "root" for an isolated solution; at lam = 2 every admissible
    pressure has period pi, so status is "continuum", P_star is None and the
    orbit is a representative taken at P_max / 2.  The orbit comes from
    orbits.closed_orbit at B = 1: its measured_span is the integrated period,
    and its samples cover the half period from the inner to the outer
    turning point.
    """

    P_star: Optional[float]
    orbit: Orbit
    status: str


def bernoulli(psi: float, dpsi: float, lam: float, P: float) -> float:
    """Bernoulli constant B = (2 P + lam^2 psi^2 + dpsi^2) psi^(2/lam - 2).

    Constant along one life-time of any profile; level curves of the phase
    system are exactly its level sets.

    Raises
    ------
    DomainError
        If psi <= 0 (the weight psi^(2/lam - 2) needs a positive base) or
        lam <= 0.
    """
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    if not psi > 0.0:
        raise DomainError(f"bernoulli requires psi > 0, got psi = {psi!r}")
    w = 2.0 * P + lam * lam * psi * psi + dpsi * dpsi
    return w * math.pow(psi, 2.0 / lam - 2.0)


def _check_consistency(lam: float, P: float, B: float) -> None:
    # B < 0 forces P < 0, and B = 0 on a nontrivial profile forces P < 0
    if B < 0.0 and P >= 0.0:
        raise InconsistentParams(
            f"B = {B!r} < 0 forces P < 0, got P = {P!r}")
    if B == 0.0 and P > 0.0:
        raise InconsistentParams(
            f"B = 0 forces P < 0 on nontrivial profiles, got P = {P!r}")


def solution_type(p: FlowParams) -> SolutionType:
    """Classify (lam, P, B) by the sign rules.

    Short-circuits: lam = 1 and P = 0 are parallel shear; P = P_max in the
    focusing regime is the rotational flow.  Elsewhere lam > 1 is elliptic
    iff P > 0 and lam < 1 is elliptic iff B < 0; basis records whether the
    tag came from a sign rule, a table row, or an explicit family.

    Raises
    ------
    InconsistentParams
        When the (P, B) signs cannot coexist (B < 0 with P >= 0, or B = 0
        with P > 0).
    DomainError
        When the level set is empty (P beyond the center pressure).
    """
    lam, P, B = p.lam, p.P, p.B
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    _check_consistency(lam, P, B)
    if lam == 1.0 or P == 0.0:
        return SolutionType(SolutionTag.ParallelShear, TypeBasis.Explicit)
    if B == 0.0:
        # P < 0 here; harmonic arch psi = (sqrt(-2P)/lam) cos(lam theta)
        if lam == 0.5:
            return SolutionType(SolutionTag.Parabolic, TypeBasis.Explicit)
        if lam < 0.5:
            # span pi/lam > 2 pi: no global periodic solution is known
            return SolutionType(SolutionTag.Unknown, TypeBasis.Table)
        return SolutionType(SolutionTag.Hyperbolic, TypeBasis.Explicit)
    if lam > 1.0:
        if P < 0.0:
            basis = TypeBasis.Explicit if lam == 2.0 else TypeBasis.SignRule
            return SolutionType(SolutionTag.Hyperbolic, basis)
        # P > 0 needs B > 0 (checked above); compare against the center
        p_max = steady_state(lam, B).P_max
        if abs(P - p_max) <= _CENTER_REL * p_max:
            return SolutionType(SolutionTag.Rotational, TypeBasis.Explicit)
        if P > p_max:
            raise DomainError(
                f"P = {P!r} exceeds P_max = {p_max!r}: empty level set")
        basis = TypeBasis.Explicit if lam == 2.0 else TypeBasis.SignRule
        return SolutionType(SolutionTag.Elliptic, basis)
    # lam < 1
    if B < 0.0:
        # P < 0 guaranteed; locate the center pressure for this (lam, B)
        ic = find_intercepts(p)
        if ic.kind is InterceptKind.Center:
            return SolutionType(SolutionTag.Rotational, TypeBasis.Explicit)
        if ic.kind is InterceptKind.Empty:
            raise DomainError(
                "P lies above the center pressure: empty level set")
        basis = TypeBasis.Explicit if lam == 0.5 else TypeBasis.SignRule
        return SolutionType(SolutionTag.Elliptic, basis)
    basis = TypeBasis.Explicit if lam == 0.5 else TypeBasis.SignRule
    return SolutionType(SolutionTag.Hyperbolic, basis)


def _integer_count(lam: float) -> int:
    """#{(2, sqrt(2 lam)) cap N}, exact in floating point.

    Counts integers m with 2 < m and m^2 < 2 lam; isqrt keeps the boundary
    (perfect squares like 2 lam = 16) on the correct, excluded side.
    """
    v = 2.0 * lam
    m = math.isqrt(int(math.floor(v)))
    if m * m >= v:
        m -= 1
    return max(0, m - 2)


def count_elliptic(lam: float) -> EllipticCatalog:
    """Count non-trivial elliptic periodic solutions at this lam.

    Zero on (0,1/2) u (1/2,3/4] u [4/3,2) u (2,9/2], Continuum at 1/2 and 2,
    Unknown on (3/4,1) u (1,4/3), Finite(#{(2,sqrt(2 lam)) cap N}) past 9/2.
    Boundary values 3/4, 4/3, 9/2 sit on the Zero side.

    Raises
    ------
    DomainError
        If lam <= 0 or lam = 1 (parallel shear only; no count defined).
    """
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    if lam == 1.0:
        raise DomainError(
            "lam = 1 admits only parallel shear; no elliptic count")
    if lam == 0.5 or lam == 2.0:
        return EllipticCatalog(lam, CountKind.Continuum)
    if 0.75 < lam < 1.0 or 1.0 < lam < 4.0 / 3.0:
        return EllipticCatalog(lam, CountKind.Unknown)
    if lam > 4.5:
        return EllipticCatalog(lam, CountKind.Finite, _integer_count(lam))
    return EllipticCatalog(lam, CountKind.Zero)


def solve_elliptic(lam: float, n: int, *, tol: float = 1e-10) -> EllipticRoot:
    """Find the pressure whose closed-orbit period is 2 pi / n (at B = 1).

    Brent's method on u = ln P over [ln(1e-12 P_max), ln((1 - 1e-12) P_max)],
    using the monotone dependence of the period on the pressure, to an x
    tolerance of 1e-14 in u.  The low end is scored by its quadrature
    period, the centre end by the limit 2 pi/sqrt(2 lam).  The period of
    every evaluated u is kept, so the root's period is never computed twice.
    Up to lam = 24.5 a root takes 6-9 period evaluations and lands within
    3e-15 of 2 pi/n (425 roots at lam = 12.55, 12.65, ..., 24.45), a few
    ulps of the period.  tol is the acceptance gate on |T - 2 pi/n| at the
    root.  The root is cross-checked within 1e-7 against an independent
    integration of the orbit, orbits.closed_orbit: adaptive Dormand-Prince
    in (ln x, y/x) from the inner turning point, which agrees with the
    quadrature period to about 1e-12 up to lam = 24.5.

    At lam = 2 the period is pi for every admissible P: for n = 2 the result
    has status "continuum" with P_star None and a representative orbit at
    P_max / 2; any other n has no solution.

    Raises
    ------
    DomainError
        If lam <= 0 or lam < 4/3 (outside the solved range).
    NoSolution
        If n is outside 2 < n < sqrt(2 lam).
    NonMonotoneDetected
        If P_max underflows to a bracket without a positive double, the
        bracket carries no sign change (contradicting monotonicity), or the
        root misses |T - 2 pi/n| <= tol.
    """
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    if lam == 2.0:
        if n != 2:
            raise NoSolution(
                f"lam = 2 has period pi only; n = {n!r} never matches")
        pm = steady_state(2.0, 1.0).P_max
        orbit = _elliptic_orbit(2.0, 0.5 * pm)
        return EllipticRoot(None, orbit, "continuum")
    if lam < 4.0 / 3.0:
        raise DomainError(
            f"elliptic solving covers lam >= 4/3, got lam = {lam!r}")
    if n != int(n) or not (2 < n and n * n < 2.0 * lam):
        raise NoSolution(
            f"n = {n!r} violates 4 < n^2 < 2 lam at lam = {lam!r}")
    n = int(n)
    target = 2.0 * math.pi / n
    pm = steady_state(lam, 1.0).P_max
    lo = 1e-12 * pm
    if not lo > 0.0:
        raise NonMonotoneDetected(
            f"no pressure bracket at lam = {lam!r}, n = {n}: P_max = {pm!r}"
            " underflows, so (1e-12 P_max, P_max) holds no positive double")
    u_lo = math.log(lo)
    u_hi = math.log((1.0 - 1e-12) * pm)
    periods = {}

    def f(u):
        T = periods[u] = _span(lam, math.exp(u), 1.0)
        return T - target

    f_lo = f(u_lo)
    # the center endpoint is scored by its analytic limit 2 pi / sqrt(2 lam):
    # within 1e-12 of P_max the orbit collapses and the quadrature loses all
    # digits, while n < sqrt(2 lam) already fixes the sign there
    periods[u_hi] = 2.0 * math.pi / math.sqrt(2.0 * lam)
    f_hi = periods[u_hi] - target
    if f_lo * f_hi > 0.0:
        raise NonMonotoneDetected(
            f"no sign change on the pressure bracket at lam = {lam!r},"
            f" n = {n}: f(lo) = {f_lo:.3e}, f(hi) = {f_hi:.3e}")
    u_star = brent(f, u_lo, u_hi, f_lo, f_hi, xtol=1e-14)
    p_star, T = math.exp(u_star), periods[u_star]
    if not abs(T - target) <= tol:
        raise NonMonotoneDetected(
            f"Brent on ln P at lam = {lam!r}, n = {n} stopped at"
            f" P = {p_star!r} with |T - 2 pi/{n}| = {abs(T - target):.3e}"
            f" > {tol!r}")
    orbit = _elliptic_orbit(lam, p_star)
    if abs(orbit.measured_span - T) > 1e-7:
        raise NumericalError(
            f"at lam = {lam!r}, n = {n}, P* = {p_star!r}: quadrature period"
            f" {T!r} and integrated period {orbit.measured_span!r} disagree"
            " beyond 1e-7")
    return EllipticRoot(p_star, orbit, "root")


def _span(lam: float, P: float, B: float) -> float:
    return span_any(FlowParams(lam, P, B)).T


def _elliptic_orbit(lam: float, P: float) -> Orbit:
    p = FlowParams(lam, P, 1.0)
    return closed_orbit(p, find_intercepts(p).x0)


def solve_all_elliptic(lam: float, *, tol: float = 1e-10) -> EllipticCatalog:
    """count_elliptic plus solved (n, P_star, period) entries when Finite."""
    cat = count_elliptic(lam)
    if cat.count is not CountKind.Finite or cat.n == 0:
        return cat
    entries = []
    for n in range(3, 3 + cat.n):
        res = solve_elliptic(lam, n, tol=tol)
        entries.append((n, res.P_star, res.orbit.measured_span))
    return EllipticCatalog(lam, cat.count, cat.n, tuple(entries))


def solve_hyperbolic_span(lam: float, P: float, target_T: float, *,
                          tol: float = 1e-10) -> float:
    """Find the B whose arch at pressure P has life-span target_T.

    For lam > 1 the pressure must be negative: target spans above pi/lam
    need B > 0, below need B < 0, and pi/lam itself is the exact B = 0
    harmonic arch.  For 1/2 < lam < 1 the pressure must be positive and any
    target in (0, pi) is reached with B > 0.  The span is monotone in B
    throughout, so the root is found at |P| = 1 by bracket expansion plus
    Brent iteration to |T(B) - target_T| <= tol, and the span evaluated
    there must lie within 1e-9 of the target.  Spans are invariant under
    (P, B) -> (c^2 P, c^(2/lam) B): the unit root times |P|^(1/lam) is B.

    Raises
    ------
    OutOfRange
        If (lam, sign of P) has no hyperbolic solutions, P = 0 (every arch
        is a shear arch of span pi), or target_T falls outside the
        admissible span interval (0, pi).
    """
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    if lam == 1.0:
        raise OutOfRange(
            "lam = 1 admits only the shear arch of span pi; no solving")
    if lam <= 0.5:
        raise OutOfRange(
            f"no hyperbolic solutions for lam <= 1/2, got lam = {lam!r}")
    if P == 0.0:
        raise OutOfRange(
            "P = 0 admits only shear arches, whose span is pi for every B;"
            f" no B reaches span {target_T!r}")
    if not 0.0 < target_T < math.pi:
        raise OutOfRange(
            f"target span {target_T!r} outside the admissible (0, pi)")

    if lam > 1.0:
        if P > 0.0:
            raise OutOfRange(
                f"no hyperbolic solutions with P > 0 at lam = {lam!r} > 1")
        t_mid = math.pi / lam
        if target_T == t_mid:
            b_unit, span = 0.0, t_mid
        else:
            b_unit, span = _solve_span(
                lam, -1.0, 1.0 if target_T > t_mid else -1.0, target_T, tol)
    else:
        if P < 0.0:
            raise OutOfRange(
                f"no hyperbolic solutions with P < 0 at lam = {lam!r} < 1")
        b_unit, span = _solve_span(lam, 1.0, 1.0, target_T, tol)
    if abs(span - target_T) > 1e-9:
        raise NumericalError(
            f"solved span {span!r} misses target {target_T!r} beyond 1e-9")
    return abs(P) ** (1.0 / lam) * b_unit


def _solve_span(lam, P, sign, target, tol):
    """(B, T(B)) at the span root on the side of B given by sign."""
    # T(B) increases with B on either side of B = 0: on B > 0 toward pi
    # (from 0 when lam < 1), on B < 0 from 0 (B -> -inf) up to pi/lam
    # (B -> 0-).  Expand a geometric bracket from B = sign by factors of 4,
    # away from zero on the low side when B < 0 and toward it when B > 0
    side = (f"B {'>' if sign > 0.0 else '<'} 0 at lam = {lam!r}, P = {P!r},"
            f" target span {target!r}")
    down = 0.25 if sign > 0.0 else 4.0
    lo = hi = sign
    f_lo = f_hi = _span(lam, P, lo) - target
    for _ in range(400):
        if f_lo <= 0.0:
            break
        lo *= down
        f_lo = _span(lam, P, lo) - target
    else:
        raise NumericalError(f"lower bracket expansion failed on {side}")
    for _ in range(400):
        if f_hi >= 0.0:
            break
        hi /= down
        f_hi = _span(lam, P, hi) - target
    else:
        raise NumericalError(f"upper bracket expansion failed on {side}")
    if f_lo == 0.0:
        return lo, target
    if f_hi == 0.0:
        return hi, target
    if f_lo * f_hi > 0.0:
        raise NonMonotoneDetected(
            f"span bracket lost its sign change on [{lo!r}, {hi!r}] ({side})")
    B = brent(lambda b: _span(lam, P, b) - target, lo, hi, f_lo, f_hi,
              xtol=1e-15 * max(abs(lo), abs(hi)))
    span = _span(lam, P, B)
    if abs(span - target) > tol:
        raise NumericalError(
            f"span root at B = {B!r} misses the target beyond {tol!r}"
            f" ({side})")
    return B, span
