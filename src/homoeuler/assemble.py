"""Stitch local arcs into global 2 pi solutions, flux, field evaluation.

A local arc is one life-time of the angular profile: psi > 0 inside an
interval, vanishing at its ends (hyperbolic) or a full closed-orbit period
(elliptic).  Arcs sharing lam and P but not necessarily B are laid end to
end around the circle with a sign each; the glued profile is a distributional
solution whenever the spans tile 2 pi exactly.  On top of the glue live the
energy flux, the weak-form residuals, and point evaluation of the velocity,
vorticity and pressure fields.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import _kernels
from ._field import field_grid
from ._mesh import (
    arc_grading,
    deriv5,
    graded_fractions,
    graded_weights,
    quintic_pair,
    simpson_uniform,
)
from .classify import SolutionType, solution_type, solve_hyperbolic_span
from .config import check_arc_count
from .core import FlowParams, PhaseState
from .errors import (
    DomainError,
    InadmissibleArc,
    NumericalError,
    OnSingularRay,
    QuadratureFailure,
    SpanMismatch,
)
from .orbits import (
    InterceptKind,
    ReturnToAxis,
    ReturnToStart,
    StopCondition,
    find_intercepts,
    integrate_orbit,
)
from .periods import span_any

TWO_PI = 2.0 * math.pi

# tiling tolerance for accepted global solutions
_SPAN_TOL = 1e-9
# arc profiles are integrated tighter than the user-facing default so that
# Bernoulli constancy survives the psi^(2/lam - 2) weight near the ends
_ARC_RTOL = 1e-11
_PANEL_TOL = 1e-13
_MAX_PANELS = 4096


class SmoothnessKind(enum.Enum):
    C1 = "C1"
    VortexSheet = "VortexSheet"
    CuspEndpoints = "CuspEndpoints"


@dataclass(frozen=True, eq=False)
class LocalArc:
    """One life-time of the profile on [0, span], unsigned (psi >= 0).

    profile is a read-only (n, 3) float64 array whose rows are
    (theta, psi, dpsi) with theta increasing; take its columns with
    ``theta, psi, dpsi = arc.profile.T``.  Any (n, 3) nested sequence is
    accepted and copied into that form.  Hyperbolic arcs vanish at both
    ends; for lam >= 1 the end nodes are included with the exact slopes,
    for 1/2 < lam < 1 the slopes are infinite and the end nodes are omitted
    (endpoint_slope carries the +inf sentinel).  Elliptic arcs are one full
    period with psi > 0 everywhere and endpoint_slope 0.

    mesh_dtheta is a read-only 1-D float64 array holding the analytic
    d theta/d(node index) of the builder's mesh.  Steeply graded meshes
    (cusp arcs) place end nodes closer than one ulp of the span, so theta
    differencing is meaningless there; the quadratures divide through by
    this exact weight instead.  Arcs built by hand may leave it empty,
    falling back to differencing.

    Equality is exact: every scalar field compares with == and both arrays
    element by element.  Arcs are not hashable.
    """

    params: FlowParams
    span: float
    profile: np.ndarray
    endpoint_slope: float
    type: SolutionType
    mesh_dtheta: np.ndarray = ()

    def __post_init__(self):
        try:
            prof = np.array(self.profile, dtype=float)
            w = np.array(self.mesh_dtheta, dtype=float)
        except ValueError as e:
            raise DomainError(f"malformed arc profile: {e}") from None
        if prof.ndim != 2 or prof.shape[1] != 3 or w.ndim != 1:
            raise DomainError(
                f"arc profile must be (n, 3) rows and mesh_dtheta 1-D, got"
                f" shapes {prof.shape} and {w.shape}")
        prof.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "profile", prof)
        object.__setattr__(self, "mesh_dtheta", w)

    def __eq__(self, other):
        if not isinstance(other, LocalArc):
            return NotImplemented
        return (self.params == other.params and self.span == other.span
                and self.endpoint_slope == other.endpoint_slope
                and self.type == other.type
                and np.array_equal(self.profile, other.profile)
                and np.array_equal(self.mesh_dtheta, other.mesh_dtheta))


@dataclass(frozen=True)
class Piece:
    arc: LocalArc
    sign: int
    offset: float


@dataclass(frozen=True)
class GlobalSolution:
    """Arcs laid end to end from offset 0, covering [0, 2 pi).

    All pieces share lam and P exactly; B may change arc to arc.  smoothness
    records whether the junction slopes chain continuously (C1), jump
    (VortexSheet), or are infinite (CuspEndpoints, lam < 1).
    """

    lam: float
    P: float
    pieces: Tuple[Piece, ...]
    smoothness: SmoothnessKind


@dataclass(frozen=True)
class FieldSample:
    """Velocity, stream function, vorticity and pressure at one point."""

    r: float
    theta: float
    x: float
    y: float
    u_x: float
    u_y: float
    u_tau: float
    u_nu: float
    psi: float
    stream: float
    vorticity: float
    pressure: float


@dataclass(frozen=True)
class GridSpec:
    """Polar grid of n_r radii on [r_min, r_max] and n_theta rays from 0."""

    r_min: float
    r_max: float
    n_r: int
    n_theta: int

    def axes(self):
        """(radii, angles) as float arrays, the angles uniform on [0, 2 pi).

        Raises
        ------
        DomainError
            Unless 0 < r_min < r_max < inf and both sizes are at least 2.
        """
        if not 0.0 < self.r_min < self.r_max < math.inf:
            raise DomainError(
                f"need 0 < r_min < r_max < inf, got [{self.r_min!r},"
                f" {self.r_max!r}]")
        if self.n_r < 2 or self.n_theta < 2:
            raise DomainError("grid needs at least 2 points per direction")
        return (np.linspace(self.r_min, self.r_max, self.n_r),
                np.linspace(0.0, TWO_PI, self.n_theta, endpoint=False))


def _arc_weights(arc: LocalArc) -> np.ndarray:
    """d theta/d index along the arc mesh, exact when the builder stored it."""
    if len(arc.mesh_dtheta) == len(arc.profile):
        return arc.mesh_dtheta
    return deriv5(arc.profile[:, 0])


def _arc_integral(arc: LocalArc, values: np.ndarray) -> float:
    """int values dtheta over the arc, Simpson in the node index."""
    return simpson_uniform(values * _arc_weights(arc))


def _even(n: int) -> int:
    if n < 16:
        raise DomainError(f"points per arc must be >= 16, got {n!r}")
    return n + (n % 2)


def hyperbolic_arc(lam: float, P: float, B: float,
                   n_points: int = 512) -> LocalArc:
    """Build one hyperbolic (vanishing) arc of the profile.

    Dispatches on the parameter region: P = 0 is the shear arch
    A sin(theta)^lam, B = 0 is the harmonic arch, lam >= 2 integrates the
    phase ODE across the axis, and the remaining regions (1 < lam < 2, and
    1/2 < lam < 1 with P > 0) use the turning-point quadrature that also
    produces the spans.  Construction cross-checks the span against the
    span oracle, the arch symmetry, and Bernoulli constancy.

    Raises
    ------
    InadmissibleArc
        When (lam, P, B) admits no hyperbolic arc (elliptic region, empty
        level set, lam <= 1/2, inconsistent signs).
    """
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    n = _even(n_points)
    if lam < 0.5 or (lam == 0.5 and B != 0.0):
        raise InadmissibleArc(
            f"no hyperbolic arcs at lam = {lam!r} <= 1/2 (span exceeds"
            " 2 pi or the profile leaves H1)")
    if P == 0.0:
        if lam == 0.5 or B <= 0.0:
            raise InadmissibleArc(
                f"shear arch requires B > 0 and lam > 1/2, got B = {B!r}")
        return _shear_arc(lam, B, n)
    if B == 0.0:
        if P > 0.0:
            raise InadmissibleArc("B = 0 with P > 0 has an empty level set")
        return _harmonic_arc(lam, P, n)
    if lam > 1.0:
        if P > 0.0:
            raise InadmissibleArc(
                f"no hyperbolic solutions for P > 0 at lam = {lam!r} > 1")
        if lam >= 2.0:
            return _ode_arc(lam, P, B, n)
        return _quad_arc(lam, P, B, n)
    if lam == 1.0:
        raise InadmissibleArc(
            "lam = 1 arcs exist only at P = 0 (parallel shear)")
    # 1/2 < lam < 1: vanishing arcs need P > 0 and B > 0
    if P < 0.0 or B < 0.0:
        raise InadmissibleArc(
            f"lam = {lam!r} < 1 hyperbolic arcs require P > 0 and B > 0")
    return _quad_arc(lam, P, B, n)


def _arc_span(p: FlowParams) -> float:
    try:
        return span_any(p).T
    except InadmissibleArc:
        raise
    except DomainError as e:
        raise InadmissibleArc(
            f"(lam={p.lam!r}, P={p.P!r}, B={p.B!r}) admits no arc:"
            f" {e}") from e


def _shear_arc(lam: float, B: float, n: int) -> LocalArc:
    p = FlowParams(lam, 0.0, B)
    A = (B / (lam * lam)) ** (0.5 * lam)
    span = math.pi
    if lam > 1.0:
        end_slope = 0.0
    elif lam == 1.0:
        end_slope = A
    else:
        end_slope = math.inf
    m = n // 2
    grade = arc_grading(lam)
    frac = graded_fractions(m, grade)
    th = 0.5 * span * frac
    w_h = 0.5 * span * graded_weights(m, grade)
    s = np.sin(th)
    psi_h = A * s ** lam
    psi_h[-1] = A
    with np.errstate(divide="ignore"):
        dpsi_h = np.where(s > 0.0, A * lam * s ** (lam - 1.0) * np.cos(th),
                          end_slope if lam <= 1.0 else 0.0)
    # cusp arcs (lam < 1) omit the psi = 0 end nodes
    k = 1 if lam < 1.0 else 0
    return _mirrored_arc(p, span, th[k:], psi_h[k:], dpsi_h[k:], w_h[k:],
                         end_slope)


def _harmonic_arc(lam: float, P: float, n: int) -> LocalArc:
    p = FlowParams(lam, P, 0.0)
    c = math.sqrt(-2.0 * P)
    span = math.pi / lam
    th = np.linspace(0.0, span, n + 1)
    psi = (c / lam) * np.sin(lam * th)
    dpsi = c * np.cos(lam * th)
    psi[0] = psi[-1] = 0.0
    dpsi[0], dpsi[-1] = c, -c
    # bit-exact arch symmetry for the flux pairing
    m = n // 2
    dpsi[m] = 0.0
    psi[m + 1:] = psi[:m][::-1]
    dpsi[m + 1:] = -dpsi[:m][::-1]
    w = np.full(n + 1, span / n)
    arc = LocalArc(p, span, np.column_stack((th, psi, dpsi)), c,
                   solution_type(p), w)
    _check_arc(arc)
    return arc


def _curvature(x: np.ndarray, lam: float, B: float) -> np.ndarray:
    """psi'' from the phase ODE on node values x >= 0 (lam >= 2 or x > 0)."""
    beta = (lam - 2.0) / lam
    return -lam * lam * x + ((lam - 1.0) / lam) * B * np.power(x, beta)


def _orbit_samples(p: FlowParams, start: PhaseState, stop: StopCondition,
                   span: float, t: np.ndarray):
    """(t clipped to the run, psi, psi') on p's orbit from start, once the
    integrated span matches the quadrature span within 1e-9."""
    orbit = integrate_orbit(p, start, stop, rtol=_ARC_RTOL)
    if abs(orbit.measured_span - span) > 1e-9 * (1.0 + span):
        raise NumericalError(
            f"integrated span {orbit.measured_span!r} and quadrature span"
            f" {span!r} disagree beyond 1e-9 at (lam={p.lam!r}, P={p.P!r},"
            f" B={p.B!r})")
    ts, xs, ys = orbit.samples.T
    t = np.clip(t, ts[0], ts[-1])
    v, d = quintic_pair(t, ts, xs, ys, _curvature(xs, p.lam, p.B))
    return t, v, d


def _ode_arc(lam: float, P: float, B: float, n: int) -> LocalArc:
    p = FlowParams(lam, P, B)
    span = _arc_span(p)
    y0 = math.sqrt(-2.0 * P)
    # for lam > 2 the field is Holder at the axis and psi' is only C^1 at
    # the arch ends; cubic grading there restores spectral-free Simpson
    # accuracy of the downstream weak-form integrals (lam = 2 is analytic)
    grade = 1 if lam == 2.0 else 3
    t_all, v_all, d_all = _orbit_samples(p, PhaseState(0.0, y0),
                                         ReturnToAxis(), span,
                                         span * graded_fractions(n, grade))
    # honest symmetry check on the raw integration before canonicalizing
    sym = float(np.max(np.abs(v_all - v_all[::-1])))
    if sym > 1e-7 * max(1.0, float(np.max(np.abs(v_all)))):
        raise NumericalError(
            f"arch symmetry defect {sym:.3e} exceeds 1e-7")
    m = n // 2
    v_h = np.maximum(v_all[:m + 1], 0.0)
    d_h = d_all[:m + 1]
    v_h[0] = 0.0
    d_h[0] = y0
    w_h = span * graded_weights(n, grade)[:m + 1]
    return _mirrored_arc(p, span, t_all[:m + 1], v_h, d_h, w_h, y0)


def _quad_arc(lam: float, P: float, B: float, n: int) -> LocalArc:
    """Arc via the turning-point substitution x = x0 sin(phi).

    Covers 1 < lam < 2 (P < 0) and 1/2 < lam < 1 (P > 0), where the phase
    ODE is singular at the axis.  theta(phi) is accumulated by adaptive
    panels on a mesh graded toward the axis ends so that the profile is
    polynomially resolved in the node index despite psi'' (or psi') blowing
    up there.

    With delta = x/x0 = sin(phi) and u = 1 - delta, the radicand factors
    as R = x0^2 [lam^2 cos^2 phi + C (delta^alpha - 1)], and the node
    weight is d theta/d phi = cos(phi)/sqrt(R/x0^2).  delta and u are kept
    as separate tracks (delta = sin phi, u = 2 sin^2(pi/4 - phi/2)): each
    is fully accurate at the end where the other has cancelled to an ulp,
    which is what keeps psi' honest at graded nodes within 1e-16 of the
    axis.
    """
    p = FlowParams(lam, P, B)
    span = _arc_span(p)
    ic = find_intercepts(p)
    if ic.kind is not InterceptKind.HyperbolicSingle:
        raise InadmissibleArc(
            f"expected a single turning point, found {ic.kind}")
    x0 = ic.x0
    alpha = 2.0 - 2.0 / lam
    C = B * x0 ** (-2.0 / lam)
    m = n // 2
    grade = arc_grading(lam)
    phi = 0.5 * math.pi * graded_fractions(m, grade)
    bp = 0.5 * math.pi * graded_weights(m, grade)
    f = functools.partial(_kernels._integrand_hyp, lam * lam, C, alpha)
    th_half, worst = _kernels.cumulative_theta(f, phi, _PANEL_TOL,
                                               _MAX_PANELS)
    if worst != 0:
        raise QuadratureFailure(
            f"theta accumulation at lam={lam!r}, P={P!r}, B={B!r} ran out"
            f" of its {_MAX_PANELS} panels on the arc mesh")
    T2 = th_half[-1]
    if abs(2.0 * T2 - span) > 1e-9 * (1.0 + span):
        raise NumericalError(
            f"accumulated span {2.0 * T2!r} and oracle span {span!r}"
            " disagree beyond 1e-9")
    # scale the mesh onto the canonical span so junction offsets compose
    scale = 0.5 * span / T2
    th_half = th_half * scale
    if lam < 1.0:
        # drop the axis node: psi' is infinite there
        phi, bp, th_half = phi[1:], bp[1:], th_half[1:]
    delta = np.sin(phi)
    z = 0.5 * (0.5 * math.pi - phi)
    sz = np.sin(z)
    u = 2.0 * sz * sz
    cphi = np.cos(phi)
    with np.errstate(divide="ignore"):
        logd = np.where(delta < 0.5, np.log(delta), np.log1p(-u))
    # u D = R/x0^2 on the substitution mesh, with no subtractive loss
    ud = lam * lam * cphi * cphi + C * np.expm1(alpha * logd)
    x_half = x0 * delta
    dpsi_half = x0 * np.sqrt(np.maximum(ud, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        w_half = np.where(ud > 0.0, scale * bp * cphi / np.sqrt(ud), 0.0)
    if lam > 1.0:
        end_slope = math.sqrt(-2.0 * P)
        x_half[0] = 0.0
        dpsi_half[0] = end_slope
    else:
        end_slope = math.inf
    x_half[-1] = x0
    return _mirrored_arc(p, span, th_half, x_half, dpsi_half, w_half,
                         end_slope)


def elliptic_arc(lam: float, P: float, B: float = 1.0,
                 n_points: int = 512) -> LocalArc:
    """One full period of a closed orbit as a profile arc (psi > 0).

    The orbit is integrated from its outer apex and resampled uniformly;
    the measured period is cross-checked against the quadrature span within
    1e-9 before the quadrature value is adopted as the arc span.

    Raises
    ------
    InadmissibleArc
        If (lam, P, B) is not in the elliptic region (no closed orbits).
    """
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    n = _even(n_points)
    p = FlowParams(lam, P, B)
    ic = find_intercepts(p)
    if ic.kind is InterceptKind.Center:
        return _rotational_arc(p, ic.x0, n)
    if ic.kind is not InterceptKind.EllipticPair:
        raise InadmissibleArc(
            f"(lam={lam!r}, P={P!r}, B={B!r}) has no closed orbit"
            f" ({ic.kind})")
    span = _arc_span(p)
    m = n // 2
    t_half, v_h, d_h = _orbit_samples(p, PhaseState(ic.x1, 0.0),
                                      ReturnToStart(), span,
                                      np.linspace(0.0, 0.5 * span, m + 1))
    v_h[0] = ic.x1
    d_h[0] = 0.0
    return _mirrored_arc(p, span, t_half, v_h, d_h, np.full(m + 1, span / n),
                         0.0)


def _rotational_arc(p: FlowParams, x_c: float, n: int) -> LocalArc:
    th = np.linspace(0.0, TWO_PI, n + 1)
    psi = np.full(n + 1, x_c)
    dpsi = np.zeros(n + 1)
    w = np.full(n + 1, TWO_PI / n)
    return LocalArc(p, TWO_PI, np.column_stack((th, psi, dpsi)), 0.0,
                    solution_type(p), w)


def elliptic_global(lam: float, P: float, B: float = 1.0,
                    n_points: int = 512) -> GlobalSolution:
    """Tile the circle with copies of one closed-orbit period.

    The number of copies is the nearest integer to 2 pi / T; the tiling
    must close within 1e-8, and the profile mesh is then scaled onto
    exactly 2 pi / m per copy so accepted solutions meet the 1e-9 tiling
    invariant.  P at the center pressure yields the rotational flow as a
    single 2 pi piece.

    Raises
    ------
    InadmissibleArc
        If the period does not divide 2 pi within 1e-8.
    """
    arc = elliptic_arc(lam, P, B, n_points)
    if arc.span == TWO_PI:
        pieces = (Piece(arc, 1, 0.0),)
        return GlobalSolution(lam, P, pieces, SmoothnessKind.C1)
    m = int(round(TWO_PI / arc.span))
    if m < 1 or abs(m * arc.span - TWO_PI) > 1e-8:
        raise InadmissibleArc(
            f"period {arc.span!r} does not divide 2 pi (m = {m})")
    T = TWO_PI / m
    scale = T / arc.span
    th, psi, dpsi = arc.profile.T
    w = _arc_weights(arc) * scale
    arc = LocalArc(arc.params, T,
                   np.column_stack((th * scale, psi, dpsi)),
                   arc.endpoint_slope, arc.type, w)
    pieces = tuple(Piece(arc, 1, k * T) for k in range(m))
    return GlobalSolution(lam, P, pieces, SmoothnessKind.C1)


def bernoulli_drift(arc: LocalArc) -> float:
    """Max drift of the Bernoulli constant over the tame interior, relative
    to the conditioning scale of the formula.

    Nodes with psi < psi_max / 4 are excluded: there the weight
    psi^(2/lam - 2) amplifies the fixed floating-point cancellation in
    2P + lam^2 psi^2 + dpsi^2 beyond any fixed relative tolerance, which is
    a conditioning artifact, not a drift.  The denominator is the same
    weighted sum with all terms taken positive (it reduces to ~|B| when B
    dominates and stays meaningful on B = 0 arcs, where the exact constant
    is the zero of a cancellation).
    """
    p = arc.params
    lam = p.lam
    _th, psi, dpsi = arc.profile.T
    mask = psi >= 0.25 * psi.max()
    v, d = psi[mask], dpsi[mask]
    if not v.min() > 0.0:
        raise DomainError(
            f"bernoulli requires psi > 0, got psi = {float(v.min())!r}")
    weight = np.power(v, 2.0 / lam - 2.0)
    vals = (2.0 * p.P + lam * lam * v * v + d * d) * weight
    cond = (2.0 * abs(p.P) + lam * lam * v * v + d * d) * weight
    scale = max(abs(p.B), float(cond.max()))
    return float(vals.max() - vals.min()) / scale


def _mirrored_arc(p: FlowParams, span: float, th: np.ndarray,
                  psi: np.ndarray, dpsi: np.ndarray, w: np.ndarray,
                  end_slope: float) -> LocalArc:
    """Reflect a half arc about its apex into a checked LocalArc.

    The half runs from its first stored node to the apex (last entry).
    The second half is its mirror image: theta -> span - theta, psi and the
    mesh weights kept, psi' negated.  The apex sits at exactly span/2 with
    psi' = 0, so every arc is bit-symmetric.
    """
    th = np.concatenate([th[:-1], [0.5 * span], (span - th[:-1])[::-1]])
    psi = np.concatenate([psi, psi[:-1][::-1]])
    dpsi = np.concatenate([dpsi[:-1], [0.0], -dpsi[:-1][::-1]])
    w = np.concatenate([w, w[:-1][::-1]])
    arc = LocalArc(p, span, np.column_stack((th, psi, dpsi)), end_slope,
                   solution_type(p), w)
    _check_arc(arc)
    return arc


def _check_arc(arc: LocalArc) -> None:
    psi = arc.profile[:, 1]
    sym = float(np.max(np.abs(psi - psi[::-1])))
    if sym > 1e-7 * max(1.0, float(psi.max())):
        raise NumericalError(f"arch symmetry defect {sym:.3e} exceeds 1e-7")
    # cusp arcs omit their psi = 0 end nodes, so every stored node is interior
    interior = psi if arc.endpoint_slope == math.inf else psi[1:-1]
    if np.any(interior <= 0.0):
        raise NumericalError("profile lost interior positivity")
    drift = bernoulli_drift(arc)
    if drift > 1e-9:
        raise NumericalError(
            f"Bernoulli drift {drift:.3e} exceeds 1e-9 along the arc")


def stitch(lam: float, P: float,
           specs: Sequence[Tuple[float, int]], *,
           auto_repair: bool = False, n_points: int = 512,
           max_arcs: int = 64) -> GlobalSolution:
    """Glue hyperbolic arcs (B_i, sign_i) end to end around the circle.

    Each distinct B is built once, and pieces that repeat it share that
    (immutable) arc.  Spans come from the span oracle per arc; they must
    sum to 2 pi within 1e-9.  With auto_repair, a failed tiling is retried
    once by re-solving the last arc's B to absorb the gap (P stays fixed;
    only B may vary arc to arc).  Smoothness is classified from the
    junction slopes, including the wrap-around junction.

    Raises
    ------
    SpanMismatch
        If the spans do not tile (gap attached to the exception).
    InadmissibleArc
        If some (lam, P, B_i) admits no hyperbolic arc.
    DomainError
        On malformed specs (empty, too many arcs, sign not +-1).
    """
    check_arc_count(len(specs), max_arcs)
    for i, (_, s) in enumerate(specs):
        if s not in (1, -1):
            raise DomainError(f"sign of arc {i} must be +1 or -1, got {s!r}")
    built = {B: hyperbolic_arc(lam, P, B, n_points)
             for B in dict.fromkeys(B for B, _ in specs)}
    arcs = [built[B] for B, _ in specs]
    gap = TWO_PI - math.fsum(a.span for a in arcs)
    if abs(gap) > _SPAN_TOL:
        if not auto_repair:
            raise SpanMismatch(
                f"arc spans miss 2 pi by {gap:.3e}", gap=gap)
        arcs = _repair_last(lam, P, arcs, n_points)
        gap = TWO_PI - math.fsum(a.span for a in arcs)
        if abs(gap) > _SPAN_TOL:
            raise SpanMismatch(
                f"auto-repair left a gap of {gap:.3e}", gap=gap)
    pieces = []
    off = 0.0
    for arc, (_, s) in zip(arcs, specs):
        pieces.append(Piece(arc, s, off))
        off += arc.span
    return GlobalSolution(lam, P, tuple(pieces), _smoothness(pieces))


def _repair_last(lam: float, P: float, arcs: List[LocalArc],
                 n_points: int) -> List[LocalArc]:
    target = TWO_PI - math.fsum(a.span for a in arcs[:-1])
    if not 0.0 < target < math.pi:
        raise SpanMismatch(
            f"repair target span {target!r} is outside (0, pi)",
            gap=TWO_PI - math.fsum(a.span for a in arcs))
    if P == 0.0:
        raise SpanMismatch(
            "P = 0 arcs all span pi; no B adjustment can close the gap",
            gap=TWO_PI - math.fsum(a.span for a in arcs))
    B_new = solve_hyperbolic_span(lam, P, target)
    return arcs[:-1] + [hyperbolic_arc(lam, P, B_new, n_points)]


def _smoothness(pieces: Sequence[Piece]) -> SmoothnessKind:
    if any(p.arc.endpoint_slope == math.inf for p in pieces):
        return SmoothnessKind.CuspEndpoints
    n = len(pieces)
    for i in range(n):
        a, b = pieces[i], pieces[(i + 1) % n]
        left = -a.sign * a.arc.endpoint_slope
        right = b.sign * b.arc.endpoint_slope
        if abs(left - right) > 1e-9 * (1.0 + abs(left)):
            return SmoothnessKind.VortexSheet
    return SmoothnessKind.C1


def global_profile(g: GlobalSolution):
    """Signed glued profile as (theta, psi, dpsi) arrays over [0, 2 pi].

    Duplicate junction nodes (shared psi = 0 endpoints) are dropped so
    theta is strictly increasing.
    """
    ths, psis, dpsis = [], [], []
    last = -1.0
    for piece in g.pieces:
        th, psi, dpsi = piece.arc.profile.T
        th = th + piece.offset
        psi = piece.sign * psi
        dpsi = piece.sign * dpsi
        if ths and th[0] <= last:
            th, psi, dpsi = th[1:], psi[1:], dpsi[1:]
        ths.append(th)
        psis.append(psi)
        dpsis.append(dpsi)
        last = th[-1]
    return np.concatenate(ths), np.concatenate(psis), np.concatenate(dpsis)


def energy_flux(g: GlobalSolution) -> float:
    """Energy flux int (psi')^3 dtheta over the glued profile.

    Integrated arc by arc; psi' is odd about every arc midpoint, so nodes
    are paired symmetrically before quadrature and each honest arc cancels
    exactly, at any lam.  A profile that lost the symmetry (corrupted or
    asymmetric data) yields a nonzero value.
    """
    total = 0.0
    for piece in g.pieces:
        dpsi = piece.arc.profile[:, 2]
        v = dpsi ** 3
        paired = 0.5 * (v + v[::-1])
        total += piece.sign * _arc_integral(piece.arc, paired)
    return total


def h1_seminorm(g: GlobalSolution) -> float:
    """int (psi')^2 dtheta over [0, 2 pi); finite for every accepted arc."""
    parts = []
    for piece in g.pieces:
        dpsi = piece.arc.profile[:, 2]
        parts.append(_arc_integral(piece.arc, dpsi * dpsi))
    return math.fsum(parts)


def weak_residuals(g: GlobalSolution, modes: int = 8) -> list:
    """Weak-form residuals against cos(k theta), sin(k theta), k = 1..modes.

    Each residual is sum over arcs of
    int [-(2 lam - 1) (psi')^2 + lam^2 psi^2 - 2 (lam - 1) P] phi dtheta
    - lam int psi psi' phi' dtheta, accumulated on each arc's own graded
    mesh (the boundary terms vanish with psi at the junctions).  Values
    near zero witness that the glued profile solves the equation in the
    distributional sense.  Returns [k1 cos, k1 sin, k2 cos, ...].
    """
    lam, P = g.lam, g.P
    parts = []
    for piece in g.pieces:
        th, psi, dpsi = piece.arc.profile.T
        bulk = (-(2.0 * lam - 1.0) * dpsi * dpsi + lam * lam * psi * psi
                - 2.0 * (lam - 1.0) * P)
        cross = lam * psi * dpsi
        parts.append((th + piece.offset, _arc_weights(piece.arc),
                      bulk, cross))
    out = []
    for k in range(1, modes + 1):
        for trig in ("cos", "sin"):
            acc = 0.0
            for th_g, w, bulk, cross in parts:
                if trig == "cos":
                    phi = np.cos(k * th_g)
                    dphi = -k * np.sin(k * th_g)
                else:
                    phi = np.sin(k * th_g)
                    dphi = k * np.cos(k * th_g)
                acc += simpson_uniform((bulk * phi - cross * dphi) * w)
            out.append(acc)
    return out


def residual_max(g: GlobalSolution) -> float:
    """Max pointwise ODE residual over all arcs, native-mesh differencing.

    psi'' is estimated as deriv5(dpsi) divided by the mesh weight in the
    node index; the two nodes at each end (one-sided stencils on vanishing
    psi) are excluded.  Nodes whose weight is under 1e-2 of the uniform
    spacing are skipped too: graded meshes degenerate there (spacings down
    to sub-ulp; the apex of half-substitution meshes is an exact 0/0) and
    differencing has no digits, while the skipped theta measure is
    negligible.  On cusp arcs the check is further restricted to the tame
    interior psi >= psi_max/4, matching the Bernoulli drift window.
    """
    lam = g.lam
    P = g.P
    worst = 0.0
    for piece in g.pieces:
        th, psi, dpsi = piece.arc.profile.T
        if th.shape[0] < 7:
            raise DomainError("profile too short for residual differencing")
        w = _arc_weights(piece.arc)
        with np.errstate(divide="ignore", invalid="ignore"):
            ddpsi = deriv5(dpsi) / w
            res = (2.0 * (lam - 1.0) * P + (lam - 1.0) * dpsi * dpsi
                   - lam * lam * psi * psi - lam * psi * ddpsi)
        keep = w[2:-2] > 1e-2 * piece.arc.span / (w.shape[0] - 1)
        if piece.arc.endpoint_slope == math.inf:
            keep &= psi[2:-2] >= 0.25 * float(psi.max())
        res = res[2:-2][keep]
        if res.size:
            worst = max(worst, float(np.max(np.abs(res))))
    return worst


def field_at(g: GlobalSolution, r: float, theta: float) -> FieldSample:
    """Velocity, stream function, vorticity and pressure at (r, theta).

    u_tau = lam r^(lam-1) psi, u_nu = -r^(lam-1) psi', stream = r^lam psi,
    vorticity = r^(lam-2)(lam^2 psi + psi''), pressure = r^(2 lam - 2) P,
    with psi'' taken from the phase ODE where psi != 0 (exact relation, no
    differencing).  At a junction ray with 1 < lam < 2 the vorticity is
    infinite and reported as a signed inf.

    Raises
    ------
    DomainError
        If r <= 0.
    OnSingularRay
        If theta falls within 1e-12 of a cusp arc endpoint (lam < 1).
    """
    if not r > 0.0:
        raise DomainError(f"field evaluation requires r > 0, got {r!r}")
    singular, cells = field_grid(g, [r], [theta])
    if singular[0]:
        raise OnSingularRay(
            f"theta = {theta!r} sits on a cusp junction ray")
    return FieldSample(r, theta, *(float(c[0, 0]) for c in cells.values()))


def export_grid(g: GlobalSolution, grid: GridSpec):
    """Row-major field table over the polar grid.

    Returns a list of (r, theta, FieldSample or None); None marks cells on
    singular rays (cusp junctions) rather than aborting the export.

    Raises
    ------
    DomainError
        If the grid is malformed (r_min <= 0, r_max <= r_min, sizes < 2).
    """
    rs, thetas = grid.axes()
    singular, cells = field_grid(g, rs, thetas)
    cols = [c.tolist() for c in cells.values()]
    rays = list(zip(thetas.tolist(), singular.tolist()))
    rows = []
    for i, r in enumerate(rs.tolist()):
        for j, (t, on_ray) in enumerate(rays):
            rows.append((r, t, None if on_ray else
                         FieldSample(r, t, *(c[i][j] for c in cols))))
    return rows
