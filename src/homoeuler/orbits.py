"""Turning points on level curves and an adaptive orbit integrator.

The integrator doubles as an independent oracle for the quadrature spans and
as the profile sampler for arcs with lam >= 2.  Arcs with lam < 2 and B != 0
are never integrated through the axis: the power term of the phase system is
singular there, so the integrator refuses (SingularEndpoint) and callers must
take the quadrature path instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _kernels
from ._rootfind import brent, newton_polish
from .core import FlowParams, PhaseState, phase_vector_field, pressure_hamiltonian
from .errors import (
    DomainError,
    EventNotFound,
    NoBracket,
    NumericalError,
    SingularEndpoint,
    SteadyStateError,
    StepFailure,
)

# 64 points per decade, the bracketing density for turning-point scans
_SCAN_FACTOR = 10.0 ** (1.0 / 64.0)
_SCAN_MAX_STEPS = 64 * 300

MAX_SAMPLE_STEP = 2.0 * math.pi / 1024.0
# below this abscissa an orbit with lam < 2 and B != 0 counts as singular
X_MIN = 1e-12
_H_MIN = 1e-14


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


@dataclass(frozen=True)
class ReturnToAxis:
    """Stop at the first x = 0 crossing."""


@dataclass(frozen=True)
class ReturnToStart:
    """Stop after one full period (closed orbits only)."""


@dataclass(frozen=True)
class FixedTime:
    t: float


StopCondition = Union[ReturnToAxis, ReturnToStart, FixedTime]


@dataclass(frozen=True, eq=False)
class Orbit:
    """An integrated orbit; samples is a read-only (n, 3) float64 array of
    (t, x, y) rows, so orbit.samples.T unpacks the columns."""

    params: FlowParams
    samples: np.ndarray
    closed: bool
    measured_span: float


def _radicand_funcs(p: FlowParams):
    lam2 = p.lam * p.lam
    alpha = 2.0 - 2.0 / p.lam
    B = p.B
    P2 = 2.0 * p.P

    def R(x: float) -> float:
        v = -P2 - lam2 * x * x
        if B != 0.0:
            v += B * x ** alpha
        return v

    def dR(x: float) -> float:
        v = -2.0 * lam2 * x
        if B != 0.0:
            v += B * alpha * x ** (alpha - 1.0)
        return v

    return R, dR, lam2, alpha


def _probe(R, x: float):
    # R(x), or None where R raises (a power out of range)
    try:
        return R(x)
    except ArithmeticError:
        return None


def _scan(R, start: float, up: bool):
    """First grid point g_k, 1 <= k <= _SCAN_MAX_STEPS, where R raises or
    R(g_k) <= 0.

    g_0 = start and g_k = g_{k-1} * _SCAN_FACTOR (up) or g_{k-1} /
    _SCAN_FACTOR (down), so every g_k is the point a step-by-step scan
    reaches.  From the last point known not to stop the scan, R is evaluated
    1, 2, 4, ... grid steps on until it raises, is nan or is not positive,
    then the index is bisected.  That finds the step-by-step scan's bracket
    as long as R stays positive up to there, which holds for the strictly
    monotone radicand of every scan find_intercepts starts.  A raise at the
    point found is repeated.  A nan there does not stop the step-by-step
    scan, so the gallop starts again from it: in floating point the radicand
    turns nan (inf - inf) where both of its powers overflow, which can come
    after its sign change or before a power raises.

    Returns (g_{k-1}, g_k, R(g_{k-1}), R(g_k)), or None without a sign
    change.
    """
    grid = [start]
    lo, f_lo = 0, R(start)
    while True:
        stride = 1
        while True:
            hi = min(lo + stride, _SCAN_MAX_STEPS)
            g = grid[-1]
            for _ in range(hi + 1 - len(grid)):
                g = g * _SCAN_FACTOR if up else g / _SCAN_FACTOR
                grid.append(g)
            f_hi = _probe(R, g)
            if f_hi is None or not f_hi > 0.0:
                break
            if hi == _SCAN_MAX_STEPS:
                return None
            lo, f_lo = hi, f_hi
            stride *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            f = _probe(R, grid[mid])
            if f is None or not f > 0.0:
                hi, f_hi = mid, f
            else:
                lo, f_lo = mid, f
        if f_hi is None:
            f_hi = R(grid[hi])  # raises as the step-by-step scan does
        if f_hi <= 0.0:
            return grid[lo], grid[hi], f_lo, f_hi
        if hi == _SCAN_MAX_STEPS:
            return None
        lo, f_lo = hi, f_hi


def _march_up(R, start: float):
    out = _scan(R, start, True)
    if out is None:
        raise NoBracket(f"no sign change found scanning up from {start!r}")
    return out


def _march_down(R, start: float):
    out = _scan(R, start, False)
    if out is None:
        raise NoBracket(f"no sign change found scanning down from {start!r}")
    b, a, fb, fa = out
    return a, b, fa, fb


def _refine_root(R, dR, a, b, fa, fb, lam2, alpha, B, P) -> float:
    x = brent(R, a, b, fa, fb, xtol=1e-15 * max(abs(b), 1e-30))
    x = newton_polish(R, dR, x, a, b)
    scale = max(lam2 * x * x, abs(B) * x ** alpha if B != 0.0 else 0.0,
                2.0 * abs(P), 1.0)
    if abs(R(x)) > 1e-12 * scale:
        raise NumericalError(
            f"turning point residual {R(x):.3e} exceeds tolerance at x={x!r}")
    return x


def find_intercepts(p: FlowParams) -> Intercepts:
    """Locate the y = 0 points of the level curve of pressure_hamiltonian.

    Roots are bracketed on a geometric grid (64 points per decade) around the
    natural radicand scales, then refined by Brent iteration and a safeguarded
    Newton polish to 1e-13.  The grid is searched by galloping: the radicand
    is evaluated 1, 2, 4, ... grid steps from the start until its sign
    changes, then the step index is bisected.  The grid points are the ones
    a step-by-step scan walks through, each one factor from the last, so
    the bracket, and the root refined from it, are the same bit for bit;
    the radicand is strictly monotone along every scan, so the first sign
    change is found in O(log k) evaluations instead of k.

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
        power of the radicand overflows a double.
    NoBracket
        If scanning cannot bracket a root that the sign analysis promises;
        signals inconsistent parameters.
    NumericalError
        If a refined turning point misses its residual tolerance.

    Each of these errors names (lam, P, B).
    """
    try:
        return _intercepts(p)
    except OverflowError:
        exc = DomainError("a power in the radicand overflows a double")
    except (NoBracket, NumericalError) as e:
        exc = e
    raise type(exc)(f"turning points of lam={p.lam!r}, P={p.P!r}, B={p.B!r}:"
                    f" {exc}") from None


def _intercepts(p: FlowParams) -> Intercepts:
    lam, P, B = p.lam, p.P, p.B
    R, dR, lam2, alpha = _radicand_funcs(p)

    aB = alpha * B
    if aB > 0.0:
        # interior critical point (center candidate) exists
        x_c = (aB / (2.0 * lam2)) ** (0.5 * lam)
        P_crit = 0.5 * (-lam2 * x_c * x_c + B * x_c ** alpha)
        if abs(P - P_crit) <= 1e-13 * (abs(P_crit) + 1e-300):
            return Intercepts(InterceptKind.Center, x_c)
        if P > P_crit:
            if lam > 1.0:
                raise DomainError(
                    f"P={P!r} exceeds P_max={P_crit!r}: empty level set")
            return Intercepts(InterceptKind.Empty)
        # start the up-scan at the larger of the center and the pressure
        # scale; a tiny B puts x_c hundreds of decades below the outer root
        s = max(x_c, 1e-8 * math.sqrt(2.0 * abs(P)) / lam)
        fs = R(s)
        if fs <= 0.0:
            x1 = _refine_root(R, dR, x_c, s, R(x_c), fs, lam2, alpha, B, P)
        else:
            x1 = _refine_root(R, dR, *_march_up(R, s), lam2, alpha, B, P)
        # inner root exists iff the radicand is negative at the axis
        axis_negative = (P > 0.0) if lam > 1.0 else True
        if axis_negative:
            x0 = _refine_root(R, dR, *_march_down(R, x_c), lam2, alpha, B, P)
            return Intercepts(InterceptKind.EllipticPair, x0, x1)
        return Intercepts(InterceptKind.HyperbolicSingle, x1)

    # no interior critical point: R is strictly decreasing in x
    if lam < 1.0 and B > 0.0:
        r_axis = math.inf
    elif lam == 1.0:
        r_axis = B - 2.0 * P
    else:
        r_axis = -2.0 * P
    if r_axis <= 0.0:
        return Intercepts(InterceptKind.Empty)
    scales = [1e-300]
    if P != 0.0:
        scales.append(math.sqrt(2.0 * abs(P)) / lam)
    if B != 0.0:
        scales.append((abs(B) / lam2) ** (0.5 * lam))
    x_ref = max(scales)
    if x_ref <= 1e-300:
        return Intercepts(InterceptKind.Empty)
    lo = 1e-8 * x_ref
    while R(lo) <= 0.0:
        lo /= 10.0
        if lo < 1e-290:
            raise NoBracket("radicand positive region vanished near the axis")
    x1 = _refine_root(R, dR, *_march_up(R, lo), lam2, alpha, B, P)
    return Intercepts(InterceptKind.HyperbolicSingle, x1)


def _run_kernel(p: FlowParams, x0: float, y0: float, t_max: float, rtol: float,
                max_step: float, guard: int, stop_kind: int, n_stop: int):
    # large-lam elliptic orbits live at x ~ (lam^-2)^(lam/2), far below any
    # fixed floor; flooring the scale there would void the error control
    x_scale = max(abs(x0), abs(y0) / p.lam)
    if x_scale == 0.0:
        x_scale = 1e-8
    atol_x = 1e-13 * x_scale
    atol_y = 1e-13 * p.lam * x_scale
    cap = 1 << 14
    while True:
        t_buf = np.empty(cap)
        x_buf = np.empty(cap)
        y_buf = np.empty(cap)
        ev_buf = np.empty(8)
        out = _kernels.rk45_orbit(p.lam, p.B, x0, y0, t_max, rtol, atol_x,
                                  atol_y, max_step, _H_MIN, X_MIN, guard,
                                  stop_kind, n_stop, t_buf, x_buf, y_buf,
                                  ev_buf)
        status, n = out[0], out[1]
        if status != 2:
            return out, t_buf[:n], x_buf[:n], y_buf[:n]
        cap *= 2
        if cap > (1 << 22):
            raise NumericalError(f"sample buffer exhausted: the orbit of {p}"
                                 f" needs over {cap // 2} samples")


def integrate_orbit(p: FlowParams, start: PhaseState, stop: StopCondition, *,
                    rtol: float = 1e-10,
                    max_step: float = MAX_SAMPLE_STEP) -> Orbit:
    """Integrate the phase system from start until the stop condition.

    Parameters
    ----------
    p : FlowParams
    start : PhaseState
        Must lie on the level set {pressure_hamiltonian = p.P} within 1e-10
        relative; start.x may be 0 only when lam >= 2 or B = 0.
    stop : ReturnToAxis | ReturnToStart | FixedTime
        ReturnToStart measures one full period of a closed orbit; a start off
        the x-axis is first advanced to its apex and the loop is sampled from
        there (the period does not depend on the starting point).
    rtol : float, optional
        Relative tolerance of the step-size controller.
    max_step : float, optional
        Largest time step, and so the widest spacing of the samples.

    Returns
    -------
    Orbit
        With (t, x, y) samples spaced at most max_step apart, x clamped to
        x >= 0, and measured_span set to the event (or fixed) time.

    Raises
    ------
    SingularEndpoint
        If the state enters x < X_MIN while lam < 2 and B != 0.
    StepFailure
        If the step-size controller underflows.
    EventNotFound
        If the stop condition is not met within the time cap.
    SteadyStateError
        If asked for a return condition from a stationary point.
    """
    if isinstance(stop, type):
        stop = stop()
    lam, B = p.lam, p.B
    H = pressure_hamiltonian(start, lam, B)
    if abs(H - p.P) > 1e-10 * (1.0 + abs(p.P)):
        raise DomainError(
            f"start is off the level set: H={H!r} vs P={p.P!r}")
    if start.x == 0.0 and lam < 2.0 and B != 0.0:
        raise DomainError("start.x = 0 requires lam >= 2 (or B = 0)")

    dx0, dy0 = phase_vector_field(start, lam, B)
    field_scale = lam * lam * max(abs(start.x), abs(start.y) / lam, 1e-300)
    stationary = max(abs(dx0), abs(dy0)) <= 1e-13 * field_scale
    if stationary:
        if isinstance(stop, FixedTime):
            samples = _samples((0.0, stop.t), (start.x,) * 2, (start.y,) * 2)
            return Orbit(p, samples, False, stop.t)
        raise SteadyStateError(
            "start is a steady state; no return event will occur")

    guard = 1 if (lam < 2.0 and B != 0.0) else 0
    t_cap = 8.0 * (2.0 * math.pi / math.sqrt(2.0 * lam) + math.pi
                   + math.pi / lam)

    span_factor = 1.0
    if isinstance(stop, FixedTime):
        out, ts, xs, ys = _run_kernel(p, start.x, start.y, stop.t, rtol,
                                      max_step, guard, 0, 0)
        closed = False
    elif isinstance(stop, ReturnToAxis):
        out, ts, xs, ys = _run_kernel(p, start.x, start.y, t_cap, rtol,
                                      max_step, guard, 1, 1)
        closed = False
        if start.y == 0.0:
            # apex start covers half the arch; the span doubles by symmetry
            span_factor = 2.0
    elif isinstance(stop, ReturnToStart):
        x_a, y_a = start.x, start.y
        if start.y != 0.0:
            # phase 1: ride to the apex, where y crosses zero
            out, ts, xs, ys = _run_kernel(p, start.x, start.y, t_cap, rtol,
                                          max_step, guard, 2, 1)
            _raise_for_status(out, p)
            x_a, y_a = xs[-1], 0.0
        out, ts, xs, ys = _run_kernel(p, x_a, y_a, t_cap, rtol, max_step,
                                      guard, 2, 2)
        closed = True
    else:
        raise TypeError(f"unsupported stop condition: {stop!r}")

    _raise_for_status(out, p)
    t_end = out[3]

    if np.any(xs < -1e-12):
        raise DomainError(
            "orbit crossed into x < 0; use ReturnToAxis for arch segments")
    xs = np.maximum(xs, 0.0)
    span = span_factor * float(t_end)

    drift = _pressure_drift(p, xs, ys)
    bound = 1e-9 * (1.0 + abs(p.P))
    if drift > bound:
        raise NumericalError(
            f"pressure drift {drift:.3e} exceeds the conservation tolerance"
            f" 1e-9 (1 + |P|) = {bound:.3e} for {p}")
    return Orbit(p, _samples(ts, xs, ys), closed, span)


def _samples(ts, xs, ys) -> np.ndarray:
    # column_stack copies, so the kernel's sample buffers are not kept alive
    out = np.column_stack((ts, xs, ys)).astype(np.float64, copy=False)
    out.flags.writeable = False
    return out


def _pressure_drift(p: FlowParams, xs: np.ndarray, ys: np.ndarray) -> float:
    alpha = 2.0 - 2.0 / p.lam
    H = -0.5 * ys * ys - 0.5 * p.lam * p.lam * xs * xs
    if p.B != 0.0:
        with np.errstate(divide="ignore"):
            pw = np.where(xs > 0.0, xs, 1.0) ** alpha
        pw = np.where(xs > 0.0, pw, 1.0 if alpha == 0.0 else 0.0)
        H = H + 0.5 * p.B * pw
    return float(np.abs(H - p.P).max())


def _raise_for_status(out, p: FlowParams) -> None:
    status, _n, _nev, t, x, y = out
    if status == 0:
        return
    if status == 3:
        raise StepFailure(f"step size fell below {_H_MIN!r} at t={t!r},"
                          f" x={x!r} for {p}")
    if status == 4:
        raise SingularEndpoint(
            f"state entered x < X_MIN = {X_MIN!r} near the axis at t={t!r}"
            f" for {p} (lam < 2 with B != 0); use the quadrature path")
    if status == 5:
        raise EventNotFound(f"stop condition not met by t_cap = {t!r} for {p}")
    raise NumericalError(f"unknown integrator status {status} for {p}")
