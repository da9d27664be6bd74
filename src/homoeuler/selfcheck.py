"""Acceptance checks runnable as a suite: each criterion returns (ok, detail).

The checks mirror the library's documented accuracy contract and are wired
both to the ``selfcheck`` CLI subcommand and to the acceptance test module.
Every check recomputes its own oracle values; none of them read fixtures.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .assemble import (
    GlobalSolution,
    LocalArc,
    Piece,
    SmoothnessKind,
    bernoulli_drift,
    elliptic_arc,
    elliptic_global,
    energy_flux,
    global_profile,
    h1_seminorm,
    hyperbolic_arc,
    stitch,
    weak_residuals,
)
from .classify import (
    bernoulli,
    count_elliptic,
    solution_type,
    solve_elliptic,
    solve_hyperbolic_span,
)
from .core import FlowParams, conjugate, steady_state
from .errors import DomainError
from .families import evaluate_family, lambda_half, ode_residual
from .orbits import closed_orbit, find_intercepts, integrate_orbit
from .periods import chicone_W, span_any, span_quadrature

TWO_PI = 2.0 * math.pi


def _span(lam: float, P: float, B: float) -> float:
    return span_any(FlowParams(lam, P, B)).T


def criterion_01():
    """lam = 2 flat period: T = pi for pressures across (0, P_max)."""
    pm = steady_state(2.0, 1.0).P_max
    worst = max(abs(_span(2.0, pm * k / 11.0, 1.0) - math.pi)
                for k in range(1, 11))
    return worst <= 1e-8, f"max |T - pi| = {worst:.3e} (tol 1e-8)"


def criterion_02():
    """Center limit: T(P_max(1 - 1e-6)) = 2 pi / sqrt(2 lam)."""
    devs = {}
    for lam in (3.0, 5.0, 8.0):
        pm = steady_state(lam, 1.0).P_max
        T = _span(lam, pm * (1.0 - 1e-6), 1.0)
        devs[lam] = abs(T - TWO_PI / math.sqrt(2.0 * lam))
    worst = max(devs.values())
    return worst <= 1e-3, f"max center deviation {worst:.3e} (tol 1e-3)"


def criterion_03():
    """Separatrix limit: T(1e-8 P_max) = pi within 5e-3.

    The approach to pi is a power law with a small exponent,
    pi - T ~ (P/P_max)^(1/(2(lam - 1))); at 1e-8 P_max the lam = 5 gap is
    still ~0.12, so this check reports the honest distance.
    """
    gaps = {}
    for lam in (2.5, 5.0):
        pm = steady_state(lam, 1.0).P_max
        gaps[lam] = abs(math.pi - _span(lam, 1e-8 * pm, 1.0))
    detail = ", ".join(f"lam={lam:g}: pi - T = {g:.3e}"
                       for lam, g in gaps.items())
    return max(gaps.values()) <= 5e-3, detail + " (tol 5e-3)"


def criterion_04():
    """Hyperbolic span limits at lam = 2 for both Bernoulli signs.

    The B = 1, P = -1e-6 clause approaches pi by the same power law, here
    with exponent 1/2: the gap is exactly
    pi/2 - arcsin((1 + 32|P|)^(-1/2)) ~ sqrt(32|P|), 5.66e-3 at that
    pressure.
    """
    d_deep = abs(_span(2.0, -1e6, 1.0) - 0.5 * math.pi)
    d_sep = abs(math.pi - _span(2.0, -1e-6, 1.0))
    t_neg = _span(2.0, -1e-6, -1.0)
    ok = d_deep <= 1e-3 and d_sep <= 5e-3 and t_neg <= 1e-2
    return ok, (f"|T(-1e6) - pi/2| = {d_deep:.3e} (tol 1e-3), "
                f"pi - T(-1e-6) = {d_sep:.3e} (tol 5e-3), "
                f"T(B=-1) = {t_neg:.3e} (tol 1e-2)")


def _strict(values, increasing):
    d = np.diff(values)
    return bool(np.all(d > 0.0) if increasing else np.all(d < 0.0))


def criterion_05():
    """Monotone period certificates plus the W sign test."""
    bad = []
    for lam in (1.5, 1.8, 2.5, 3.0, 5.0):
        pm = steady_state(lam, 1.0).P_max
        ts = [_span(lam, f * pm, 1.0) for f in np.linspace(0.02, 0.98, 20)]
        if not _strict(ts, increasing=lam < 2.0):
            bad.append(f"elliptic lam={lam:g}")
    for lam in (2.0, 3.0):
        for B in (1.0, -1.0):
            # T grows with -P for B = -1 (0 toward pi/lam) and shrinks with
            # -P for B = +1 (pi toward pi/lam); grids ascend in P.
            ps = -np.logspace(2.0, -2.0, 20)
            ts = [_span(lam, float(P), B) for P in ps]
            if not _strict(ts, increasing=B > 0.0):
                bad.append(f"hyperbolic lam={lam:g}, B={B:g}")
    x_sup3 = (3.0 / 2.0) ** 1.5
    w3 = min(chicone_W(float(x), 3.0)
             for x in np.linspace(1e-6, x_sup3 * (1 - 1e-9), 10 ** 4))
    x_sup15 = 3.0 ** 0.75
    w15 = max(chicone_W(float(x), 1.5)
              for x in np.linspace(1e-6, x_sup15 * (1 - 1e-9), 10 ** 4))
    if w3 < -1e-12:
        bad.append(f"min W(lam=3) = {w3:.2e}")
    if w15 > 1e-12:
        bad.append(f"max W(lam=1.5) = {w15:.2e}")
    if bad:
        return False, "; ".join(bad)
    return True, (f"9 grids strictly monotone; min W(3) = {w3:.1e}, "
                  f"max W(1.5) = {w15:.1e}")


def criterion_06():
    """Conjugacy identity with both sides on independent quadratures."""
    worst = 0.0
    def _both(p: FlowParams) -> float:
        q = conjugate(p)
        lhs = span_quadrature(p.lam, p.P, p.B).T
        rhs = (1.0 / p.lam) * span_quadrature(q.lam, q.P, q.B).T
        return abs(lhs - rhs)

    for lam in (1.5, 2.5, 3.0, 5.0, 8.0):
        pm = steady_state(lam, 1.0).P_max
        for f in (0.1, 0.3, 0.5, 0.7, 0.9):
            worst = max(worst, _both(FlowParams(lam, f * pm, 1.0)))
    for lam in (2.0, 2.5, 3.0, 4.0, 6.0):
        for P in (-0.3, -1.0, -3.0, -10.0, -30.0):
            worst = max(worst, _both(FlowParams(lam, P, 1.0)))
    return worst <= 1e-7, f"max |T - (1/lam) T_conj| = {worst:.3e} (tol 1e-7)"


def criterion_07():
    """Random dual oracle: quadrature spans vs integrated orbit spans."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        lam = float(rng.uniform(2.0, 10.0))
        pm = steady_state(lam, 1.0).P_max
        P = float(rng.uniform(0.05, 0.95)) * pm
        p = FlowParams(lam, P, 1.0)
        T = span_quadrature(lam, P, 1.0).T
        orbit = closed_orbit(p, find_intercepts(p).x0)
        worst = max(worst, abs(orbit.measured_span - T))
    for _ in range(10):
        lam = float(rng.uniform(2.0, 10.0))
        B = float(np.exp(rng.uniform(math.log(0.2), math.log(5.0))))
        p = FlowParams(lam, -1.0, B)
        T = span_quadrature(lam, -1.0, B).T
        ic = find_intercepts(p)
        # measured_span folds the apex-to-axis symmetry in already
        orbit = integrate_orbit(p, ic.x0, max_step=T / 2048.0)
        worst = max(worst, abs(orbit.measured_span - T))
    return worst <= 1e-7, f"max route disagreement {worst:.3e} (tol 1e-7)"


def criterion_08():
    """Elliptic counting and the lam = 5, n = 3 root with its profile."""
    counts = {4.5: None, 5.0: 1, 13.0: 3}
    for lam, n in counts.items():
        cat = count_elliptic(lam)
        got = cat.n if cat.n else None
        if got != n:
            return False, f"count at lam={lam:g} gave {got}, wanted {n}"
    res = solve_elliptic(5.0, 3)
    T = span_any(FlowParams(5.0, res.P_star, 1.0)).T
    if abs(T - TWO_PI / 3.0) > 1e-10:
        return False, f"|T - 2 pi/3| = {abs(T - TWO_PI / 3.0):.3e} > 1e-10"
    g = elliptic_global(5.0, res.P_star, 1.0)
    th, psi, dpsi = global_profile(g)
    rep = ode_residual(list(zip(th, psi, dpsi)), 5.0, res.P_star)
    weak = max(abs(w) for w in rep.weak)
    ok = weak <= 1e-6
    return ok, (f"counts ok; |T - 2 pi/3| = {abs(T - TWO_PI / 3.0):.1e}; "
                f"profile weak residual {weak:.3e} (tol 1e-6)")


@functools.lru_cache(maxsize=1)
def _cusp3() -> GlobalSolution:
    """The lam = 2/3 cusp solution: three arcs of span 2 pi/3 at P = 1."""
    B = solve_hyperbolic_span(2.0 / 3.0, 1.0, TWO_PI / 3.0)
    return stitch(2.0 / 3.0, 1.0, [(B, 1), (B, -1), (B, 1)])


def criterion_09():
    """Stitched tilings: cusp three-arc and harmonic four-arc."""
    cusp = _cusp3()
    harm = stitch(2.0, -0.5, [(0.0, 1), (0.0, -1), (0.0, 1), (0.0, -1)])
    msgs = []
    ok = True
    for name, g in (("cusp", cusp), ("harmonic", harm)):
        gap = abs(sum(p.arc.span for p in g.pieces) - TWO_PI)
        weak = max(abs(w) for w in weak_residuals(g))
        if gap > 1e-9 or weak > 1e-7:
            ok = False
        msgs.append(f"{name}: tiling gap {gap:.1e}, weak {weak:.1e}")
    slope = math.sqrt(-2.0 * harm.P)
    s_err = max(abs(p.arc.endpoint_slope - slope) for p in harm.pieces)
    if s_err > 1e-6:
        ok = False
    msgs.append(f"junction slope error {s_err:.1e}")
    return ok, "; ".join(msgs)


def _corrupted_flux() -> float:
    span = 0.5 * math.pi
    th = np.linspace(0.0, span, 513)
    warped = span * (th / span) ** 1.1
    warped[0] = 0.0
    dwarp = 1.1 * (th / span) ** 0.1
    dwarp[0] = 0.0
    params = FlowParams(2.0, -0.5, 0.0)
    psi = 0.5 * np.sin(2.0 * warped)
    dpsi = dwarp * np.cos(2.0 * warped)
    profile = tuple((float(a), float(b), float(c))
                    for a, b, c in zip(th, psi, dpsi))
    arc = LocalArc(params, span, profile, 1.0, solution_type(params))
    bad = GlobalSolution(2.0, -0.5, (Piece(arc, 1, 0.0),),
                         SmoothnessKind.C1)
    return energy_flux(bad)


def criterion_10():
    """Flux vanishes on the cusp solution; the warped control does not."""
    g = _cusp3()
    scale = max(1.0, h1_seminorm(g) ** 1.5)
    scaled = abs(energy_flux(g)) / scale
    control = abs(_corrupted_flux())
    ok = scaled <= 1e-8 and control > 1e-4
    return ok, (f"scaled |flux| = {scaled:.3e} (tol 1e-8); "
                f"corrupted control {control:.3e} (> 1e-4)")


def criterion_11():
    """Bernoulli conservation along arcs, plus the two conjugate anchors."""
    arcs = [
        hyperbolic_arc(3.0, -1.0, 4.0),
        hyperbolic_arc(2.0, -1.0, math.sqrt(32.0)),
        hyperbolic_arc(2.0 / 3.0, 1.0, 3.500247331754384),
        hyperbolic_arc(1.5, -1.0, 2.0),
        elliptic_arc(2.0, 1.5, 8.0),
        elliptic_arc(5.0, 0.5 * steady_state(5.0, 1.0).P_max, 1.0),
    ]
    drift = max(bernoulli_drift(a) for a in arcs)
    b2 = bernoulli(1.5, 0.0, 2.0, 1.5)
    psi0, dpsi0 = evaluate_family(lambda_half(1.0, 0.5), 0.0)
    bh = bernoulli(psi0, dpsi0, 0.5, -0.25)
    anchor = max(abs(b2 - 8.0) / 8.0, abs(bh + 3.0 / 16.0) / (3.0 / 16.0))
    ok = drift <= 1e-9 and anchor <= 1e-10
    return ok, (f"max arc drift {drift:.3e} (tol 1e-9); "
                f"anchor error {anchor:.3e} (tol 1e-10)")


def criterion_12():
    """Inadmissible regions must raise domain errors."""
    failures = []
    try:
        hyperbolic_arc(3.0, 1.0, 1.0)
        failures.append("lam=3, P=+1 arc was accepted")
    except DomainError:
        pass
    try:
        solve_hyperbolic_span(3.0, 1.0, 0.9 * math.pi)
        failures.append("lam=3 span solve with P > 0 was accepted")
    except DomainError:
        pass
    try:
        hyperbolic_arc(0.4, 1.0, 2.0)
        failures.append("lam=0.4 arc was accepted")
    except DomainError:
        pass
    try:
        solve_hyperbolic_span(0.4, 1.0, 0.5 * math.pi)
        failures.append("lam=0.4 span solve was accepted")
    except DomainError:
        pass
    if failures:
        return False, "; ".join(failures)
    return True, "all four inadmissible constructions raised domain errors"


CRITERIA = [
    ("criterion_01", "flat period at lam = 2", criterion_01),
    ("criterion_02", "center period limit", criterion_02),
    ("criterion_03", "separatrix period limit", criterion_03),
    ("criterion_04", "hyperbolic span limits", criterion_04),
    ("criterion_05", "period monotonicity certificates", criterion_05),
    ("criterion_06", "conjugacy span identity", criterion_06),
    ("criterion_07", "random dual span oracle", criterion_07),
    ("criterion_08", "elliptic counting and root", criterion_08),
    ("criterion_09", "stitched global structure", criterion_09),
    ("criterion_10", "energy flux vanishing", criterion_10),
    ("criterion_11", "Bernoulli conservation", criterion_11),
    ("criterion_12", "inadmissible regions rejected", criterion_12),
]


def run_all():
    """Evaluate every criterion; yields (name, title, ok, detail)."""
    for name, title, fn in CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield name, title, ok, detail
