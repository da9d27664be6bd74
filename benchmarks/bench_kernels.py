"""Kernel-level timings: quadrature, scan rows (batched and one by one),
turning points, orbits, census roots and arcs.

Each workload runs once as a warmup, then --reps times; the best time is
printed, in seconds.  The period-scan rows are timed both as period-scan
evaluates them, one `span_rows` call per 200-row table, and as a loop over
`span_any`; `span_rows` is also timed in its two parts, the row set-up
(`periods._route` with its turning points, and `periods._plan`) and the
batched quadratures of the rows set up.  Then come the radicand
evaluations per turning point over the period-scan rows, the
Gauss-Kronrod panels each way evaluates over the same rows, and for each
workload the number of `adaptive_gk` calls with a histogram of their
final panel counts (1 + bisections; the panels are counted at
`_kernels._gk_panel`, which evaluates 2n - 1 of them for n).

    python3 benchmarks/bench_kernels.py --reps 5
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

# the default 200-point tables of period-scan: elliptic at lam = 5, and
# hyperbolic with either sign of B at lam = 3 (lam, region, B sign, and the
# upper end of the pressures as a fraction of P_max, None for the default)
DEFAULT_SCANS = ((5.0, "elliptic", "plus", None),
                 (3.0, "hyperbolic", "plus", None),
                 (3.0, "hyperbolic", "minus", None))
# elliptic tables that reach to 1e-6 of the centre pressure
NEAR_CENTRE_SCANS = ((3.0, "elliptic", "plus", 1.0 - 1e-6),
                     (5.0, "elliptic", "plus", 1.0 - 1e-6))


def _scan_tables(scans):
    """(lam, pressures, B) of each scan's 200 rows."""
    from homoeuler.cli import _scan_grid
    from homoeuler.core import steady_state

    tables = []
    for lam, region, sign, frac in scans:
        p_max = None if frac is None else frac * steady_state(lam, 1.0).P_max
        ps, B = _scan_grid(argparse.Namespace(
            lam=lam, n_points=200, region=region, p_min=None, p_max=p_max,
            b_sign=sign))
        tables.append((lam, ps, B))
    return tables


def _scan_rows_params(scans):
    from homoeuler.core import FlowParams

    return [FlowParams(lam, P, B) for lam, ps, B in _scan_tables(scans)
            for P in ps]


def _evaluations_per_turning_point() -> str:
    """Radicand evaluations per turning point over the rows of the default
    and near-centre period-scan tables, counted by wrapping the radicand
    that orbits._radicand_funcs builds."""
    from homoeuler import orbits
    from homoeuler.periods import span_any

    radicand_funcs = orbits._radicand_funcs
    calls = [0]

    def counting(p):
        R, lam2, alpha = radicand_funcs(p)

        def counted(x):
            calls[0] += 1
            return R(x)
        return counted, lam2, alpha

    per_point = []
    orbits._radicand_funcs = counting
    try:
        for p in _scan_rows_params(DEFAULT_SCANS + NEAR_CENTRE_SCANS):
            calls[0] = 0
            span_any(p)
            # a period solves both turning points, an arch its apex
            per_point.append(calls[0] / (2 if p.P > 0.0 else 1))
    finally:
        orbits._radicand_funcs = radicand_funcs
    return (f"radicand evaluations per turning point: median"
            f" {np.median(per_point):.1f}, mean {np.mean(per_point):.2f},"
            f" max {max(per_point):.1f} over {len(per_point)} rows")


def _panels_per_route() -> str:
    """Gauss-Kronrod panels over the rows of the default period-scan
    tables: span_any row by row (counted at _kernels._gk_panel) and
    span_rows per table (counted at _rows._gk_rows)."""
    from homoeuler import _kernels, _rows
    from homoeuler.core import FlowParams
    from homoeuler.periods import span_any

    count = [0, 0]
    gk_panel, gk_rows = _kernels._gk_panel, _rows._gk_rows

    def panel(*args):
        count[0] += 1
        return gk_panel(*args)

    def panels(f, a, b, rows):
        count[1] += a.shape[0]
        return gk_rows(f, a, b, rows)

    tables = _scan_tables(DEFAULT_SCANS)
    _kernels._gk_panel, _rows._gk_rows = panel, panels
    try:
        for lam, ps, B in tables:
            for P in ps:
                span_any(FlowParams(lam, P, B))
            _rows.span_rows(lam, ps, B)
    finally:
        _kernels._gk_panel, _rows._gk_rows = gk_panel, gk_rows
    n = sum(len(ps) for _lam, ps, _B in tables)
    return (f"panels over the {n} default scan rows: span_any loop"
            f" {count[0]}, span_rows {count[1]}")


def _panels_per_call(workloads) -> list:
    """Per workload, one untimed run's adaptive_gk calls and a histogram
    {final panels: calls}, counted at _kernels._gk_panel: a call that
    evaluates k panels ends with (k + 1)/2."""
    from homoeuler import _kernels

    gk, gk_panel = _kernels.adaptive_gk, _kernels._gk_panel
    evaluated = [0]
    finals = []

    def panel(*args):
        evaluated[0] += 1
        return gk_panel(*args)

    def adaptive(*args):
        start = evaluated[0]
        try:
            return gk(*args)
        finally:
            finals.append((evaluated[0] - start + 1) // 2)

    lines = []
    _kernels._gk_panel, _kernels.adaptive_gk = panel, adaptive
    try:
        for name, fn in workloads:
            finals.clear()
            fn()
            hist = " ".join(f"{n}:{c}" for n, c in sorted(
                Counter(finals).items()))
            line = f"{name:<26} {len(finals):5d} calls  {hist}"
            lines.append(line.rstrip())
    finally:
        _kernels._gk_panel, _kernels.adaptive_gk = gk_panel, gk
    return lines


def _workloads():
    from homoeuler import _rows
    from homoeuler._rows import span_rows
    from homoeuler.assemble import elliptic_arc, hyperbolic_arc
    from homoeuler.classify import solve_elliptic
    from homoeuler.core import FlowParams, steady_state
    from homoeuler.orbits import closed_orbit, find_intercepts, integrate_orbit
    from homoeuler.periods import period_elliptic, span_any, span_quadrature

    def spans():
        for lam in (2.5, 3.0, 5.0):
            pm = steady_state(lam, 1.0).P_max
            for f in np.linspace(0.1, 0.9, 5):
                span_quadrature(lam, float(f) * pm, 1.0)
            for P in (-0.5, -2.0):
                span_quadrature(lam, P, 1.0)

    scan_tables = _scan_tables(DEFAULT_SCANS)

    def period_scan_rows():
        for lam, ps, B in scan_tables:
            for P in ps:
                span_any(FlowParams(lam, P, B))

    def period_scan_tables():
        for table in scan_tables:
            span_rows(*table)

    def scan_setup():
        for table in scan_tables:
            _rows._setup(*table)

    set_up = [_rows._setup(*table) for table in scan_tables]

    def scan_quadrature():
        for out, jobs in set_up:
            _rows._batch(out, jobs)

    # B < 0 arches: the apex is bracketed where lam^2 x^2, or -B x^alpha,
    # alone reaches -2P and where both stay below -P
    arches = [FlowParams(lam, P, -1.0) for lam in (1.5, 2.0, 3.0, 5.0)
              for P in (-1e-3, -0.5, -2.0, -10.0, -1e3)]

    def turning_points():
        for p in arches:
            find_intercepts(p)

    # near-circular orbits, which take g from the series about the centre
    near_centre = [(lam, (1.0 - 1e-6) * steady_state(lam, 1.0).P_max)
                   for lam in (3.0, 5.0, 8.0)]

    def near_centre_periods():
        for lam, P in near_centre:
            period_elliptic(lam, P, 1.0)

    # apex-to-axis arches, which end in the axis event
    arch_starts = []
    for lam in (3.0, 5.0):
        p = FlowParams(lam, -1.0, 1.0)
        arch_starts.append((p, find_intercepts(p).x0))

    def events():
        for p, x0 in arch_starts:
            integrate_orbit(p, x0)

    # the census cross-check orbit of the n = 3 root, in (ln x, y/x) from
    # the inner turning point
    census = []
    for lam in (5.8, 13.6, 18.374073):
        p = FlowParams(lam, solve_elliptic(lam, 3).P_star, 1.0)
        census.append((p, find_intercepts(p)))

    def census_orbits():
        for p, ic in census:
            closed_orbit(p, ic.x0)

    # the arcs construct --elliptic-n 3 at lam = 5 and --elliptic-n 4 at
    # lam = 13 build
    elliptic_roots = [(lam, solve_elliptic(lam, n).P_star)
                      for lam, n in ((5.0, 3), (13.0, 4))]

    def elliptic_arcs():
        for lam, P in elliptic_roots:
            elliptic_arc(lam, P)

    def census_roots():
        # the root solve with its cross-check orbit, one root per census band
        for lam, n in ((5.8, 3), (10.0, 4), (13.6, 5), (18.374073, 6)):
            solve_elliptic(lam, n)

    def arcs():
        hyperbolic_arc(3.0, -1.0, 4.0)
        hyperbolic_arc(2.0 / 3.0, 1.0, 3.5)
        elliptic_arc(2.0, 1.5, 8.0)

    return [("span quadrature x21", spans),
            ("period-scan rows x600", period_scan_rows),
            ("span_rows tables x3", period_scan_tables),
            ("  row set-up x3", scan_setup),
            ("  batched quadrature x3", scan_quadrature),
            ("turning points x20", turning_points),
            ("near-centre period x3", near_centre_periods),
            ("orbit events x2", events),
            ("census orbit, x0 (u,v) x3", census_orbits),
            ("census roots x4", census_roots),
            ("elliptic arc x2", elliptic_arcs),
            ("arc construction x3", arcs)]


def _best_of(fn, reps: int) -> float:
    fn()  # warmup pass, not timed
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5,
                    help="timed repetitions per workload (best is kept)")
    args = ap.parse_args(argv)
    workloads = _workloads()
    for name, fn in workloads:
        print(f"{name:<26} {_best_of(fn, args.reps):.6f} s")
    print(_evaluations_per_turning_point())
    print(_panels_per_route())
    print("adaptive_gk calls, histogram of final panels per call:")
    for line in _panels_per_call(workloads):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
