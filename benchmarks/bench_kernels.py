"""Kernel-level timings: quadrature, scan rows, turning points, orbits,
census roots, arcs, and the break-even of period-scan's fan-out.

Each workload runs once as a warmup, then --reps times; the best time is
printed, in seconds.  The last line derives the fork round trip, the row
cost and the row count from which a second worker pays, the basis of
`cli._ROWS_PER_WORKER`.

    python3 benchmarks/bench_kernels.py --reps 5
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

# row counts of the fan-out break-even scans
FAN_OUT_ROWS = (8, 16, 32, 64, 256)


def _workloads():
    from homoeuler.assemble import elliptic_arc, hyperbolic_arc
    from homoeuler.classify import solve_elliptic
    from homoeuler.cli import _scan_grid, _scan_rows
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

    # the default 200-point tables of period-scan: elliptic at lam = 5, and
    # hyperbolic with either sign of B at lam = 3
    scan_rows = []
    for lam, region, sign in ((5.0, "elliptic", "plus"),
                              (3.0, "hyperbolic", "plus"),
                              (3.0, "hyperbolic", "minus")):
        ps, B = _scan_grid(argparse.Namespace(
            lam=lam, n_points=200, region=region, p_min=None, p_max=None,
            b_sign=sign))
        scan_rows += [FlowParams(lam, P, B) for P in ps]

    def period_scan_rows():
        for p in scan_rows:
            span_any(p)

    # B < 0 arches: find_intercepts scans up from 8 decades below the apex
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
            period_elliptic(lam, P)

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

    # one lam = 5 elliptic scan of n rows, in-process and on two processes
    def fan_out(n, workers):
        ps, B = _scan_grid(argparse.Namespace(
            lam=5.0, n_points=n, region="elliptic", p_min=None, p_max=None,
            b_sign="plus"))
        return lambda: _scan_rows(5.0, ps, B, workers)

    scans = [(f"scan {n} rows, {w} proc", fan_out(n, w))
             for n in FAN_OUT_ROWS for w in (1, 2)]

    return [("span quadrature x21", spans),
            ("period-scan rows x600", period_scan_rows),
            ("turning points x20", turning_points),
            ("near-centre period x3", near_centre_periods),
            ("orbit events x2", events),
            ("census orbit, x0 (u,v) x3", census_orbits),
            ("census roots x4", census_roots),
            ("elliptic arc x2", elliptic_arcs),
            ("arc construction x3", arcs)] + scans


def _break_even(best: dict) -> str:
    """Fork round trip, row cost and break-even row count of the fan-out.

    A scan of n rows costs n r in-process and about f + n r / 2 on two
    processes, so a second worker pays from n = 2 f / r rows on.  r comes
    from the largest in-process scan, f from the smallest forked one.
    """
    n_lo, n_hi = FAN_OUT_ROWS[0], FAN_OUT_ROWS[-1]
    r = best[f"scan {n_hi} rows, 1 proc"] / n_hi
    f = best[f"scan {n_lo} rows, 2 proc"] - best[f"scan {n_lo} rows, 1 proc"] / 2
    return (f"fan-out: fork round trip {1e3 * f:.2f} ms, row {1e3 * r:.3f} ms,"
            f" break-even {2.0 * f / r:.0f} rows")


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
    best = {}
    for name, fn in _workloads():
        best[name] = _best_of(fn, args.reps)
        print(f"{name:<26} {best[name]:.6f} s")
    print(_break_even(best))
    return 0


if __name__ == "__main__":
    sys.exit(main())
