"""Kernel-level timings: quadrature, turning points, orbits and arcs.

Each workload runs once as a warmup, then --reps times; the best time is
printed, in seconds.

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


def _workloads():
    from homoeuler.assemble import elliptic_arc, hyperbolic_arc
    from homoeuler.classify import solve_elliptic
    from homoeuler.core import FlowParams, steady_state
    from homoeuler.orbits import (
        PhaseState,
        ReturnToAxis,
        ReturnToStart,
        find_intercepts,
        integrate_orbit,
    )
    from homoeuler.periods import period_elliptic, span_quadrature

    def spans():
        for lam in (2.5, 3.0, 5.0):
            pm = steady_state(lam, 1.0).P_max
            for f in np.linspace(0.1, 0.9, 5):
                span_quadrature(lam, float(f) * pm, 1.0)
            for P in (-0.5, -2.0):
                span_quadrature(lam, P, 1.0)

    # B < 0 arches: find_intercepts scans up from 8 decades below the apex
    arches = [FlowParams(lam, P, -1.0) for lam in (1.5, 2.0, 3.0, 5.0)
              for P in (-1e-3, -0.5, -2.0, -10.0, -1e3)]

    def turning_points():
        for p in arches:
            find_intercepts(p)

    # next to the centre each period runs out of its 1024-panel budget
    near_centre = [(lam, (1.0 - 1e-6) * steady_state(lam, 1.0).P_max)
                   for lam in (3.0, 5.0, 8.0)]

    def near_centre_periods():
        for lam, P in near_centre:
            period_elliptic(lam, P)

    def orbits():
        for lam in (2.0, 3.0, 5.0):
            P = 0.5 * steady_state(lam, 1.0).P_max
            p = FlowParams(lam, P, 1.0)
            ic = find_intercepts(p)
            integrate_orbit(p, PhaseState(ic.x1, 0.0), ReturnToStart())

    # orbits that end in stop events: apex-to-axis arches, and the lam = 13,
    # n = 4 closed orbit whose period the census checks against 2 pi/4
    event_runs = []
    for lam in (3.0, 5.0):
        p = FlowParams(lam, -1.0, 1.0)
        event_runs.append((p, PhaseState(find_intercepts(p).x0, 0.0),
                           ReturnToAxis()))
    p = FlowParams(13.0, solve_elliptic(13.0, 4).P_star, 1.0)
    event_runs.append((p, PhaseState(find_intercepts(p).x1, 0.0),
                       ReturnToStart()))

    def events():
        for p, start, stop in event_runs:
            integrate_orbit(p, start, stop)

    def arcs():
        hyperbolic_arc(3.0, -1.0, 4.0)
        hyperbolic_arc(2.0 / 3.0, 1.0, 3.5)
        elliptic_arc(2.0, 1.5, 8.0)

    return [("span quadrature x21", spans),
            ("turning points x20", turning_points),
            ("near-centre period x3", near_centre_periods),
            ("orbit integration x3", orbits),
            ("orbit events x3", events),
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
    for name, fn in _workloads():
        print(f"{name:<24} {_best_of(fn, args.reps):.6f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
