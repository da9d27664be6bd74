"""Timing comparison of the compiled kernels against the pure-Python path.

Run directly for the current interpreter's mode, or with --compare to spawn
one subprocess per mode (HOMOEULER_DISABLE_JIT unset / set to 1) and print a
side-by-side table.  First-call compilation is excluded by a warmup pass, so
the numbers reflect steady-state kernel speed.

    python3 benchmarks/bench_kernels.py --compare
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
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
    from homoeuler.periods import span_quadrature

    def spans():
        for lam in (2.5, 3.0, 5.0):
            pm = steady_state(lam, 1.0).P_max
            for f in np.linspace(0.1, 0.9, 5):
                span_quadrature(lam, float(f) * pm, 1.0)
            for P in (-0.5, -2.0):
                span_quadrature(lam, P, 1.0)

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
            ("orbit integration x3", orbits),
            ("orbit events x3", events),
            ("arc construction x3", arcs)]


def _best_of(fn, reps: int) -> float:
    fn()  # warmup: triggers compilation in the jitted mode
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_current(reps: int) -> dict:
    from homoeuler._kernels import JIT_ENABLED

    results = {name: _best_of(fn, reps) for name, fn in _workloads()}
    return {"jit": JIT_ENABLED, "results": results}


def run_compare(reps: int) -> int:
    rows = {}
    modes = {}
    for label, disable in (("jit", ""), ("python", "1")):
        env = dict(os.environ)
        if disable:
            env["HOMOEULER_DISABLE_JIT"] = disable
        else:
            env.pop("HOMOEULER_DISABLE_JIT", None)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--reps", str(reps), "--json"],
            env=env, capture_output=True, text=True, check=True)
        data = json.loads(proc.stdout)
        modes[label] = data["jit"]
        for name, secs in data["results"].items():
            rows.setdefault(name, {})[label] = secs
    if modes["jit"] == modes["python"]:
        print("warning: both subprocesses ran the same mode "
              "(is numba installed?)", file=sys.stderr)
    print(f"{'workload':<24} {'jit (s)':>12} {'python (s)':>12} {'speedup':>9}")
    for name, r in rows.items():
        ratio = r["python"] / r["jit"] if r["jit"] > 0.0 else float("inf")
        print(f"{name:<24} {r['jit']:>12.6f} {r['python']:>12.6f} "
              f"{ratio:>8.1f}x")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5,
                    help="timed repetitions per workload (best is kept)")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable output for the current mode only")
    ap.add_argument("--compare", action="store_true",
                    help="run both modes in subprocesses and tabulate")
    args = ap.parse_args(argv)
    if args.compare:
        return run_compare(args.reps)
    data = run_current(args.reps)
    if args.json:
        json.dump(data, sys.stdout)
        sys.stdout.write("\n")
    else:
        mode = "numba jit" if data["jit"] else "pure python"
        print(f"mode: {mode}")
        for name, secs in data["results"].items():
            print(f"{name:<24} {secs:.6f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
