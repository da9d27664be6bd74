"""Benchmark of the homoeuler command line, end to end and per layer.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  A run draws one list of CLI jobs from the
seed.  Each pass runs the whole list through `homoeuler.cli.main(argv)` in
a fresh worker process (`worker.py`), one job after another on one thread,
and passes repeat until `--seconds` is used up.  Every job's output is
checked after its pass.  An operation is one job of the list with its
check, counted once per run; a job that exits non-zero or fails its check
in any pass is a failed operation.

--trace 0 reports the end-to-end metrics: `setup_s` (median time from
starting an interpreter to a built CLI parser), `peak_rss_mb` (median
worker peak RSS over one pass) and `jobs_per_s` (jobs that passed their
checks in every pass, per second of job time).  Times are rescaled to
nominal machine speed (see the aggregation section and calibrate.py).  The
lines before the result give the per-command rates: census roots, scan
rows, solutions, reloads, orbits, ring and ray cells per second.

--trace 1 runs every pass twice on the same inputs, untraced and traced,
and reports the per-layer metrics of the traced passes (see tracer.py) and
the tracing overhead.

The last stdout line is the result object; a fuller record with provenance
goes to perfbench/out/.  NOTES.md describes the workloads and the known
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import NOMINAL_S
from tracer import KERNEL_METRICS, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("survey", "construct", "field")

# census bands (lo, hi] holding n = 1, 2, 3 and 4 elliptic roots
CENSUS_BANDS = ((4.5, 8.0), (8.0, 12.5), (12.5, 18.0), (18.0, 24.5))
SCAN_LAMBDAS = (1.5, 2.0, 3.0, 5.0, 8.0, 13.0)
NEAR_CENTRE_LAMBDAS = (3.0, 5.0)
HYPERBOLIC_LAMBDAS = (1.5, 2.0, 3.0, 5.0)
PORTRAIT_LAMBDAS = (2.0, 3.0, 5.0)
SETUP_SAMPLES = 5
# a run must end within 180 s whatever --seconds asks for
RUN_LIMIT_S = 170.0

# (metric, job kind, grid label) -> items per second of that job kind
KIND_RATES = (
    ("census_roots_per_s", "classify", None),
    ("scan_rows_per_s", "scan", None),
    ("solutions_per_s", "construct", None),
    ("reloads_per_s", "flux", None),
    ("orbits_per_s", "portrait", None),
    ("ring_cells_per_s", "export", "ring"),
    ("ray_cells_per_s", "export", "ray"),
)

DIAG_FUNCTIONS = [name for _mod, name in LAYERS["assemble.diagnostics"]]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# workloads: a run draws one job list from its seed and repeats it per pass

def _rows(rng: random.Random, tiny: bool) -> int:
    return rng.randint(6, 10) if tiny else rng.randint(190, 210)


def survey_jobs(rng, tiny, work):
    jobs = []
    for lo, hi in CENSUS_BANDS:
        lam = round(hi - (hi - lo) * rng.random(), 6)
        jobs.append({"kind": "classify", "label": f"census ({lo:g},{hi:g}]",
                     "lam": lam,
                     "argv": ["classify", "--json", "--lambda", repr(lam)]})

    def scan(lam, region, extra, label, **more):
        n = _rows(rng, tiny)
        jobs.append({"kind": "scan", "label": label, "lam": lam,
                     "region": region, "rows": n,
                     "argv": ["period-scan", "--lambda", repr(lam),
                              "--region", region, "--n-points", str(n),
                              "--format", "json"] + extra, **more})

    for lam in SCAN_LAMBDAS:
        scan(lam, "elliptic", [], "elliptic")
    for lam in NEAR_CENTRE_LAMBDAS:
        scan(lam, "elliptic", [], "near-centre", p_max_frac=1.0 - 1e-6)
    for lam in HYPERBOLIC_LAMBDAS:
        for sign in ("plus", "minus"):
            # negative values must be attached with '=': argparse reads a
            # separate '-1e6' as an option and the CLI exits 1
            scan(lam, "hyperbolic", ["--b-sign", sign, "--p-min=-1e6",
                                     "--p-max=-1e-6"], f"hyperbolic {sign}")
    return jobs


def construct_jobs(rng, tiny, work):
    def path(name):
        return os.path.join(work, name)

    cases = (
        # name, family, construct arguments
        ("cusp", "cusp", ["--lambda", repr(2.0 / 3.0), "--pressure", "1",
                          "--equal-arcs", "3"]),
        # 3 equal arcs at lambda = 1.5 are the B = 0 harmonic arch
        # (span pi/lambda = 2 pi/3); 4 arcs need B < 0 and quadrature arcs
        ("quad15", "stitched", ["--lambda", "1.5", "--equal-arcs", "4"]),
        ("ode3", "stitched", ["--lambda", "3", "--equal-arcs", "3"]),
        ("harmonic2", "stitched", ["--lambda", "2", "--pressure", "-1",
                                   "--specs=0:+,0:-,0:+,0:-"]),
        ("repair15", "stitched", ["--lambda", "1.5", "--pressure", "-1",
                                  "--auto-repair"]),
        ("ell5", "elliptic", ["--lambda", "5", "--elliptic-n", "3"]),
        ("ell13", "elliptic", ["--lambda", "13", "--elliptic-n", "4"]),
    )
    jobs = []
    for name, family, args in cases:
        job = {"kind": "construct", "label": name, "family": family,
               "out": path(f"{name}.json"),
               "argv": ["construct"] + args + ["--out", path(f"{name}.json")]}
        if name == "repair15":
            # B within 5 % of the equal-arc B; the last arc is re-solved
            job["specs_from"] = {
                "file": path("quad15.json"), "signs": "+-+-",
                "factors": [rng.uniform(0.95, 1.05) for _ in range(4)]}
        jobs.append(job)
    for name, family, _args in cases:
        jobs.append({"kind": "flux", "label": name, "family": family,
                     "in": path(f"{name}.json"),
                     "argv": ["flux", "--in", path(f"{name}.json")]})
    for lam in PORTRAIT_LAMBDAS:
        pressure = -round(rng.uniform(0.5, 2.0), 4)
        bs = sorted(round(rng.uniform(0.25, 4.0), 4) for _ in range(3))
        jobs.append({"kind": "portrait", "label": f"lambda {lam:g}",
                     "b_values": bs,
                     "argv": ["phase-portrait", "--lambda", repr(lam),
                              f"--pressure={pressure!r}",
                              "--b-values", ",".join(map(repr, bs))]})
    return jobs


# solutions the field workload exports, built once per run before timing
FIELD_SOLUTIONS = (
    ("cusp", ["--lambda", repr(2.0 / 3.0), "--pressure", "1",
              "--equal-arcs", "3"]),
    ("ell5", ["--lambda", "5", "--elliptic-n", "3"]),
    ("ode3", ["--lambda", "3", "--equal-arcs", "3"]),
)


def field_setup_jobs(work):
    return [{"kind": "construct", "label": name,
             "family": "elliptic" if name == "ell5" else
             ("cusp" if name == "cusp" else "stitched"),
             "out": os.path.join(work, f"{name}.json"),
             "argv": ["construct"] + args
             + ["--out", os.path.join(work, f"{name}.json")]}
            for name, args in FIELD_SOLUTIONS]


def field_jobs(rng, tiny, work):
    shapes = ((("ring", 2, 48), ("ray", 12, 6)) if tiny
              else (("ring", 2, 1440), ("ray", 120, 24)))
    jobs = []
    for name, _args in FIELD_SOLUTIONS:
        for shape, n_r, n_t in shapes:
            r0 = round(rng.uniform(0.3, 0.7), 4)
            r1 = round(rng.uniform(1.5, 2.5), 4)
            out = os.path.join(work, f"{name}-{shape}.csv")
            jobs.append({"kind": "export", "label": shape,
                         "in": os.path.join(work, f"{name}.json"),
                         "out": out, "grid": [r0, r1, n_r, n_t],
                         "sample_seed": rng.randrange(1 << 31),
                         "argv": ["export-field", "--in",
                                  os.path.join(work, f"{name}.json"),
                                  "--grid", f"{r0!r}:{r1!r}:{n_r}:{n_t}",
                                  "--out", out]})
    return jobs


JOB_BUILDERS = {"survey": survey_jobs, "construct": construct_jobs,
                "field": field_jobs}


# ---------------------------------------------------------------------------
# workers

def run_worker(spec: dict, deadline: float) -> tuple:
    """Run one worker to completion; returns (spawn time, result dict)."""
    budget = deadline - time.perf_counter()
    if budget <= 0:
        raise BenchError("time limit reached before the worker started")
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {budget:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# aggregation
#
# The host's speed drifts by 10-30 % from one minute to the next.  The
# worker times a fixed reference computation around every job
# (calibrate.py); all job times of a run are rescaled to nominal machine
# speed by NOMINAL_S over the run's median reference time.  Every pass of a
# run repeats the same job list, and a job's time is its median over the
# passes.

def speed_factor(results: list) -> float:
    refs = [r["ref"] for res in results for r in res["jobs"]]
    return NOMINAL_S / statistics.median(refs)


def job_times(results: list) -> list:
    """Median over the passes of each job's time, at nominal speed."""
    f = speed_factor(results)
    return [f * statistics.median(res["jobs"][j]["t"] for res in results)
            for j in range(len(results[0]["jobs"]))]


def tracing_overhead(untraced: list, traced: list) -> float:
    """Median over pairs of traced over untraced job time, minus 1.

    The two passes of a pair run back to back on the same jobs; each is
    rescaled by its own reference times.
    """
    ratios = [sum(job_times([t])) / sum(job_times([u]))
              for u, t in zip(untraced, traced)]
    return statistics.median(ratios) - 1.0


def ok_in_every_pass(results: list) -> list:
    return [all(res["jobs"][j]["status"] == "ok" for res in results)
            for j in range(len(results[0]["jobs"]))]


def kind_rates(results: list) -> dict:
    """Items per second of job time, per command."""
    times = job_times(results)
    jobs = results[0]["jobs"]
    rates = {}
    for name, kind, label in KIND_RATES:
        idx = [j for j, r in enumerate(jobs) if r["kind"] == kind
               and (label is None or r["label"] == label)]
        if idx:
            items = sum(jobs[j]["items"] for j in idx)
            rates[name] = {"value": items / sum(times[j] for j in idx),
                           "unit": "1/s", "jobs": len(idx), "items": items,
                           "passes": len(results)}
    return rates


def layer_metrics(traced: list, kernels_counted: bool) -> dict:
    """Per-layer metrics: the median over traced passes of each value."""
    per_pass = []
    evals_root = evals_span = roots = solves = 0
    for res in traced:
        tr = res["trace"]
        lay, fn, c = tr["layers"], tr["fn_calls"], tr["counts"]
        v = {}
        for layer in ("rootfind", "periods", "orbits", "classify"):
            v[f"{layer}.calls"] = lay[layer]["calls"]
            v[f"{layer}.failed"] = lay[layer]["failed"]
            v[f"{layer}.self_s"] = lay[layer]["self_s"]
        v["rootfind.brent_calls"] = fn.get("brent", 0)
        v["periods.gk_calls"] = fn.get("adaptive_gk", 0)
        v["periods.gk_panels"] = c["gk_panels"]
        v["periods.gk_budget_hits"] = c["gk_budget_hits"]
        v["orbits.dp_steps"] = c["dp_steps"]
        v["orbits.event_dp_steps"] = c["event_dp_steps"]
        v["orbits.samples"] = c["samples"]
        v["classify.roots"] = c["roots"]
        v["classify.span_solves"] = fn.get("solve_hyperbolic_span", 0)
        v["assemble.arcs"] = (fn.get("hyperbolic_arc", 0)
                              + fn.get("elliptic_arc", 0))
        v["assemble.theta_gk_panels"] = c["theta_gk_panels"]
        v["assemble.arc_self_s"] = lay["assemble.arcs"]["self_s"]
        v["assemble.stitches"] = fn.get("stitch", 0)
        v["assemble.repairs"] = tr["repairs"]
        v["assemble.stitch_self_s"] = lay["assemble.stitch"]["self_s"]
        v["assemble.diag_calls"] = sum(fn.get(f, 0) for f in DIAG_FUNCTIONS)
        v["assemble.diag_self_s"] = lay["assemble.diagnostics"]["self_s"]
        v["assemble.field_points"] = fn.get("field_at", 0)
        v["assemble.field_self_s"] = lay["assemble.field"]["self_s"]
        v["cli.bytes_out"] = sum(r["bytes"] for r in res["jobs"])
        v["cli.parse_calls"] = fn.get("parse_solution", 0)
        v["cli.self_s"] = lay["cli"]["self_s"]
        per_pass.append(v)
        evals_root += tr["evals_by_owner"].get("solve_elliptic", 0)
        evals_span += tr["evals_by_owner"].get("solve_hyperbolic_span", 0)
        roots += c["roots"]
        solves += fn.get("solve_hyperbolic_span", 0)
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    # evaluations spent per useful outcome, failed solves included;
    # 0 when the workload never solves
    out["classify.period_evals_per_root"] = (
        evals_root / roots if roots else 0.0)
    out["classify.span_evals_per_solve"] = (
        evals_span / solves if solves else 0.0)
    if not kernels_counted:
        for k in KERNEL_METRICS:
            del out[k]
    return out


def baseline_facts(workload: str, traced: list) -> dict:
    """The ROADMAP profile facts, measured from the traced passes."""
    facts = {}
    if workload in ("survey", "construct"):
        evals = [n for res in traced
                 for n in res["trace"]["evals_per_solved_root"]]
        if evals:
            facts["period_evals_per_solved_root"] = {
                "roadmap": "30-44", "min": min(evals), "max": max(evals),
                "holds": 30 <= min(evals) and max(evals) <= 44}
    if workload == "survey":
        hits = []
        for res in traced:
            by_job = res["trace"]["budget_hits_by_job"]
            for j, rec in enumerate(res["jobs"]):
                if rec["label"] == "near-centre":
                    hits.append(by_job.get(str(j), 0))
        facts["gk_budget_hits_per_near_centre_scan"] = {
            "roadmap": 1, "measured": sorted(set(hits)),
            "holds": bool(hits) and set(hits) == {1}}
    if workload == "field":
        points = sum(res["trace"]["fn_calls"].get("field_at", 0)
                     for res in traced)
        cells = sum(r["items"] for res in traced for r in res["jobs"]
                    if r["kind"] == "export")
        facts["field_points_equal_cells_exported"] = {
            "field_points": points, "cells": cells,
            "holds": points == cells}
    return facts


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = os.path.join(ROOT, ".git", ref[5:])
    if not os.path.exists(ref_file):
        return "unknown (packed ref)"
    with open(ref_file, encoding="utf-8") as fh:
        return fh.read().strip()


def provenance(args, jit_enabled: bool) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jit_enabled": jit_enabled,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
    }


# ---------------------------------------------------------------------------
# main

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every job (self-test size)")
    return ap.parse_args(argv)


def _named(wanted: list, values: dict) -> dict:
    """The metrics BENCHMARK.json names, in its order, with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values}


def run(args) -> tuple:
    if not os.path.exists(os.path.join(ROOT, "src", "homoeuler", "cli.py")):
        raise BenchError(f"no homoeuler sources under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from homoeuler import _kernels

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    spans_out = os.path.join(OUT_DIR,
                             f"{args.workload}-seed{args.seed}-spans.jsonl")
    rng = random.Random(args.seed)
    jobs = JOB_BUILDERS[args.workload](rng, args.tiny, work)
    setup, passes, traced = [], [], []
    try:
        for _ in range(SETUP_SAMPLES):
            t_spawn, res = run_worker({"mode": "setup"}, deadline)
            setup.append(res["ready"] - t_spawn)
        if args.workload == "field":
            _t, res = run_worker({"mode": "pass",
                                  "jobs": field_setup_jobs(work)}, deadline)
            bad = [r for r in res["jobs"] if r["status"] not in ("ok", "known")]
            if bad:
                raise BenchError(f"field set-up failed: {bad}")

        t0 = time.perf_counter()
        walls = []
        while True:
            t_iter = time.perf_counter()
            order = [False, True] if args.trace else [False]
            if len(walls) % 2:
                order.reverse()
            for trace_on in order:
                spec = {"mode": "pass", "jobs": jobs, "trace": trace_on,
                        "spans_out": spans_out if trace_on else None}
                t_spawn, res = run_worker(spec, deadline)
                if trace_on:
                    traced.append(res)
                else:
                    passes.append(res)
                    setup.append(res["ready"] - t_spawn)
            walls.append(time.perf_counter() - t_iter)
            elapsed = time.perf_counter() - t0
            if elapsed + statistics.median(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # An operation is one job of the run's list with its check, counted
    # once however many passes repeat it; it failed if any pass failed it.
    # So attempted and failed depend on the seed only, not on how many
    # passes fit in the time.
    all_results = passes + traced
    attempted = len(jobs)
    failures, failed_jobs, flaky_jobs = {}, set(), set()
    for j in range(attempted):
        statuses = {res["jobs"][j]["status"] for res in all_results}
        if statuses != {"ok"}:
            failed_jobs.add(j)
        if len(statuses) > 1:
            flaky_jobs.add(j)
        for res in all_results:
            r = res["jobs"][j]
            if r["status"] != "ok":
                key = f"{r['status']} {r['kind']} {r['label']}"
                failures.setdefault(key, {"count": 0, "jobs": [],
                                          "first": r["error"]})
                failures[key]["count"] += 1
                if j not in failures[key]["jobs"]:
                    failures[key]["jobs"].append(j)
    n_failed = len(failed_jobs)
    record = {
        "provenance": provenance(args, _kernels.JIT_ENABLED),
        "passes": len(passes), "traced_passes": len(traced),
        "attempted": attempted, "failed": n_failed, "failures": failures,
        # jobs whose outcome differed between passes of the same inputs
        "flaky_jobs": sorted(flaky_jobs),
        "kind_rates": kind_rates(passes),
        "job_times_s": [[r["t"] for r in res["jobs"]] for res in passes],
        "ref_times_s": [[r["ref"] for r in res["jobs"]] for res in passes],
        "setup_samples_s": setup,
        "speed_factor": speed_factor(passes),
    }
    if args.trace:
        values = layer_metrics(traced, traced[0]["trace"]["kernels_counted"])
        values["trace.overhead_frac"] = tracing_overhead(passes, traced)
        metrics = _named(bench["per_layer"], values)
        record["samples"] = {k: len(traced) for k in metrics}
        record["facts"] = baseline_facts(args.workload, traced)
    else:
        ok = ok_in_every_pass(passes)
        values = {
            "setup_s": speed_factor(passes) * statistics.median(setup),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
            "jobs_per_s": sum(ok) / sum(job_times(passes)),
        }
        metrics = _named(bench["end_to_end"], values)
        record["samples"] = {"setup_s": len(setup),
                             "peak_rss_mb": len(passes),
                             "jobs_per_s": len(passes)}
    record["metrics"] = metrics
    wrong = any(key.startswith("wrong ") for key in failures)
    result = {"correct": not wrong, "attempted": attempted,
              "failed": n_failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record, result = run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"provenance": record["provenance"],
                      "samples": record["samples"]}))
    for name, r in record["kind_rates"].items():
        print(f"{args.workload} {name} {r['value']:.6g} {r['unit']}"
              f" ({r['items']} items in {r['jobs']} jobs)")
    for key, f in record["failures"].items():
        print(f"{args.workload} {key} in {f['count']} of"
              f" {record['passes'] + record['traced_passes']} passes:"
              f" {f['first'][:160]}")
    if "facts" in record:
        print(json.dumps({"facts": record["facts"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
