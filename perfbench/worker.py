"""One benchmark pass in a fresh interpreter.

The parent (`run.py`) starts this script once per pass, so no cache, JIT
state or allocator state carries over between passes.  It writes a JSON
pass spec to stdin and reads one JSON result line from stdout.

The first thing the script does is import `homoeuler.cli` and build its
parser; the clock reading taken right after is the `ready` time the parent
turns into a set-up sample.  Jobs then call `homoeuler.cli.main(argv)` with
stdout and stderr captured in memory.  When the spec asks for tracing, the
tracer is installed before the first job and removed before the output
checks, so the checks themselves are never traced or timed.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from homoeuler import cli  # noqa: E402

cli.build_parser()
READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, _HERE)

from homoeuler.core import steady_state  # noqa: E402

import checks  # noqa: E402
from calibrate import reference_time  # noqa: E402
from tracer import Tracer  # noqa: E402


def _resolve_argv(job: dict) -> list:
    """Complete argv items that depend on the program's own definitions.

    `p_max_frac` appends --p-max as a fraction of the centre pressure
    P_max(lam); `specs_from` builds --specs from the B stored in a file an
    earlier job of the same pass wrote.  Both are computed before the job's
    clock starts.
    """
    argv = list(job["argv"])
    if "p_max_frac" in job:
        p_max = steady_state(job["lam"], 1.0).P_max
        argv.append(f"--p-max={job['p_max_frac'] * p_max!r}")
    if "specs_from" in job:
        src = job["specs_from"]
        with open(src["file"], encoding="utf-8") as fh:
            b_eq = json.load(fh)["pieces"][0]["B"]
        specs = ",".join(f"{b_eq * f!r}:{s}"
                         for f, s in zip(src["factors"], src["signs"]))
        argv.append(f"--specs={specs}")
    return argv


def _out_bytes(argv: list) -> int:
    size = 0
    for i, a in enumerate(argv[:-1]):
        if a == "--out" and os.path.exists(argv[i + 1]):
            size += os.path.getsize(argv[i + 1])
    return size


def run_pass(spec: dict) -> dict:
    for job in spec["jobs"]:
        # a file left by an earlier pass must not stand in for a failed job
        if "out" in job and os.path.exists(job["out"]):
            os.remove(job["out"])
    tracer = Tracer() if spec.get("trace") else None
    records = []
    outputs = []
    if tracer is not None:
        tracer.install()
    ref = reference_time()
    try:
        for j, job in enumerate(spec["jobs"]):
            rec = {"kind": job["kind"], "label": job["label"],
                   "rc": None, "t": 0.0, "ref": ref, "bytes": 0, "error": ""}
            records.append(rec)
            try:
                argv = _resolve_argv(job)
            except (OSError, ValueError, KeyError, IndexError) as e:
                rec["error"] = f"input for this job unavailable: {e!r}"
                outputs.append("")
                continue
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.job = j
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rec["rc"] = cli.main(argv)
            except Exception:  # a crash is a failed operation, not fatal
                rec["error"] = traceback.format_exc(limit=3)
            rec["t"] = time.perf_counter() - t0
            # machine speed around the job: reference timed before and after
            ref_after = reference_time()
            rec["ref"] = 0.5 * (ref + ref_after)
            ref = ref_after
            text = out.getvalue()
            rec["bytes"] = len(text.encode()) + _out_bytes(argv)
            if rec["rc"] not in (None, 0):
                rec["error"] = err.getvalue().strip()[:300]
            outputs.append(text)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"ready": READY, "rss_mb": rss_mb, "jobs": records}
    if tracer is not None:
        result["trace"] = tracer.layer_summary()
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                tracer.dump(fh)

    for job, rec, text in zip(spec["jobs"], records, outputs):
        if rec["rc"] != 0:
            rec["status"], rec["items"] = "failed", 0
            continue
        try:
            rec["items"] = checks.check(job, text)
            rec["status"] = "ok"
        except checks.KnownDefect as e:
            rec["status"], rec["items"], rec["error"] = "known", 0, str(e)
        except checks.CheckFailed as e:
            rec["status"], rec["items"], rec["error"] = "wrong", 0, str(e)
    return result


def main() -> int:
    spec = json.loads(sys.stdin.read())
    if spec["mode"] == "setup":
        result = {"ready": READY}
    else:
        result = run_pass(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
