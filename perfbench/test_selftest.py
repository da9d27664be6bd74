"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_selftest.py

Runs every workload untraced and traced with --tiny and checks that the
result line carries exactly the metrics BENCHMARK.json names, each with
its unit, and that the only failed operations are the known defects listed
in NOTES.md.  Also checks that the benchmark refuses to run, without
printing a result, when the program's sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7

sys.path.insert(0, HERE)
from tracer import KERNEL_METRICS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _known_failure(key: str, first_error: str) -> bool:
    """Failures NOTES.md records as known defects of the program."""
    if key.startswith("failed classify census"):
        # census cross-check misses 1e-7 in (18, 24.5] and part of (12.5, 18]
        band = key.split("census ")[1]
        return (band in ("(18,24.5]", "(12.5,18]")
                and "disagree beyond 1e-7" in first_error)
    if key in ("known construct ell5", "known construct ell13"):
        return "sign of zero lost" in first_error
    return False


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    with open(os.path.join(HERE, "out", f"{workload}-seed{SEED}"
                           f"-trace{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    names = {m["name"] for m in wanted}
    if trace and record["provenance"]["jit_enabled"]:
        names -= set(KERNEL_METRICS)
    assert set(result["metrics"]) == names
    for m in wanted:
        if m["name"] in names:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in names)
    unexpected = {k: f for k, f in record["failures"].items()
                  if not _known_failure(k, f["first"])}
    assert not unexpected
    assert result["attempted"] == len(record["job_times_s"][0])
    assert result["failed"] == len({j for f in record["failures"].values()
                                    for j in f["jobs"]})
    assert not record["flaky_jobs"]


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
