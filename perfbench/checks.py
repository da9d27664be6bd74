"""Output checks, one per job kind.

`check(job, stdout_text)` returns the number of result items the job
produced (census roots, table rows, solutions, reloads, orbits or field
cells) and raises `CheckFailed` when an output is wrong.  The checks run
after the pass, outside every timed region, against the program's own
library where an independent recomputation is cheap.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re

import numpy as np

from homoeuler.assemble import field_at
from homoeuler.cli import FIELD_COLUMNS, parse_solution, solution_to_json
from homoeuler.core import FlowParams
from homoeuler.errors import OnSingularRay
from homoeuler.periods import span_any

TWO_PI = 2.0 * math.pi


class CheckFailed(Exception):
    """A job exited 0 but its output is wrong."""


class KnownDefect(CheckFailed):
    """The output is wrong in a way NOTES.md records as a known defect.

    It still counts as a failed operation; it does not make the run
    incorrect, so that a new defect stays distinguishable from an old one.
    """


# A solution file writes -0.0 as "-0"; json.loads reads that as the int 0,
# so the reloaded profile holds +0.0 and re-serializes it as "0".
_NEG_ZERO = re.compile(r"(?<![\w.])-0(?=[,\]])")
NEG_ZERO_DEFECT = ("re-serialized file differs from the stored one only"
                   " where -0 became 0 (sign of zero lost on reload)")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def census_count(lam: float) -> int:
    """#{m : 2 < m, m^2 < 2 lam}, counted directly."""
    m = 3
    while m * m < 2.0 * lam:
        m += 1
    return m - 3


def _classify(job: dict, text: str) -> int:
    lam = job["lam"]
    ell = json.loads(text)["elliptic"]
    entries = ell["entries"]
    want = census_count(lam)
    _require(len(entries) == want and ell["n"] == want,
             f"census at lambda={lam!r} lists {len(entries)} roots,"
             f" expected {want}")
    for e in entries:
        T = span_any(FlowParams(lam, e["P_star"], 1.0)).T
        gap = abs(T - TWO_PI / e["n"])
        _require(gap <= 1e-10,
                 f"P* for n={e['n']} at lambda={lam!r} gives"
                 f" |T - 2pi/n| = {gap:.3e}")
    return len(entries)


def _verdict_rule(lam: float) -> str:
    if lam < 2.0:
        return "strictly decreasing"
    if lam == 2.0:
        return "constant within 1e-8"
    return "strictly increasing"


def _scan(job: dict, text: str) -> int:
    rep = json.loads(text)
    rows = rep["rows"]
    _require(len(rows) == job["rows"],
             f"{len(rows)} rows, expected {job['rows']}")
    for row in rows:
        T, err = row["T"], row["est_error"]
        _require(T is not None and math.isfinite(T),
                 f"non-finite T at P={row['P']!r}")
        _require(err is not None and err <= 1e-9,
                 f"est_error {err!r} > 1e-9 at P={row['P']!r}")
    if job["region"] == "elliptic":
        lam = job["lam"]
        if lam == 2.0:
            worst = max(abs(r["T"] - math.pi) for r in rows)
            _require(worst <= 1e-8, f"lambda=2 rows miss pi by {worst:.3e}")
        want = _verdict_rule(lam)
        _require(rep["monotonicity"] == want,
                 f"verdict {rep['monotonicity']!r} at lambda={lam!r},"
                 f" sign rule says {want!r}")
    return len(rows)


def _construct(job: dict, text: str) -> int:
    with open(job["out"], encoding="utf-8") as fh:
        stored = fh.read()
    g = parse_solution(stored)
    again = solution_to_json(g)
    known = None
    if again != stored:
        _require(_NEG_ZERO.sub("0", stored) == again,
                 "parse then serialize does not reproduce the file")
        known = NEG_ZERO_DEFECT
    gap = abs(TWO_PI - math.fsum(p.arc.span for p in g.pieces))
    _require(gap <= 1e-9, f"tiling gap {gap:.3e} > 1e-9")
    diag = json.loads(stored)["diagnostics"]
    weak = max(abs(v) for v in diag["weak_residuals"])
    limit = 1e-6 if job["family"] == "elliptic" else 1e-7
    _require(weak <= limit, f"weak residual {weak:.3e} > {limit:g}")
    if job["family"] == "cusp":
        scaled = abs(diag["flux"]) / max(1.0, diag["h1_norm"] ** 1.5)
        _require(scaled <= 1e-8, f"cusp scaled flux {scaled:.3e} > 1e-8")
    if known:
        raise KnownDefect(known)
    return 1


def _flux(job: dict, text: str) -> int:
    vals = dict(line.split(" = ") for line in text.strip().splitlines())
    flux = float(vals["flux"])
    with open(job["in"], encoding="utf-8") as fh:
        stored = json.loads(fh.read())["diagnostics"]["flux"]
    _require(flux == stored,
             f"reloaded flux {flux!r} differs from stored {stored!r}")
    if job["family"] == "cusp":
        scaled = float(vals["scaled magnitude"])
        _require(scaled <= 1e-8, f"cusp scaled flux {scaled:.3e} > 1e-8")
    return 1


def _portrait(job: dict, text: str) -> int:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0] == ["B", "t", "x", "y"], "bad phase-portrait header")
    per_b = {}
    for b, _t, x, _y in rows[1:]:
        per_b.setdefault(float(b), []).append(float(x))
    _require(sorted(per_b) == sorted(job["b_values"]),
             f"orbits for B={sorted(per_b)}, asked {job['b_values']}")
    for b, xs in per_b.items():
        _require(len(xs) >= 2 and min(xs) >= 0.0,
                 f"orbit B={b!r} has {len(xs)} samples or leaves x >= 0")
    return len(per_b)


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _export(job: dict, text: str) -> int:
    r0, r1, n_r, n_t = job["grid"]
    with open(job["out"], encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == FIELD_COLUMNS, "bad field header")
    rows = rows[1:]
    _require(len(rows) == n_r * n_t,
             f"{len(rows)} rows, expected {n_r}x{n_t}")
    rs = np.linspace(r0, r1, n_r)
    ths = np.linspace(0.0, TWO_PI, n_t, endpoint=False)
    for k, row in enumerate(rows):
        _require(float(row[0]) == rs[k // n_t] and float(row[1]) == ths[k % n_t],
                 f"row {k} is not the grid point in row-major order")
    with open(job["in"], encoding="utf-8") as fh:
        g = parse_solution(fh.read())
    offsets = [p.offset for p in g.pieces] + [TWO_PI]
    junction = [k for k in range(len(rows))
                if min(abs(ths[k % n_t] - o) for o in offsets) < 1e-9]
    empty = {k for k, row in enumerate(rows) if all(c == "" for c in row[2:])}
    rng = random.Random(job["sample_seed"])
    sample = sorted(set(rng.sample(range(len(rows)), min(100, len(rows)))
                        + junction + sorted(empty)))
    for k in sample:
        row = rows[k]
        r, th = float(row[0]), float(row[1])
        try:
            s = field_at(g, r, th)
        except OnSingularRay:
            _require(k in empty, f"cell ({r!r}, {th!r}) on a singular ray"
                                 " is not empty")
            continue
        _require(k not in empty, f"cell ({r!r}, {th!r}) is empty but"
                                 " field_at evaluates it")
        want = [s.x, s.y, s.u_x, s.u_y, s.psi, s.stream, s.vorticity,
                s.pressure]
        for col, v, cell in zip(FIELD_COLUMNS[2:], want, row[2:]):
            if math.isfinite(v):
                _require(cell != "" and _close(float(cell), v),
                         f"{col} at ({r!r}, {th!r}) is {cell!r},"
                         f" field_at gives {v!r}")
            else:
                _require(cell == "", f"{col} at ({r!r}, {th!r}) should be"
                                     " empty (non-finite)")
    return len(rows)


_CHECKS = {
    "classify": _classify,
    "scan": _scan,
    "construct": _construct,
    "flux": _flux,
    "portrait": _portrait,
    "export": _export,
}


def check(job: dict, text: str) -> int:
    """Verify one job's output; return the number of items it produced."""
    try:
        return _CHECKS[job["kind"]](job, text)
    except CheckFailed:
        raise
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        raise CheckFailed(f"output unreadable: {e!r}") from e
