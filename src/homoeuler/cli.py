"""Command-line front end: classification reports, span scans, solution
construction, field export, and the acceptance checks.

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 domain/classification error, 3 numerical failure.  All floating-point
output is written with 17 significant digits so files round-trip to the
exact double.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import selfcheck
from ._field import field_grid
from .assemble import (
    GlobalSolution,
    GridSpec,
    LocalArc,
    Piece,
    elliptic_global,
    energy_flux,
    h1_seminorm,
    hyperbolic_arc,
    residual_max,
    stitch,
    weak_residuals,
)
from .classify import (
    CountKind,
    count_elliptic,
    solution_type,
    solve_all_elliptic,
    solve_elliptic,
    solve_hyperbolic_span,
)
from .config import LIMITS, RunConfig, check_arc_count
from .core import FlowParams, steady_state
from .errors import DomainError, NumericalError, SpanMismatch
from .orbits import (
    InterceptKind,
    closed_orbit,
    find_intercepts,
    integrate_orbit,
)

__all__ = ["main", "serialize_solution", "solution_to_json", "parse_solution"]

SCHEMA_VERSION = 1
TWO_PI = 2.0 * math.pi


class UsageError(Exception):
    """Bad flag combination that argparse alone cannot catch."""


# ---------------------------------------------------------------------------
# serialization

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(obj) -> str:
    """JSON text with every float at 17 significant digits.

    The stdlib encoder prints floats with repr's shortest form; the fixed
    width here keeps files diffable across runs and platforms.  Non-finite
    floats become null.  An all-finite float64 array of one or two
    dimensions (an arc profile or mesh) is written by one "%" call on a
    row template; every other value, arrays holding nan or inf included,
    goes through the recursive path below.  "%.17g" formats a float
    exactly as _fmt does, -0.0 as "-0" included.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return _fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_emit(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray):
        if (obj.dtype == np.float64 and 1 <= obj.ndim <= 2
                and np.isfinite(obj).all()):
            return _float_table(obj)
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float_table(a: np.ndarray) -> str:
    """JSON list (of rows) of a finite float64 array, via one template."""
    row = "[" + ", ".join(["%.17g"] * a.shape[-1]) + "]"
    if a.ndim == 2:
        row = "[" + ", ".join([row] * a.shape[0]) + "]"
    return row % tuple(a.ravel().tolist())


def _row_table(keys, rows) -> str:
    """JSON list of one {key: float} object per row, as _emit writes it.

    All-finite rows share one "%" call on a joined template; a row holding
    nan or inf is written by _emit, so its non-finite values read null.
    """
    slot = "{" + ", ".join(f"{json.dumps(k)}: %.17g" for k in keys) + "}"
    parts, values = [], []
    for row in rows:
        if all(map(math.isfinite, row)):
            parts.append(slot)
            values.extend(row)
        else:
            parts.append(_emit(dict(zip(keys, row))))
    return ("[" + ", ".join(parts) + "]") % tuple(values)


def _solution_record(g: GlobalSolution, diagnostics: bool) -> dict:
    """The serialize_solution schema with each arc's columns left as arrays."""
    pieces = []
    for p in g.pieces:
        arc = p.arc
        slope = None if math.isinf(arc.endpoint_slope) else arc.endpoint_slope
        pieces.append({
            "B": arc.params.B,
            "sign": p.sign,
            "offset": p.offset,
            "span": arc.span,
            "endpoint_slope": slope,
            "profile": arc.profile,
            "mesh_dtheta": arc.mesh_dtheta,
        })
    out = {
        "schema_version": SCHEMA_VERSION,
        "params": {"lambda": g.lam, "P": g.P},
        "smoothness": g.smoothness.name,
        "pieces": pieces,
    }
    if diagnostics:
        out["diagnostics"] = {
            "flux": energy_flux(g),
            "residual_max": residual_max(g),
            "weak_residuals": list(weak_residuals(g)),
            "h1_norm": h1_seminorm(g),
        }
    return out


def serialize_solution(g: GlobalSolution, diagnostics: bool = True) -> dict:
    """Schema: {schema_version, params, smoothness, pieces, diagnostics}.

    Beyond the minimal piece fields, endpoint_slope (null encodes the
    infinite cusp slope) and mesh_dtheta are carried along so a reloaded
    solution evaluates diagnostics with the builder's exact quadrature
    weights rather than a differencing fallback.
    """
    out = _solution_record(g, diagnostics)
    for pc in out["pieces"]:
        pc["profile"] = pc["profile"].tolist()
        pc["mesh_dtheta"] = pc["mesh_dtheta"].tolist()
    return out


def solution_to_json(g: GlobalSolution, diagnostics: bool = True) -> str:
    # _emit turns the arrays into floats one piece at a time, so the whole
    # solution never exists as nested lists of Python floats
    return _emit(_solution_record(g, diagnostics)) + "\n"


def _json_int(text: str):
    # _fmt writes -0.0 as "-0", which JSON reads as the integer 0
    return -0.0 if text == "-0" else int(text)


def parse_solution(source) -> GlobalSolution:
    """Rebuild a GlobalSolution from serialized form (dict or JSON text).

    Inverse of serialize_solution up to dataclass equality; each piece's
    parameters are checked by solution_type, and the smoothness and
    diagnostics stored are ignored, as the solution derives the one and
    recomputes the other.  JSON text keeps the sign of zero, so
    re-serializing it reproduces its bytes.
    """
    d = (json.loads(source, parse_int=_json_int) if isinstance(source, str)
         else source)
    if d.get("schema_version") != SCHEMA_VERSION:
        raise DomainError(
            f"unsupported schema_version {d.get('schema_version')!r}")
    lam = float(d["params"]["lambda"])
    P = float(d["params"]["P"])
    pieces = []
    for pc in d["pieces"]:
        fp = FlowParams(lam, P, float(pc["B"]))
        slope = pc["endpoint_slope"]
        slope = math.inf if slope is None else float(slope)
        solution_type(fp)
        arc = LocalArc(fp, float(pc["span"]), pc["profile"], slope,
                       pc["mesh_dtheta"])
        pieces.append(Piece(arc, int(pc["sign"]), float(pc["offset"])))
    return GlobalSolution(lam, P, tuple(pieces))


FIELD_COLUMNS = ["r", "theta", "x", "y", "u_x", "u_y",
                 "psi_value", "stream", "vorticity", "pressure"]


# FieldSample fields behind FIELD_COLUMNS[2:]
_FIELD_VALUES = ("x", "y", "u_x", "u_y", "psi", "stream", "vorticity",
                 "pressure")
# the fields that vary from cell to cell; psi varies by ray only and the
# pressure by radius only
_CELL_VALUES = ("x", "y", "u_x", "u_y", "stream", "vorticity")


def _cell(v: float) -> str:
    return _fmt(v) if math.isfinite(v) else ""


def field_csv(g: GlobalSolution, grid: GridSpec) -> str:
    """Plot-ready polar field table; singular-ray cells stay empty, and so
    does every non-finite value.

    theta and psi_value are formatted once per ray, r and pressure once
    per radius.  Each radius is written by one "%" call on a template
    joined from per-ray fragments: a fragment holds the ray's text and a
    "%.17g" slot for each of the six per-cell values, and "%.17g" formats
    exactly as _fmt does.  Rows on singular rays, and rows holding a
    non-finite value, enter the template as literal text.  The table is
    the join of the per-radius chunks.
    """
    rs, thetas = grid.axes()
    singular, cells = field_grid(g, rs, thetas)
    block = np.stack([cells[name] for name in _CELL_VALUES], axis=-1)
    psi = cells["psi"][0].tolist()
    pressure = cells["pressure"][:, 0].tolist()
    ok = (np.isfinite(block).all(axis=2) & np.isfinite(cells["psi"][0])
          & ~singular & np.isfinite(cells["pressure"][:, :1]))
    rays = [_fmt(t) + "," for t in thetas.tolist()]
    slots = [f"{t}%.17g,%.17g,%.17g,%.17g,{_cell(p)},%.17g,%.17g,"
             for t, p in zip(rays, psi)]
    empty = "," * (len(_FIELD_VALUES) - 1) + "\n"
    chunks = [",".join(FIELD_COLUMNS) + "\n"]
    for i, r in enumerate(rs.tolist()):
        head = _fmt(r) + ","
        tail = _cell(pressure[i]) + "\n"
        rows = block[i]
        held = np.flatnonzero(~ok[i]).tolist()
        parts, start = [], 0
        for k in held + [len(slots)]:
            if start < k:
                parts.append(head + (tail + head).join(slots[start:k]) + tail)
            if k < len(slots):
                if singular[k]:
                    line = empty
                else:
                    vals = rows[k].tolist()
                    vals.insert(4, psi[k])
                    line = ",".join(map(_cell, vals)) + "," + tail
                parts.append(head + rays[k] + line)
            start = k + 1
        values = rows[ok[i]] if held else rows
        chunks.append("".join(parts) % tuple(values.ravel().tolist()))
    return "".join(chunks)


def _write(text: str, path) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# classify

UNKNOWN_NOTE = ("the elliptic census for this lambda remains unresolved "
                "at this moment")


def _classify_report(lam: float) -> dict:
    if lam <= 0.0:
        raise DomainError(f"classification requires lambda > 0, got {lam!r}")
    rep = {"lambda": lam}
    if lam == 1.0:
        rep["summary"] = "all solutions are parallel shear flows"
        rep["elliptic"] = {"count": "Zero", "n": None, "entries": []}
        rep["hyperbolic"] = {"admissible": False}
        rep["families"] = ["parallel shear (any profile of x alone)"]
        return rep

    cat = count_elliptic(lam)
    if cat.count is CountKind.Finite and cat.n:
        cat = solve_all_elliptic(lam)
    entries = [{"n": n, "P_star": p_star, "period": period}
               for n, p_star, period in cat.entries]
    rep["elliptic"] = {"count": cat.count.name, "n": cat.n, "entries": entries}
    if cat.count is CountKind.Unknown:
        rep["caveat"] = UNKNOWN_NOTE

    if lam > 1.0:
        rep["hyperbolic"] = {
            "admissible": True, "pressure_sign": "negative",
            "span_B_pos": [math.pi / lam, math.pi],
            "span_B_zero": math.pi / lam,
            "span_B_neg": [0.0, math.pi / lam],
        }
    elif lam > 0.5:
        rep["hyperbolic"] = {
            "admissible": True, "pressure_sign": "positive",
            "span_B_pos": [0.0, math.pi],
            "span_B_zero": None, "span_B_neg": None,
        }
    else:
        rep["hyperbolic"] = {"admissible": False}

    fams = []
    fams.append("rotational (P %s 0)" % (">" if lam > 1.0 else "<"))
    fams.append("parallel shear (P = 0)")
    if lam > 1.0:
        fams.append("harmonic arch (B = 0, span pi/lambda)")
    rep["families"] = fams
    return rep


def _classify_text(rep: dict) -> str:
    lines = [f"lambda = {rep['lambda']:g}"]
    if "summary" in rep:
        lines.append(rep["summary"])
        return "\n".join(lines) + "\n"
    ell = rep["elliptic"]
    kind = ell["count"]
    if kind == "Finite" and ell["n"]:
        plural = "s" if ell["n"] != 1 else ""
        lines.append(f"elliptic: {ell['n']} solution{plural}")
        for e in ell["entries"]:
            lines.append(f"  n = {e['n']}: P* = {_fmt(e['P_star'])}, "
                         f"period = {_fmt(e['period'])}")
    elif kind == "Continuum":
        lines.append("elliptic: continuum "
                     "(every P in (0, P_max) closes with period pi)")
    elif kind == "Unknown":
        lines.append(f"elliptic: unknown ({UNKNOWN_NOTE})")
    else:
        lines.append("elliptic: none")
    hyp = rep["hyperbolic"]
    if not hyp["admissible"]:
        lines.append("hyperbolic: none for this lambda")
    elif hyp["span_B_zero"] is not None:
        lines.append("hyperbolic (P < 0): life-spans in "
                     f"({_fmt(hyp['span_B_pos'][0])}, pi) for B > 0, "
                     f"exactly {_fmt(hyp['span_B_zero'])} at B = 0, "
                     f"(0, {_fmt(hyp['span_B_neg'][1])}) for B < 0")
    else:
        lines.append("hyperbolic (P > 0): life-spans in (0, pi) for B > 0; "
                     "none for B <= 0")
    lines.append("trivial families: " + ", ".join(rep["families"]))
    return "\n".join(lines) + "\n"


def _cmd_classify(args) -> int:
    rep = _classify_report(args.lam)
    text = _emit(rep) + "\n" if args.json else _classify_text(rep)
    _write(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# period-scan

def _scan_grid(args):
    """Log-spaced pressures in descending order, plus the Bernoulli sign.

    Descending order makes the table read off the analytic limits directly:
    elliptic scans run from the center value toward the separatrix, and
    hyperbolic ones from the separatrix toward the deep-pressure limit.
    """
    lam = args.lam
    n = args.n_points
    if args.region == "elliptic":
        pm = steady_state(lam, 1.0).P_max
        lo = args.p_min if args.p_min is not None else 1e-4 * pm
        hi = args.p_max if args.p_max is not None else (1.0 - 1e-4) * pm
        if not 0.0 < lo < hi:
            raise UsageError("elliptic scan needs 0 < p-min < p-max")
        ps = np.geomspace(hi, lo, n)
        B = 1.0
    else:
        B = 1.0 if args.b_sign == "plus" else -1.0
        lo = args.p_min if args.p_min is not None else -100.0
        hi = args.p_max if args.p_max is not None else -0.01
        if not lo < hi < 0.0:
            raise UsageError("hyperbolic scan needs p-min < p-max < 0")
        ps = -np.geomspace(-hi, -lo, n)
    return [float(p) for p in ps], B


def _verdict(ts) -> str:
    t = np.asarray(ts)
    if t.max() - t.min() <= 1e-8:
        return "constant within 1e-8"
    d = np.diff(t)
    if np.all(d > 0.0):
        return "strictly increasing"
    if np.all(d < 0.0):
        return "strictly decreasing"
    return "not monotone"


def _cmd_period_scan(args) -> int:
    # the batched rows serve this command alone; the others never load them
    from ._rows import span_rows

    ps, B = _scan_grid(args)
    spans = span_rows(args.lam, ps, B)
    rows = [(P, r.T, r.est_error) for P, r in zip(ps, spans)]
    verdict = _verdict([t for _, t, _ in rows])
    if args.format == "json":
        text = ('{"lambda": %s, "B": %s, "rows": %s, "monotonicity": %s}\n'
                % (_emit(args.lam), _emit(B),
                   _row_table(("P", "T", "est_error"), rows), _emit(verdict)))
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["P", "T", "est_error"])
        for row in rows:
            w.writerow([_fmt(v) for v in row])
        buf.write(f"# monotonicity: {verdict}\n")
        text = buf.getvalue()
    else:
        lines = [f"{'P':>24} {'T':>24} {'est_error':>12}"]
        for p, t, e in rows:
            lines.append(f"{_fmt(p):>24} {_fmt(t):>24} {e:>12.3e}")
        lines.append(f"monotonicity: {verdict}")
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# construct

def _parse_signs(pattern: str, n: int):
    if len(pattern) != n or set(pattern) - {"+", "-"}:
        raise UsageError(
            f"--signs needs exactly {n} characters drawn from '+-'")
    return [1 if c == "+" else -1 for c in pattern]


def _parse_specs(text: str):
    specs = []
    for part in text.split(","):
        try:
            b_str, s_str = part.split(":")
            sign = {"+": 1, "-": -1}[s_str.strip()]
            specs.append((_finite_float(b_str), sign))
        except (ValueError, KeyError, argparse.ArgumentTypeError):
            raise UsageError(
                f"bad --specs entry {part!r}; expected B:+ or B:-") from None
    return specs


def _make_config(args) -> RunConfig:
    overrides = {}
    for name, ok, limit in LIMITS:
        v = getattr(args, name, None)
        if v is None:
            continue
        if not ok(v):
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} {limit}, got {v!r}")
        overrides[name] = v
    if getattr(args, "config", None):
        return RunConfig.from_file(args.config, **overrides)
    return RunConfig(**overrides)


def _build_solution(args, cfg: RunConfig) -> GlobalSolution:
    lam = args.lam
    if args.elliptic_n is not None:
        root = solve_elliptic(lam, args.elliptic_n, tol=cfg.root_tol)
        if root.P_star is not None:
            P = root.P_star
        elif args.pressure is not None:
            P = args.pressure
        else:
            P = 0.5 * steady_state(lam, 1.0).P_max
        return elliptic_global(lam, P, 1.0, n_points=cfg.points_per_arc)
    if args.equal_arcs is not None:
        n = args.equal_arcs
        check_arc_count(n, cfg.max_arcs)
        target = TWO_PI / n
        if not target < math.pi:
            raise SpanMismatch(
                f"{n} equal arcs need span {_fmt(target)} each, but "
                "life-spans are confined to the open interval (0, pi); "
                "the arcs cannot tile 2 pi")
        P = args.pressure
        if P is None:
            P = -1.0 if lam > 1.0 else 1.0
        B = solve_hyperbolic_span(lam, P, target, tol=cfg.root_tol)
        signs = (_parse_signs(args.signs, n) if args.signs
                 else [1 if i % 2 == 0 else -1 for i in range(n)])
        specs = [(B, s) for s in signs]
    else:
        if args.pressure is None:
            raise UsageError("--specs requires --pressure")
        P = args.pressure
        specs = _parse_specs(args.specs)
        if args.signs:
            signs = _parse_signs(args.signs, len(specs))
            specs = [(b, s) for (b, _), s in zip(specs, signs)]
    return stitch(lam, P, specs, auto_repair=args.auto_repair,
                  n_points=cfg.points_per_arc, max_arcs=cfg.max_arcs)


def _parse_grid(text: str) -> GridSpec:
    try:
        r0, r1, nr, nt = text.split(":")
        return GridSpec(float(r0), float(r1), int(nr), int(nt))
    except ValueError:
        raise UsageError(
            f"bad --grid {text!r}; expected rmin:rmax:nr:ntheta") from None


def _cmd_construct(args) -> int:
    cfg = _make_config(args)
    g = _build_solution(args, cfg)
    _write(solution_to_json(g), args.out if args.out else cfg.output)
    if args.field_out or args.grid:
        if not (args.field_out and args.grid):
            raise UsageError("--grid and --field-out go together")
        _write(field_csv(g, _parse_grid(args.grid)), args.field_out)
    return 0


# ---------------------------------------------------------------------------
# flux / export-field / phase-portrait

def _load_solution(path) -> GlobalSolution:
    if path == "-":
        return parse_solution(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(
            f"cannot read --in {path!r}: {e.strerror or e}") from None
    return parse_solution(text)


def _cmd_flux(args) -> int:
    g = _load_solution(args.infile)
    flux = energy_flux(g)
    scale = max(1.0, h1_seminorm(g) ** 1.5)
    sys.stdout.write(f"flux = {_fmt(flux)}\n")
    sys.stdout.write(f"scaled magnitude = {_fmt(abs(flux) / scale)}\n")
    return 0


def _cmd_export_field(args) -> int:
    g = _load_solution(args.infile)
    _write(field_csv(g, _parse_grid(args.grid)), args.out)
    return 0


def _arch_samples(p: FlowParams, x0: float) -> np.ndarray:
    """(t, x, y) rows of the arch of p from its apex x0 toward the axis.

    The Dormand-Prince integrator in (x, y) cannot reach the axis for
    1/2 < lam < 2 with B != 0, where the power term of the phase system is
    singular; there the rows are the half profile of hyperbolic_arc, apex
    to axis, as (span/2 - theta, psi, -psi'), which has no axis row below
    lam = 1, where the slope is infinite.  Nodes next to the apex lie
    within rounding of span/2, and their t is clamped to 0.
    """
    if not (0.5 < p.lam < 2.0 and p.B != 0.0):
        return integrate_orbit(p, x0).samples
    arc = hyperbolic_arc(p.lam, p.P, p.B)
    th, psi, dpsi = arc.profile[len(arc.profile) // 2::-1].T
    return np.column_stack((np.maximum(0.5 * arc.span - th, 0.0), psi,
                            0.0 - dpsi))


def _cmd_phase_portrait(args) -> int:
    try:
        bs = [_finite_float(b) for b in args.b_values.split(",")]
    except argparse.ArgumentTypeError:
        raise UsageError(
            f"bad --b-values {args.b_values!r}; expected e.g. 0.5,1,2"
        ) from None
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["B", "t", "x", "y"])
    for B in bs:
        p = FlowParams(args.lam, args.pressure, B)
        ic = find_intercepts(p)
        if ic.kind is InterceptKind.Empty:
            raise DomainError(
                f"the level set of {p} is empty: no orbit to sample")
        if ic.kind is InterceptKind.HyperbolicSingle:
            samples = _arch_samples(p, ic.x0)
        else:
            # a closed orbit; closed_orbit refuses the centre's single point
            samples = closed_orbit(p, ic.x0).samples
        for t, x, y in samples.tolist():
            w.writerow([_fmt(B), _fmt(t), _fmt(x), _fmt(y)])
    _write(buf.getvalue(), args.out)
    return 0


# ---------------------------------------------------------------------------
# selfcheck

def _cmd_selfcheck(args) -> int:
    if args.list:
        for name, title, _ in selfcheck.CRITERIA:
            sys.stdout.write(f"{name}  {title}\n")
        return 0
    failures = 0
    total = 0
    for name, title, ok, detail in selfcheck.run_all():
        total += 1
        failures += 0 if ok else 1
        word = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{name} {word}  {title}: {detail}\n")
    sys.stdout.write(f"passed {total - failures} of {total}\n")
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# parser

def _finite_float(text: str) -> float:
    try:
        v = float(text)
        if math.isfinite(v):
            return v
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return v


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads -1e6 and -1.5e-3 as values, not flags.

    argparse treats a token that starts with '-' as an option unless it
    matches its negative-number pattern, which has no exponent.
    """

    _NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NUMBER


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="homoeuler",
        description="Homogeneous stationary Euler flows: classification, "
                    "life-spans, global solutions, field export.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="solution census at one lambda")
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("period-scan", help="life-span table over a P grid")
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    p.add_argument("--region", choices=["elliptic", "hyperbolic"],
                   default="elliptic")
    p.add_argument("--b-sign", choices=["plus", "minus"], default="plus",
                   help="Bernoulli sign for hyperbolic scans")
    p.add_argument("--p-min", type=_finite_float, default=None)
    p.add_argument("--p-max", type=_finite_float, default=None)
    p.add_argument("--n-points", type=_positive_int, default=20)
    p.add_argument("--format", choices=["text", "json", "csv"],
                   default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_period_scan)

    p = sub.add_parser("construct", help="build and serialize a 2 pi solution")
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    p.add_argument("--pressure", type=_finite_float, default=None)
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--equal-arcs", type=_positive_int, default=None,
                     help="N identical arcs, solving B for span 2 pi/N")
    how.add_argument("--elliptic-n", type=_positive_int, default=None,
                     help="elliptic solution closing in n periods")
    how.add_argument("--specs", default=None,
                     help="comma list of B:+ or B:- arc specs")
    p.add_argument("--signs", default=None,
                   help="sign pattern like +-+ overriding the default")
    p.add_argument("--auto-repair", action="store_true",
                   help="re-solve the last B so the arcs tile exactly")
    p.add_argument("--out", default=None)
    p.add_argument("--grid", default=None, help="rmin:rmax:nr:ntheta")
    p.add_argument("--field-out", default=None)
    p.add_argument("--config", default=None, help="JSON RunConfig file")
    p.add_argument("--root-tol", type=_finite_float, default=None)
    p.add_argument("--points-per-arc", type=int, default=None)
    p.add_argument("--max-arcs", type=int, default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("flux", help="energy flux of a stored solution")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_flux)

    p = sub.add_parser("phase-portrait", help="orbit samples as CSV")
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    p.add_argument("--pressure", type=_finite_float, required=True)
    p.add_argument("--b-values", default="1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_phase_portrait)

    p = sub.add_parser("export-field", help="field grid CSV from a solution")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--grid", required=True, help="rmin:rmax:nr:ntheta")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export_field)

    p = sub.add_parser("selfcheck", help="run the acceptance criteria")
    p.add_argument("--list", action="store_true",
                   help="print the criteria without running them")
    p.set_defaults(func=_cmd_selfcheck)

    return ap


@functools.lru_cache(maxsize=1)
def _main_parser() -> argparse.ArgumentParser:
    # a parser is a web of reference cycles: building one per call left
    # ~90 kB of garbage per command for the cyclic collector, so commands
    # run in one process share a single parser
    return build_parser()


def main(argv=None) -> int:
    parser = _main_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
