"""End-to-end CLI tests: exit codes, output formats, file round trips.

Everything runs in process through main(argv) so coverage tools see it and
failures carry normal tracebacks; one test runs the module as a script.
"""

import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from test_assemble import cusp3, ell5, harmonic4, lam3, quad15

from homoeuler import _rows, assemble, classify, cli, periods
from homoeuler._field import field_grid
from homoeuler.assemble import GridSpec
from homoeuler.cli import (
    FIELD_COLUMNS,
    main,
    parse_solution,
    serialize_solution,
    solution_to_json,
)
from homoeuler.core import FlowParams, steady_state
from homoeuler.errors import DomainError, NumericalError
from homoeuler.periods import span_any

TWO_PI = 2.0 * math.pi


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


class TestClassify:
    def test_finite_count(self, capsys):
        rc, out, _ = run(capsys, "classify", "--lambda", "5")
        assert rc == 0
        assert "elliptic: 1 solution" in out
        assert "n = 3: P* = " in out
        assert "for B > 0" in out

    def test_lambda_one_shear(self, capsys):
        rc, out, _ = run(capsys, "classify", "--lambda", "1")
        assert rc == 0
        assert "all solutions are parallel shear flows" in out

    def test_unknown_window_caveat(self, capsys):
        rc, out, _ = run(capsys, "classify", "--lambda", "0.9")
        assert rc == 0
        assert "unresolved at this moment" in out
        assert "none for B <= 0" in out

    def test_continuum(self, capsys):
        rc, out, _ = run(capsys, "classify", "--lambda", "2")
        assert rc == 0
        assert "continuum" in out

    def test_json_form(self, capsys):
        rc, out, _ = run(capsys, "classify", "--lambda", "5", "--json")
        assert rc == 0
        d = json.loads(out)
        assert d["elliptic"]["count"] == "Finite"
        assert d["elliptic"]["n"] == 1
        entry = d["elliptic"]["entries"][0]
        assert entry["n"] == 3
        assert entry["period"] == pytest.approx(TWO_PI / 3.0, abs=1e-9)

    def test_json_census_at_large_lambda(self, capsys):
        # four roots whose cross-check orbits dwell next to the separatrix
        # (P* / P_max down to 5e-9)
        rc, out, _ = run(capsys, "classify", "--json", "--lambda", "18.374073")
        assert rc == 0
        entries = json.loads(out)["elliptic"]["entries"]
        assert [e["n"] for e in entries] == [3, 4, 5, 6]
        for e in entries:
            assert abs(e["period"] - TWO_PI / e["n"]) <= 1e-10

    def test_bad_lambda_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "classify", "--lambda", "0")
        assert rc == 2
        assert "domain error" in err


class TestConstruct:
    def test_cusp_three_arcs(self, capsys, tmp_path):
        out_file = tmp_path / "cusp.json"
        rc, _, _ = run(capsys, "construct", "--lambda", "0.6667",
                       "--pressure", "1", "--equal-arcs", "3",
                       "--out", str(out_file))
        assert rc == 0
        d = json.loads(out_file.read_text())
        assert d["schema_version"] == 1
        assert d["smoothness"] == "CuspEndpoints"
        assert len(d["pieces"]) == 3
        assert d["pieces"][0]["endpoint_slope"] is None
        assert len(d["pieces"][0]["mesh_dtheta"]) > 0
        assert abs(d["diagnostics"]["flux"]) <= 1e-12
        assert max(abs(w) for w in d["diagnostics"]["weak_residuals"]) <= 1e-7
        spans = [p["span"] for p in d["pieces"]]
        assert sum(spans) == pytest.approx(TWO_PI, abs=1e-9)

    def test_elliptic_solution_file(self, capsys, tmp_path):
        out_file = tmp_path / "ell.json"
        rc, _, _ = run(capsys, "construct", "--lambda", "5",
                       "--elliptic-n", "3", "--out", str(out_file))
        assert rc == 0
        d = json.loads(out_file.read_text())
        assert d["params"]["lambda"] == 5.0
        assert len(d["pieces"]) == 3
        for p in d["pieces"]:
            assert p["span"] == pytest.approx(TWO_PI / 3.0, abs=1e-9)
            assert p["sign"] == 1

    @pytest.mark.parametrize("lam,n", [
        ("11", "3"), ("12", "3"), ("13", "3"), ("17.05", "3"),
        ("18.374073", "3"), ("24.4", "3"), ("24.4", "4")])
    def test_elliptic_solutions_at_large_lambda(self, capsys, tmp_path, lam,
                                                n):
        # the arcs of these roots come from the closed orbit integrated
        # from its inner turning point; from the outer one their period
        # missed the quadrature span by more than 1e-9
        out_file = tmp_path / "ell.json"
        rc, _, err = run(capsys, "construct", "--lambda", lam,
                         "--elliptic-n", n, "--out", str(out_file))
        assert rc == 0, err
        pieces = json.loads(out_file.read_text())["pieces"]
        assert len(pieces) == int(n)
        assert sum(p["span"] for p in pieces) == pytest.approx(TWO_PI,
                                                                abs=1e-9)

    @pytest.mark.parametrize("lam,pressure", [
        ("2.5", "-2"), ("2.5", "-100"), ("3", "-3.7"), ("13", "-1")])
    def test_equal_arcs_above_lambda_two(self, capsys, tmp_path, lam,
                                         pressure):
        # every arc keeps its Bernoulli constant within 1e-9, also at large
        # |P| and lam, and H1 matches 2 n int_0^x0 sqrt(R) dx from scipy
        quad = pytest.importorskip("scipy.integrate").quad
        out_file = tmp_path / "h.json"
        rc, _, err = run(capsys, "construct", "--lambda", lam,
                         f"--pressure={pressure}", "--equal-arcs", "3",
                         "--out", str(out_file))
        assert rc == 0, err
        g = parse_solution(out_file.read_text())
        spans = [piece.arc.span for piece in g.pieces]
        assert abs(math.fsum(spans) - TWO_PI) <= 1e-9
        for piece in g.pieces:
            assert assemble.bernoulli_drift(piece.arc) <= 1e-9
        p = g.pieces[0].arc.params
        x0 = g.pieces[0].arc.profile[:, 1].max()
        alpha = 2.0 - 2.0 / p.lam
        half, _ = quad(lambda x: math.sqrt(max(
            -2.0 * p.P - p.lam ** 2 * x * x + p.B * x ** alpha, 0.0)),
            0.0, x0, epsabs=0.0, epsrel=1e-13, limit=200)
        assert assemble.h1_seminorm(g) == pytest.approx(6.0 * half,
                                                        rel=1e-9)

    @pytest.mark.parametrize("lam", ["0.6667", "3"])
    def test_zero_pressure_refused_before_solve(self, capsys, monkeypatch,
                                                lam):
        def no_solve(*args):
            raise AssertionError("the span root solve ran")
        monkeypatch.setattr(classify, "_solve_span", no_solve)
        rc, _, err = run(capsys, "construct", "--lambda", lam,
                         "--pressure", "0", "--equal-arcs", "3")
        assert rc == 2
        assert "P = 0" in err

    def test_equal_arcs_build_one_arc(self, capsys, monkeypatch, tmp_path):
        built = []
        original = assemble.hyperbolic_arc

        def counted(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(assemble, "hyperbolic_arc", counted)
        rc, _, err = run(capsys, "construct", "--lambda", repr(2.0 / 3.0),
                         "--pressure", "1", "--equal-arcs", "3",
                         "--out", str(tmp_path / "c.json"))
        assert rc == 0, err
        assert len(built) == 1

    def test_pi_span_tiling_rejected(self, capsys, tmp_path):
        rc, _, err = run(capsys, "construct", "--lambda", "2",
                         "--pressure", "-1", "--equal-arcs", "2",
                         "--out", str(tmp_path / "x.json"))
        assert rc == 2
        assert "cannot tile 2 pi" in err

    def test_specs_mismatch_then_repair(self, capsys, tmp_path):
        args = ["construct", "--lambda", "2", "--pressure", "-1",
                "--specs", "1:+,1:-,1:+", "--out", str(tmp_path / "s.json")]
        rc, _, err = run(capsys, *args)
        assert rc == 2
        assert "miss 2 pi" in err
        rc, _, _ = run(capsys, *args, "--auto-repair")
        assert rc == 0
        d = json.loads((tmp_path / "s.json").read_text())
        # closed form at lam = 2: B(T) = sqrt(-32 P) tan(T - pi/2)
        t_one = 0.5 * math.pi + math.atan(1.0 / math.sqrt(32.0))
        t_last = TWO_PI - 2.0 * t_one
        b_want = math.sqrt(32.0) * math.tan(t_last - 0.5 * math.pi)
        assert d["pieces"][-1]["B"] == pytest.approx(b_want, rel=1e-8)

    def test_negative_exponent_pressure(self, capsys, tmp_path):
        out_file = tmp_path / "h.json"
        rc, _, _ = run(capsys, "construct", "--lambda", "2",
                       "--pressure", "-1.5e-3", "--equal-arcs", "3",
                       "--out", str(out_file))
        assert rc == 0
        assert json.loads(out_file.read_text())["params"]["P"] == -1.5e-3
        rc, out, _ = run(capsys, "phase-portrait", "--lambda", "2",
                         "--pressure", "-1e6", "--b-values", "1")
        assert rc == 0
        assert out.startswith("B,t,x,y\n")

    def test_specs_require_pressure(self, capsys):
        rc, _, err = run(capsys, "construct", "--lambda", "2",
                         "--specs", "1:+,1:-")
        assert rc == 1
        assert "usage error" in err

    def test_exclusive_modes(self, capsys):
        rc, _, _ = run(capsys, "construct", "--lambda", "2",
                       "--equal-arcs", "3", "--elliptic-n", "3")
        assert rc == 1


CUSP_ARGS = ("construct", "--lambda", "0.6667", "--pressure", "1",
             "--equal-arcs", "3")


class TestConfig:
    def cusp(self, capsys, tmp_path, name, *extra):
        out_file = tmp_path / name
        rc, _, err = run(capsys, *CUSP_ARGS, *extra, "--out", str(out_file))
        assert rc == 0, err
        return out_file.read_text()

    def config(self, tmp_path, **keys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(keys))
        return str(path)

    def test_points_per_arc_below_minimum_is_usage(self, capsys):
        rc, _, err = run(capsys, *CUSP_ARGS, "--points-per-arc", "32")
        assert rc == 1
        assert "--points-per-arc" in err
        assert "64" in err

    @pytest.mark.parametrize("flag,value,limit", [
        ("--root-tol", "-1", "must be positive"),
        ("--root-tol", "0", "must be positive"),
        ("--max-arcs", "0", "must be at least 1"),
    ])
    def test_flag_out_of_range_is_usage(self, capsys, flag, value, limit):
        rc, _, err = run(capsys, *CUSP_ARGS, flag, value)
        assert rc == 1
        assert f"{flag} {limit}" in err

    @pytest.mark.parametrize("key,value", [
        ("max_arcs", 0), ("root_tol", -1.0), ("points_per_arc", 32)])
    def test_file_out_of_range_is_domain_error(self, capsys, tmp_path, key,
                                               value):
        cfg = self.config(tmp_path, **{key: value})
        rc, _, err = run(capsys, *CUSP_ARGS, "--config", cfg)
        assert rc == 2
        assert key in err

    # file text (None: no file) and the message, which names the key or,
    # for a fault of the whole file, the file
    @pytest.mark.parametrize("text,message", [
        ('{"points_per_arc": "128"}', "points_per_arc must be an integer"),
        ('{"points_per_arc": 128.0}', "points_per_arc must be an integer"),
        ('{"max_arcs": 2.5}', "max_arcs must be an integer"),
        ('{"max_arcs": true}', "max_arcs must be an integer"),
        ('{"root_tol": null}', "root_tol must be a real number"),
        ('{"root_tol": "1e-10"}', "root_tol must be a real number"),
        ('{"output": 5}', "output must be a string or null"),
        ("3", "config file {path} must hold a JSON object"),
        ('["root_tol"]', "config file {path} must hold a JSON object"),
        ("{bad", "cannot load config file {path}: Expecting"),
        (None, "cannot load config file {path}: [Errno 2]"),
    ], ids=["points-str", "points-float", "max-arcs-float", "max-arcs-bool",
            "tol-null", "tol-str", "output-int", "scalar", "list",
            "bad-json", "missing"])
    def test_bad_file_is_domain_error(self, capsys, tmp_path, monkeypatch,
                                      text, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("the span root solve ran")
        monkeypatch.setattr(cli, "solve_hyperbolic_span", no_solve)
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        rc, _, err = run(capsys, *CUSP_ARGS, "--config", str(path))
        assert rc == 2
        assert message.format(path=repr(str(path))) in err

    def test_arc_count_refused_before_solve(self, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the span root solve ran")
        monkeypatch.setattr(cli, "solve_hyperbolic_span", no_solve)
        rc, _, err = run(capsys, *CUSP_ARGS, "--max-arcs", "2")
        assert rc == 2
        assert "between 1 and 2 arcs, got 3" in err

    def test_file_is_honoured(self, capsys, tmp_path):
        cfg = self.config(tmp_path, points_per_arc=128, max_arcs=3)
        from_file = self.cusp(capsys, tmp_path, "f.json", "--config", cfg)
        from_flag = self.cusp(capsys, tmp_path, "g.json",
                              "--points-per-arc", "128")
        default = self.cusp(capsys, tmp_path, "d.json")
        assert from_file == from_flag
        assert from_file != default
        cfg = self.config(tmp_path, max_arcs=2)
        rc, _, err = run(capsys, *CUSP_ARGS, "--config", cfg)
        assert rc == 2
        assert "between 1 and 2 arcs" in err

    def test_flag_overrides_file(self, capsys, tmp_path):
        cfg = self.config(tmp_path, points_per_arc=128, max_arcs=2)
        both = self.cusp(capsys, tmp_path, "b.json", "--config", cfg,
                         "--points-per-arc", "96", "--max-arcs", "3")
        flags = self.cusp(capsys, tmp_path, "f.json",
                          "--points-per-arc", "96")
        assert both == flags

    @pytest.mark.parametrize("key", ["quadrature_tol", "no_such_key"])
    def test_unknown_key_is_domain_error(self, capsys, tmp_path, key):
        cfg = self.config(tmp_path, **{key: 1e-10})
        rc, _, err = run(capsys, *CUSP_ARGS, "--config", cfg)
        assert rc == 2
        assert key in err


class TestRoundTrip:
    @pytest.fixture()
    def cusp_text(self, capsys, tmp_path):
        out_file = tmp_path / "c.json"
        rc, _, _ = run(capsys, "construct", "--lambda", "0.6667",
                       "--pressure", "1", "--equal-arcs", "3",
                       "--out", str(out_file))
        assert rc == 0
        return out_file.read_text()

    def test_parse_serialize_identity(self, cusp_text):
        g = parse_solution(cusp_text)
        assert parse_solution(solution_to_json(g)) == g

    def test_serialized_dict_matches_json_text(self, cusp_text):
        g = parse_solution(cusp_text)
        d = serialize_solution(g)
        assert isinstance(d["pieces"][0]["profile"][0], list)
        assert json.loads(solution_to_json(g)) == d

    def test_seventeen_digit_floats_are_exact(self, cusp_text):
        g = parse_solution(cusp_text)
        h = parse_solution(solution_to_json(g))
        assert np.array_equal(h.pieces[0].arc.profile,
                              g.pieces[0].arc.profile)
        assert np.array_equal(h.pieces[0].arc.mesh_dtheta,
                              g.pieces[0].arc.mesh_dtheta)

    @pytest.mark.parametrize("lam,n", [("5", "3"), ("13", "4")])
    def test_elliptic_file_reserializes_byte_for_byte(self, capsys, tmp_path,
                                                       lam, n):
        # these profiles hold -0.0, written as "-0"
        out_file = tmp_path / "e.json"
        rc, _, _ = run(capsys, "construct", "--lambda", lam,
                       "--elliptic-n", n, "--out", str(out_file))
        assert rc == 0
        text = out_file.read_text()
        assert "-0," in text or "-0]" in text
        again = solution_to_json(parse_solution(text))
        # token lists: same check, but a failure reports the first
        # differing token instead of diffing ~100 kB of text
        assert again.split(", ") == text.split(", ")

    def test_schema_version_guard(self, cusp_text):
        d = json.loads(cusp_text)
        d["schema_version"] = 99
        from homoeuler.errors import DomainError
        with pytest.raises(DomainError, match="schema_version"):
            parse_solution(d)


class TestPeriodScan:
    def test_lambda_two_constant(self, capsys):
        rc, out, _ = run(capsys, "period-scan", "--lambda", "2",
                         "--n-points", "8")
        assert rc == 0
        assert "constant within 1e-8" in out

    def test_elliptic_directions(self, capsys):
        # tables run from the center limit toward the separatrix
        rc, out, _ = run(capsys, "period-scan", "--lambda", "3",
                         "--n-points", "10")
        assert rc == 0 and "strictly increasing" in out
        rc, out, _ = run(capsys, "period-scan", "--lambda", "1.5",
                         "--n-points", "10")
        assert rc == 0 and "strictly decreasing" in out

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "period-scan", "--lambda", "3",
                         "--region", "hyperbolic", "--b-sign", "minus",
                         "--n-points", "6", "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "P,T,est_error"
        assert lines[-1] == "# monotonicity: strictly increasing"
        assert len(lines) == 8

    def test_negative_exponent_values(self, capsys):
        rc, out, _ = run(capsys, "period-scan", "--lambda", "3",
                         "--region", "hyperbolic", "--p-min", "-1e6",
                         "--p-max", "-1.5e-3", "--n-points", "3",
                         "--format", "json")
        assert rc == 0
        ps = [row["P"] for row in json.loads(out)["rows"]]
        assert ps[0] == pytest.approx(-1.5e-3, rel=1e-12)
        assert ps[-1] == pytest.approx(-1e6, rel=1e-12)

    def test_json_format_rows(self, capsys):
        rc, out, _ = run(capsys, "period-scan", "--lambda", "2",
                         "--region", "hyperbolic", "--n-points", "5",
                         "--format", "json")
        assert rc == 0
        d = json.loads(out)
        assert len(d["rows"]) == 5
        assert d["monotonicity"] == "strictly decreasing"
        for row in d["rows"]:
            assert 0.5 * math.pi < row["T"] < math.pi
            assert row["est_error"] <= 1e-9

    def test_next_to_the_centre(self, capsys):
        # P = P_max (1 - 9.5e-8) at lam = 5, where the cancelling radicand
        # missed 1e-9: T lies 1.07e-8 above the centre limit 2 pi/sqrt(10)
        rc, out, err = run(capsys, "period-scan", "--lambda", "5", "--p-min",
                           "1e-12", "--p-max", "1.0485759e-07",
                           "--n-points", "2", "--format", "json")
        assert (rc, err) == (0, "")
        rows = json.loads(out)["rows"]
        gap = rows[0]["T"] - 2.0 * math.pi / math.sqrt(10.0)
        assert 1.0e-8 < gap < 1.1e-8
        assert all(row["est_error"] <= 1e-9 for row in rows)


# period-scan evaluates the rows of a table together (periods.span_rows):
# one batched quadrature per integrand kind, in one process, and span_any
# again row by row only where a row fails

# elliptic, next to the centre, hyperbolic with either sign of B, and
# lam < 1 (conjugated to lam = 4/3)
SCANS = {
    "elliptic": ["--lambda", "5", "--n-points", "200"],
    "near-centre": ["--lambda", "3", "--n-points", "201",
                    f"--p-max={(1.0 - 1e-6) * steady_state(3.0, 1.0).P_max!r}"],
    "hyperbolic plus": ["--lambda", "3", "--region", "hyperbolic",
                        "--p-min=-1e6", "--p-max=-1e-6", "--n-points", "202"],
    "hyperbolic minus": ["--lambda", "5", "--region", "hyperbolic",
                         "--b-sign", "minus", "--p-min=-1e6",
                         "--p-max=-1e-6", "--n-points", "203"],
    "lambda below 1": ["--lambda", "0.75", "--region", "hyperbolic",
                       "--n-points", "200"],
}


def scan_params(argv):
    args = cli.build_parser().parse_args(["period-scan", *argv])
    ps, B = cli._scan_grid(args)
    return [FlowParams(args.lam, P, B) for P in ps]


def scalar_scan(capsys, monkeypatch, argv):
    """period-scan with its rows from a loop over span_any: (exit code,
    stdout, stderr)."""
    with monkeypatch.context() as m:
        m.setattr(_rows, "span_rows", lambda lam, ps, B: [
            span_any(FlowParams(lam, P, B)) for P in ps])
        return run(capsys, "period-scan", *argv)


def failing_at(monkeypatch, argv, bad_rows, exc_type=NumericalError):
    """Make the turning points of the given rows of the scan `argv` raise,
    for span_rows' row set-up and span_any alike."""
    bad = {scan_params(argv)[i].P for i in bad_rows}
    real = periods.find_intercepts

    def find_intercepts(p):
        if p.P in bad:
            raise exc_type(f"row at P={p.P!r} fails")
        return real(p)

    monkeypatch.setattr(periods, "find_intercepts", find_intercepts)


def table_rows(out, fmt):
    """(P, T, est_error) of each row and the verdict of a table."""
    if fmt == "json":
        d = json.loads(out)
        return ([(r["P"], r["T"], r["est_error"]) for r in d["rows"]],
                d["monotonicity"])
    lines = out.splitlines()
    if fmt == "csv":
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:-1]]
        return rows, lines[-1].removeprefix("# monotonicity: ")
    rows = [tuple(map(float, ln.split())) for ln in lines[1:-1]]
    return rows, lines[-1].removeprefix("monotonicity: ")


class TestBatchedScan:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("name", list(SCANS))
    def test_rows_match_span_any(self, capsys, monkeypatch, name, fmt):
        # every row within 2e-15 of span_any (5.0e-16 at most measured on
        # these tables: NumPy's expm1, log1p and power differ from math's
        # in the last ulp, and the panel values are summed in another
        # order), with the same verdict; no row falls back to span_any
        argv = SCANS[name] + ["--format", fmt]
        want = [span_any(p) for p in scan_params(argv)]
        want_verdict = cli._verdict([r.T for r in want])
        with monkeypatch.context() as m:
            m.setattr(periods, "span_any", None)
            rc, out, err = run(capsys, "period-scan", *argv)
        assert (rc, err) == (0, "")
        rows, verdict = table_rows(out, fmt)
        assert verdict == want_verdict != "not monotone"
        assert len(rows) == len(want)
        for (P, T, e), r in zip(rows, want):
            assert T == pytest.approx(r.T, rel=2e-15, abs=0.0), P
            assert 0.0 <= e <= 1e-9

    @pytest.mark.parametrize("lam,offset", [
        (8.0, None), (13.0, None), (1.5, 1e-6), (2.5, 1e-6), (5.0, 1e-6)])
    def test_near_centre_rows_are_span_any(self, monkeypatch, lam, offset):
        # a row that takes the centre series has span_any's bits, on the
        # default grid and on one whose top is (1 - offset) P_max
        argv = ["--lambda", repr(lam)]
        if offset is not None:
            pm = steady_state(lam, 1.0).P_max
            argv.append(f"--p-max={(1.0 - offset) * pm!r}")
        params = scan_params(argv)
        centre = [i for i, p in enumerate(params) if periods._plan(
            p.lam, p.P, p.B, periods.find_intercepts(p))[0]
            is periods._CENTRE]
        want = [span_any(params[i]) for i in centre]
        monkeypatch.setattr(periods, "span_any", None)
        got = _rows.span_rows(lam, [p.P for p in params], 1.0)
        assert centre and [got[i] for i in centre] == want

    def test_failed_batch_takes_span_any(self, capsys, monkeypatch):
        # a row whose batched quadrature fails, though span_any meets its
        # target, gets span_any's rows: the table is the scalar loop's
        argv = SCANS["hyperbolic plus"]
        real = _rows.adaptive_gk_rows

        def failing(f, a, b, tol, max_panels):
            v, e = real(f, a, b, tol, max_panels)
            e[17] = 2.0 * tol[17]
            return v, e

        monkeypatch.setattr(_rows, "adaptive_gk_rows", failing)
        want = scalar_scan(capsys, monkeypatch, argv)
        assert want[0] == 0
        assert run(capsys, "period-scan", *argv) == want


# period-scan has no fan-out: whatever the usable CPUs and threads, it runs
# in one process, and a failing row raises what the scalar one-process loop
# raises, at the same row


@pytest.fixture()
def forks(monkeypatch):
    """The calls to os.fork; a call fails the test instead of forking."""
    calls = []

    def fork():
        calls.append(1)
        raise AssertionError("period-scan forked")

    monkeypatch.setattr(os, "fork", fork)
    return calls


def scan_on(capsys, monkeypatch, cpus, argv):
    """period-scan with `cpus` usable CPUs: (exit code, stdout, stderr)."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return run(capsys, "period-scan", *argv)


class TestScanFanOut:
    def test_few_rows_stay_in_process(self, capsys, monkeypatch, forks):
        # few rows, many rows, and every kind of row, on four CPUs
        for n in ("2", "3", "200"):
            argv = ["--lambda", "5", "--n-points", n]
            assert scan_on(capsys, monkeypatch, 4, argv)[0] == 0
        for argv in SCANS.values():
            assert scan_on(capsys, monkeypatch, 4, argv)[0] == 0
        assert forks == []

    def test_threads_keep_the_scan_in_process(self, capsys, monkeypatch,
                                              forks):
        stop = threading.Event()
        t = threading.Thread(target=stop.wait)
        t.start()
        try:
            rc = scan_on(capsys, monkeypatch, 2, SCANS["elliptic"])[0]
        finally:
            stop.set()
            t.join()
        assert rc == 0 and forks == []

    @pytest.mark.parametrize("cpus,bad_rows", [
        (2, [5]),
        (2, [10, 7]),      # the first failing row listed last
        (2, [9, 4]),
        (2, [0]),          # the first row
        (3, [199, 8, 12]), # the last row and two before it
    ])
    @pytest.mark.parametrize("exc_type,rc_want", [(NumericalError, 3),
                                                  (DomainError, 2)])
    def test_failing_row_as_in_one_process(self, capsys, monkeypatch, forks,
                                           cpus, bad_rows, exc_type,
                                           rc_want):
        argv = SCANS["elliptic"]
        failing_at(monkeypatch, argv, bad_rows, exc_type)
        want = scalar_scan(capsys, monkeypatch, argv)
        P = scan_params(argv)[min(bad_rows)].P
        assert want[0] == rc_want and want[1] == ""
        assert f"row at P={P!r} fails" in want[2]
        assert scan_on(capsys, monkeypatch, cpus, argv) == want
        assert forks == []

    def test_untyped_exception_as_in_one_process(self, capsys, monkeypatch,
                                                 forks):
        argv = SCANS["elliptic"]
        failing_at(monkeypatch, argv, [13, 150], ZeroDivisionError)
        P = scan_params(argv)[13].P
        with pytest.raises(ZeroDivisionError, match=f"P={P!r}"):
            scalar_scan(capsys, monkeypatch, argv)
        for cpus in (1, 2):
            with pytest.raises(ZeroDivisionError, match=f"P={P!r}"):
                scan_on(capsys, monkeypatch, cpus, argv)
        assert forks == []

    def test_one_panel_budget_on_two_processes(self, capsys, monkeypatch,
                                               forks):
        # the _MAX_PANELS case of test_solver_failures_name_their_inputs,
        # on two CPUs: no batched row can meet its target in one panel,
        # and the rows evaluated again by span_any raise at the first one
        monkeypatch.setattr(periods, "_MAX_PANELS", 1)
        argv = ["--lambda", "5", "--p-min", "1e-12", "--p-max", "5e-08",
                "--n-points", "64"]
        want = scalar_scan(capsys, monkeypatch, argv)
        assert want[:2] == (3, "")
        assert ("quadrature at lam=5.0, P=5e-08, B=1.0: error estimate"
                in want[2])
        assert scan_on(capsys, monkeypatch, 2, argv) == want
        assert forks == []

    def test_table_written_once(self, capsys):
        # run as a script with two usable CPUs: the text buffered before
        # the scan and the table are each written once, as in process
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        # stdout on a pipe is block-buffered unless PYTHONUNBUFFERED is set
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        argv = ["period-scan", "--lambda", "5", "--n-points", "200"]
        script = ("import os, sys\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "from homoeuler.cli import main\n"
                  "sys.stdout.write('before the scan\\n')\n"
                  f"sys.exit(main({argv!r}))\n")
        two = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, timeout=60)
        plain = subprocess.run([sys.executable, "-m", "homoeuler.cli",
                                *argv], env=env, capture_output=True,
                               timeout=60)
        assert two.returncode == plain.returncode == 0
        assert two.stderr == plain.stderr == b""
        assert two.stdout == b"before the scan\n" + plain.stdout
        assert plain.stdout.decode() == run(capsys, *argv)[1]
        assert plain.stdout.count(b"monotonicity:") == 1
        assert plain.stdout.count(b"est_error") == 1


class TestFieldExport:
    @pytest.fixture()
    def ell_file(self, capsys, tmp_path):
        out_file = tmp_path / "e.json"
        rc, _, _ = run(capsys, "construct", "--lambda", "2",
                       "--elliptic-n", "2", "--pressure", "0.015",
                       "--out", str(out_file))
        assert rc == 0
        return out_file

    def test_header_and_rows(self, capsys, ell_file, tmp_path):
        csv_file = tmp_path / "f.csv"
        rc, _, _ = run(capsys, "export-field", "--in", str(ell_file),
                       "--grid", "0.5:1.5:3:8", "--out", str(csv_file))
        assert rc == 0
        lines = csv_file.read_text().strip().split("\n")
        assert lines[0] == ",".join(FIELD_COLUMNS)
        assert len(lines) == 1 + 3 * 8
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 10
            assert all(c for c in cells)

    def test_singular_rays_empty(self, capsys, tmp_path):
        sol = tmp_path / "c.json"
        rc, _, _ = run(capsys, "construct", "--lambda", "0.6667",
                       "--pressure", "1", "--equal-arcs", "3",
                       "--out", str(sol))
        assert rc == 0
        rc, out, _ = run(capsys, "export-field", "--in", str(sol),
                         "--grid", "0.5:1:2:3")
        assert rc == 0
        lines = out.strip().split("\n")
        # n_theta = 3 puts every ray on a cusp junction
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] and cells[1]
            assert all(c == "" for c in cells[2:])

    def test_bad_grid_is_usage_error(self, capsys, ell_file):
        rc, _, err = run(capsys, "export-field", "--in", str(ell_file),
                         "--grid", "1:2:3")
        assert rc == 1
        assert "usage error" in err


class TestFlux:
    def test_reports_scaled_magnitude(self, capsys, tmp_path):
        sol = tmp_path / "c.json"
        rc, _, _ = run(capsys, "construct", "--lambda", "0.6667",
                       "--pressure", "1", "--equal-arcs", "3",
                       "--out", str(sol))
        assert rc == 0
        rc, out, _ = run(capsys, "flux", "--in", str(sol))
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("flux = ")
        scaled = float(lines[1].split("=")[1])
        assert scaled <= 1e-8


class TestPhasePortrait:
    def test_closed_orbit_rows(self, capsys):
        rc, out, _ = run(capsys, "phase-portrait", "--lambda", "2",
                         "--pressure", "0.01", "--b-values", "1")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "B,t,x,y"
        assert len(lines) > 50
        last_t = float(lines[-1].split(",")[1])
        assert last_t == pytest.approx(math.pi, abs=1e-6)
        # one loop from the outer turning point x1 round to it again
        x1 = (1 + math.sqrt(1 - 32 * 0.01)) / 8
        first, last = lines[1].split(","), lines[-1].split(",")
        for row, t in ((first, 0.0), (last, last_t)):
            assert float(row[1]) == t and float(row[3]) == 0.0
            assert float(row[2]) == pytest.approx(x1, rel=1e-9)

    @pytest.mark.parametrize("pressure,b", [("2", "8"), ("0.5", "-1")])
    def test_no_closed_orbit_is_domain_error(self, capsys, pressure, b):
        # the centre pressure at lam = 2, B = 8 and an empty level set
        rc, out, err = run(capsys, "phase-portrait", "--lambda", "2",
                           "--pressure", pressure, f"--b-values={b}")
        assert (rc, out) == (2, "")
        assert {"2": "not the inner turning point of a closed orbit",
                "0.5": "is empty: no orbit to sample"}[pressure] in err

    @pytest.mark.parametrize("lam,pressure", [("3", "0.5"), ("0.75", "0.5")])
    def test_empty_level_set_is_named(self, capsys, lam, pressure):
        # B < 0 with P > 0: no point of the phase plane has this (P, B),
        # on the closed-orbit route (lam > 1) and the arch route alike
        rc, out, err = run(capsys, "phase-portrait", "--lambda", lam,
                           "--pressure", pressure, "--b-values=-1")
        assert (rc, out) == (2, "")
        p = f"FlowParams(lam={float(lam)!r}, P={float(pressure)!r}, B=-1.0)"
        assert err == (f"domain error: the level set of {p} is empty: no"
                       " orbit to sample\n")

    @pytest.mark.parametrize("lam", [0.75, 0.6])
    def test_closed_orbit_below_lam1(self, capsys, lam):
        # B < 0 below the centre pressure at lam < 1: a loop round the
        # centre, integrated as a closed orbit and not as an arch
        from homoeuler.core import FlowParams
        alpha = 2.0 - 2.0 / lam
        x_c = (-alpha / (2.0 * lam * lam)) ** (0.5 * lam)
        pressure = 1.5 * 0.5 * (-lam * lam * x_c * x_c - x_c ** alpha)
        rc, out, _ = run(capsys, "phase-portrait", "--lambda", repr(lam),
                         f"--pressure={pressure!r}", "--b-values=-1")
        assert rc == 0
        last_t = float(out.strip().split("\n")[-1].split(",")[1])
        T = periods.span_any(FlowParams(lam, pressure, -1.0)).T
        assert abs(last_t - T) <= 1e-9

    @pytest.mark.parametrize("lam,b", [("2", "400"), ("13", "402.77")])
    def test_large_b_arch(self, capsys, lam, b):
        # the terms of H reach 1e4 |P| and more on these arches; the
        # level-set checks at the apex and along the samples scale with them
        from homoeuler.core import FlowParams
        rc, out, _ = run(capsys, "phase-portrait", "--lambda", lam,
                         "--pressure=-1", "--b-values", b)
        assert rc == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.strip().split("\n")[1:]]
        assert rows[0][1] == 0.0 and rows[0][3] == 0.0
        assert rows[-1][2] <= 1e-12 * rows[0][2]
        half = 0.5 * periods.span_any(FlowParams(float(lam), -1.0,
                                                 float(b))).T
        # lam = 13 is 2.3e-7 off at the default largest step (ROADMAP)
        assert abs(rows[-1][1] - half) <= (1e-10 if lam == "2" else 1e-6)

    def test_multiple_b_values(self, capsys):
        rc, out, _ = run(capsys, "phase-portrait", "--lambda", "2",
                         "--pressure", "-1", "--b-values", "1,2")
        assert rc == 0
        bs = {line.split(",")[0] for line in out.strip().split("\n")[1:]}
        assert bs == {"1", "2"}

    @pytest.mark.parametrize("lam,pressure,b", [
        ("1.5", "-1", "1"), ("1.5", "-1", "-1"), ("0.75", "1", "1")])
    def test_arch_below_lam2(self, capsys, lam, pressure, b):
        # the (x, y) integrator cannot reach the axis for 1/2 < lam < 2
        # with B != 0; these arches come from hyperbolic_arc's half profile
        rc, out, err = run(capsys, "phase-portrait", "--lambda", lam,
                           f"--pressure={pressure}", f"--b-values={b}")
        assert (rc, err) == (0, "")
        t, x, y = np.array([[float(v) for v in line.split(",")[1:]]
                            for line in out.strip().split("\n")[1:]]).T
        p = FlowParams(float(lam), float(pressure), float(b))
        # from the apex (x0, 0) at t = 0 toward the axis
        assert (t[0], x[0], y[0]) == (0.0, periods.find_intercepts(p).x0, 0.0)
        assert np.all(np.diff(t) >= 0.0) and np.all(np.diff(x) <= 0.0)
        assert np.all(x >= 0.0) and np.all(y <= 0.0)
        half = 0.5 * span_any(p).T
        if p.lam > 1.0:
            # the axis row, with the exact slope -sqrt(-2P)
            assert (t[-1], x[-1]) == (half, 0.0)
            assert y[-1] == -math.sqrt(-2.0 * p.P)
        else:
            # no axis row: the slope is infinite there
            assert 0.0 < x[-1] <= 1e-12 * x[0] and half - t[-1] <= 1e-12


class TestExitCodes:
    def test_no_command_is_usage(self, capsys):
        assert run(capsys, )[0] == 1

    def test_help_is_success(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_missing_flag_is_usage(self, capsys):
        assert run(capsys, "classify")[0] == 1

    def test_domain_error_exit(self, capsys):
        rc, _, err = run(capsys, "period-scan", "--lambda", "0.6")
        assert rc == 2
        assert "domain error" in err

    @pytest.mark.parametrize("argv", [
        ["classify", "--lambda", "1e103", "--json"],
        ["period-scan", "--lambda", "1e103", "--region", "elliptic",
         "--n-points", "3"],
        ["construct", "--lambda", "1e103", "--elliptic-n", "3"],
    ])
    def test_huge_lambda_is_domain_error(self, capsys, argv):
        # lam**3 in the steady state overflows; that used to be a traceback
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert "domain error" in err
        assert "lam=1e+103" in err and "overflows" in err

    @pytest.mark.parametrize("argv,params,flow", [
        # (alpha B/(2 lam^2))^(lam/2), the centre abscissa, overflows
        (["phase-portrait", "--lambda", "200", "--pressure=-1",
          "--b-values", "1e300"], "lam=200.0, P=-1.0, B=1e+300", "overflows"),
        # lam = 0.02 is conjugated to lam = 50, B = -2P/lam^4 = 1.25e306,
        # and the arch's radicand overflows
        (["period-scan", "--lambda", "0.02", "--region", "hyperbolic",
          "--b-sign", "plus", "--p-min=-1e300", "--p-max=-1e299",
          "--n-points", "3"], "lam=50.0, P=-3125000.0, B=1.25e+306",
         "overflows"),
    ])
    def test_out_of_range_power_is_domain_error(self, capsys, argv, params,
                                                flow):
        # these used to end in an OverflowError or ZeroDivisionError traceback
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert "domain error" in err
        assert params in err and f"{flow} a double" in err

    def test_arch_whose_rescaling_underflows_has_a_span(self, capsys):
        # at tiny |P| the conjugate's B = -2P/lam^4 is 1.25e-293, and |B|^50
        # underflows, which no span needs; the arch is all but harmonic:
        # (pi/50) * 50
        rc, out, err = run(capsys, "period-scan", "--lambda", "0.02",
                           "--region", "hyperbolic", "--b-sign", "plus",
                           "--p-min=-1e-299", "--p-max=-1e-300",
                           "--n-points", "3", "--format", "json")
        assert (rc, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert len(rows) == 3
        for row in rows:
            assert row["T"] == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("argv,rc_want,parts", [
        # the radicand is nan (-inf + inf) between the centre and the outer
        # bracket end
        (["phase-portrait", "--lambda", "1.5", "--pressure",
          "1.7735943027886556", "--b-values", "8.942593947789929e+262"], 2,
         ("turning points of lam=1.5, P=1.7735943027886556,"
          " B=8.942593947789929e+262: a power in the radicand overflows a"
          " double",)),
        # a mid-range period on a one-panel budget misses 1e-9
        (["period-scan", "--lambda", "5", "--p-min", "1e-12", "--p-max",
          "5e-08", "--n-points", "2"], 3,
         ("quadrature at lam=5.0, P=5e-08, B=1.0: error estimate",
          "misses the 1e-9 target")),
        # P_max underflows to 0 at lam = 100 (ROADMAP item 3)
        (["construct", "--lambda", "100", "--elliptic-n", "3"], 3,
         ("no pressure bracket at lam = 100.0, n = 3: P_max = 0.0"
          " underflows",)),
        # the conjugate arch's x0^(-2/lam) overflows, and so does
        # C = B x0^(-2/lam)
        (["construct", "--lambda", "0.6667", "--pressure",
          "0.03727290792156944", "--specs=1.0152015702437511e-159:+,"
          "1.0152015702437511e-159:-,1.0152015702437511e-159:+"], 2,
         ("(lam=0.6667, P=0.03727290792156944, B=1.0152015702437511e-159)"
          " admits no arc: span integrand at lam=1.4999250037498126,",
          "C = B x0^(-2/lam) overflows a double")),
    ])
    def test_solver_failures_name_their_inputs(self, capsys, monkeypatch,
                                               argv, rc_want, parts):
        # with its 1024-panel budget no known input misses the quadrature
        # target; one panel per span makes the period-scan row do so, and
        # the other failures come before any quadrature
        monkeypatch.setattr(periods, "_MAX_PANELS", 1)
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (rc_want, "")
        assert all(part in err for part in parts), err

    @pytest.mark.parametrize("argv,flag", [
        (["classify", "--lambda", "nan"], "--lambda"),
        (["classify", "--lambda", "inf"], "--lambda"),
        (["period-scan", "--lambda", "3", "--p-max", "inf"], "--p-max"),
        (["construct", "--lambda", "0.6667", "--pressure", "nan",
          "--equal-arcs", "3"], "--pressure"),
        (["construct", "--lambda", "3", "--equal-arcs", "3",
          "--root-tol", "inf"], "--root-tol"),
        (["construct", "--lambda", "3", "--pressure", "-1",
          "--specs=1:+,nan:-"], "--specs"),
        (["phase-portrait", "--lambda", "2", "--pressure=-inf"],
         "--pressure"),
        (["phase-portrait", "--lambda", "2", "--pressure", "-1",
          "--b-values", "1,inf"], "--b-values"),
    ])
    def test_non_finite_number_is_usage(self, capsys, monkeypatch, argv,
                                        flag):
        def no_solve(*args):
            raise AssertionError("the span root solve ran")
        monkeypatch.setattr(classify, "_solve_span", no_solve)
        rc, _, err = run(capsys, *argv)
        assert rc == 1
        assert flag in err


class TestSelfcheckList:
    def test_lists_twelve(self, capsys):
        rc, out, _ = run(capsys, "selfcheck", "--list")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 12
        assert lines[0].startswith("criterion_01")
        assert lines[-1].startswith("criterion_12")


# ---------------------------------------------------------------------------
# oracles for the template writers: the per-cell CSV loop and the recursive
# JSON emitter that cli.field_csv and cli._emit replaced, kept as they were
# apart from their names and an inlined _fmt

def oracle_emit(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return f"{obj:.17g}" if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {oracle_emit(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray):
        return oracle_emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(oracle_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


ORACLE_VALUES = ("x", "y", "u_x", "u_y", "psi", "stream", "vorticity",
                 "pressure")
ORACLE_ROW = ",".join(["%.17g"] * len(ORACLE_VALUES))


def oracle_field_csv(g, grid) -> str:
    def fmt(x):
        return f"{x:.17g}"
    rs, thetas = grid.axes()
    singular, cells = field_grid(g, rs, thetas)
    cols = [cells[name] for name in ORACLE_VALUES]
    rays = [(fmt(t) + ",", on_ray)
            for t, on_ray in zip(thetas.tolist(), singular.tolist())]
    empty = "," * (len(ORACLE_VALUES) - 1)
    buf = io.StringIO()
    buf.write(",".join(FIELD_COLUMNS) + "\n")
    for i, r in enumerate(rs.tolist()):
        vals = np.stack([c[i] for c in cols], axis=1)
        finite = np.isfinite(vals).all(axis=1).tolist()
        head = fmt(r) + ","
        for (theta, on_ray), row, ok in zip(rays, vals.tolist(), finite):
            if on_ray:
                line = empty
            elif ok:
                line = ORACLE_ROW % tuple(row)
            else:
                line = ",".join(fmt(v) if math.isfinite(v) else ""
                                for v in row)
            buf.write(head + theta + line + "\n")
    return buf.getvalue()


BUILDERS = {"cusp": cusp3, "ell5": ell5, "ode3": lam3,
            "harmonic": harmonic4, "vortex_sheet": lambda: lam3((1, 1, 1, 1)),
            "quad15": quad15}


@pytest.fixture(scope="module")
def solutions():
    return {name: build() for name, build in BUILDERS.items()}


class TestTemplateWritersAgainstOracles:
    """field_csv, _emit and _row_table give the bytes of the loops they
    replaced."""

    # the TestFieldOracle grid (every junction ray), radii whose powers
    # overflow, and radii whose powers underflow to signed zeros
    GRIDS = {"junctions": GridSpec(0.37, 2.5, 25, 24),
             "huge": GridSpec(1.0, 1e70, 5, 24),
             "tiny": GridSpec(1e-300, 1e-200, 5, 24)}

    @pytest.mark.parametrize("grid", GRIDS, ids=list(GRIDS))
    @pytest.mark.parametrize("name", BUILDERS)
    def test_field_csv_bytes(self, solutions, name, grid):
        g = solutions[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cli.field_csv(g, self.GRIDS[grid])
        assert got == oracle_field_csv(g, self.GRIDS[grid])

    def test_grids_reach_every_row_kind(self, solutions):
        def cells(name, grid):
            text = cli.field_csv(solutions[name], self.GRIDS[grid])
            return [line.split(",") for line in text.splitlines()[1:]]
        # singular rays, infinite vorticity, overflowed cells, signed zeros
        assert any(not any(c[2:]) for c in cells("cusp", "junctions"))
        assert any(c[8] == "" and all(c[2:8])
                   for c in cells("quad15", "junctions"))
        assert any(c[9] == "" for c in cells("ell5", "huge"))
        assert any("-0" in c[2:] for c in cells("ell5", "tiny"))

    @pytest.mark.parametrize("diagnostics", [True, False])
    @pytest.mark.parametrize("name", BUILDERS)
    def test_solution_json_bytes(self, solutions, name, diagnostics):
        g = solutions[name]
        want = oracle_emit(cli._solution_record(g, diagnostics)) + "\n"
        assert solution_to_json(g, diagnostics) == want

    @pytest.mark.parametrize("value", [
        np.array([1.0, math.nan, -0.0]),
        np.array([[0.5, -math.inf], [math.inf, 2.0]]),
        np.array([[1e-310, -0.0], [3.0, -2.5e300]]),
        np.empty(0), np.empty((0, 3)), np.empty((2, 0)),
        np.arange(3), np.ones(2, dtype=np.float32), np.ones((2, 1, 2)),
        {"profile": np.array([[1.0, math.nan]]), "n": [1, -0.0, None]},
    ], ids=["nan", "inf-2d", "finite-2d", "empty", "empty-rows",
            "empty-cols", "int", "float32", "3d", "nested"])
    def test_emit_bytes(self, value):
        assert cli._emit(value) == oracle_emit(value)

    @pytest.mark.parametrize("rows", [
        [(-0.0, 0.0, 1e-300), (1.0, math.inf, 0.0), (-2.5e300, -0.0, 3e-17)],
        [(0.0, -0.0, math.nan)], [],
    ], ids=["mixed", "nan", "empty"])
    def test_period_scan_rows_bytes(self, rows):
        keys = ("P", "T", "est_error")
        assert (cli._row_table(keys, rows)
                == oracle_emit([dict(zip(keys, row)) for row in rows]))

    def test_emit_literals(self):
        assert (cli._emit(np.array([[1.0, -0.0], [math.nan, 2.5]]))
                == "[[1, -0], [null, 2.5]]")
        assert cli._emit(np.array([0.1, math.inf])) == (
            "[0.10000000000000001, null]")
        assert cli._emit(np.empty((0, 3))) == "[]"


class TestStoredSolutionErrors:
    @pytest.mark.parametrize("argv", [["flux"],
                                      ["export-field", "--grid", "1:2:2:8"]],
                             ids=["flux", "export-field"])
    @pytest.mark.parametrize("missing", [True, False],
                             ids=["missing", "directory"])
    def test_unreadable_in_is_usage(self, capsys, tmp_path, argv, missing):
        path = str(tmp_path / "absent.json") if missing else str(tmp_path)
        rc, out, err = run(capsys, *argv, "--in", path)
        assert (rc, out) == (1, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert repr(path) in err

    @pytest.fixture(scope="class")
    def ell5_file(self, tmp_path_factory, solutions):
        path = tmp_path_factory.mktemp("ell5") / "ell5.json"
        path.write_text(solution_to_json(solutions["ell5"]))
        return str(path)

    @pytest.mark.parametrize("grid", ["1:1e100:2:8", "1:1e70:2:8"])
    def test_overflowing_radii_give_empty_cells(self, capsys, ell5_file,
                                                 grid):
        # lam = 5: r^4 overflows at r = 1e100 (math.pow raised), and the
        # stream, vorticity and pressure overflow at r = 1e70 (numpy warned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "export-field", "--in", ell5_file,
                               "--grid", grid)
        assert (rc, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 16
        assert all(all(c) for c in rows[:8])
        # x, y and psi_value stay; at 1e100 every other value is inf or nan
        empty = [4, 5, 7, 8, 9] if grid.startswith("1:1e100") else [7, 9]
        for c in rows[8:]:
            assert all(c[j] == "" for j in empty)
            assert all(c[j] for j in set(range(10)) - set(empty))
