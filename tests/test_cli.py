"""End-to-end CLI tests: exit codes, output formats, file round trips.

Everything runs in process through main(argv) so coverage tools see it and
failures carry normal tracebacks.
"""

import json
import math

import numpy as np
import pytest

from homoeuler import assemble, classify, cli
from homoeuler.cli import (
    FIELD_COLUMNS,
    main,
    parse_solution,
    serialize_solution,
    solution_to_json,
)

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

    def test_multiple_b_values(self, capsys):
        rc, out, _ = run(capsys, "phase-portrait", "--lambda", "2",
                         "--pressure", "-1", "--b-values", "1,2")
        assert rc == 0
        bs = {line.split(",")[0] for line in out.strip().split("\n")[1:]}
        assert bs == {"1", "2"}


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
        # lam = 0.02 is conjugated to lam = 50, B = -2P/lam^4 = 1.25e306, and
        # |B|^50 overflows in the unit-B rescaling; at tiny |P| it underflows
        (["period-scan", "--lambda", "0.02", "--region", "hyperbolic",
          "--b-sign", "plus", "--p-min=-1e300", "--p-max=-1e299",
          "--n-points", "3"], "lam=50.0, P=-3125000.0, B=1.25e+306",
         "overflows"),
        (["period-scan", "--lambda", "0.02", "--region", "hyperbolic",
          "--b-sign", "plus", "--p-min=-1e-299", "--p-max=-1e-300",
          "--n-points", "3"], "lam=50.0, P=-3125000.0, B=1.25e-293",
         "underflows"),
    ])
    def test_out_of_range_power_is_domain_error(self, capsys, argv, params,
                                                flow):
        # these used to end in an OverflowError or ZeroDivisionError traceback
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert "domain error" in err
        assert params in err and f"{flow} a double" in err

    @pytest.mark.parametrize("argv,rc_want,parts", [
        # the radicand is nan (-inf + inf) along the whole up-scan
        (["phase-portrait", "--lambda", "1.5", "--pressure",
          "1.7735943027886556", "--b-values", "8.942593947789929e+262"], 2,
         ("turning points of lam=1.5, P=1.7735943027886556,"
          " B=8.942593947789929e+262: no sign change found scanning up from"
          " 3.904988901757974e+196",)),
        # next to the centre the quadrature misses 1e-9 (ROADMAP item 5)
        (["period-scan", "--lambda", "5", "--p-min", "1e-12", "--p-max",
          "1.0485759e-07", "--n-points", "2"], 3,
         ("quadrature at lam=5.0, P=1.0485759e-07, B=1.0: error estimate",
          "misses the 1e-9 target")),
        # P_max underflows to 0 at lam = 100 (ROADMAP item 3)
        (["construct", "--lambda", "100", "--elliptic-n", "3"], 3,
         ("pressure bisection at lam = 100.0, n = 3 exhausted 200"
          " iterations",)),
    ])
    def test_solver_failures_name_their_inputs(self, capsys, argv, rc_want,
                                               parts):
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
