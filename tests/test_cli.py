import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import eqmap
from eqmap import acceptance, cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_endpoints_gue(capsys):
    code, out, _ = run_cli(capsys, "endpoints", "--x", "1")
    assert code == 0
    data = json.loads(out)
    assert data["u"] == pytest.approx(0.0)
    assert data["z"] == pytest.approx(1.0)
    assert data["alpha_plus"] == pytest.approx(2.0)


def test_endpoints_with_inline_t(capsys):
    code, out, _ = run_cli(capsys, "endpoints", "--t", "4=0.01")
    data = json.loads(out)
    assert code == 0
    assert data["z"] == pytest.approx(0.9023021085818497, abs=1e-12)


def test_potential_file(tmp_path, capsys):
    f = tmp_path / "pot.json"
    f.write_text(json.dumps({"x": 1.0, "t": {"4": 0.01}}))
    code, out, _ = run_cli(capsys, "endpoints", "--potential", str(f))
    assert code == 0
    assert json.loads(out)["z"] == pytest.approx(0.9023021085818497, abs=1e-12)


def test_e1_monomial_flag(capsys):
    code, out, _ = run_cli(capsys, "e1", "--t", "4=0.01")
    assert code == 0
    assert json.loads(out)["e1"] == pytest.approx(-0.007767930066688, abs=1e-12)


def test_j_flag_is_gone(capsys):
    # a single valence is spelled --t J=V like any other potential
    with pytest.raises(SystemExit) as info:
        cli.main(["e1", "--j", "4", "--t", "0.01"])
    assert info.value.code == 2
    assert "unrecognized arguments: --j" in capsys.readouterr().err


def test_e1_series_output(capsys):
    code, out, _ = run_cli(capsys, "e1", "--t", "4=0.0", "--series", "2")
    data = json.loads(out)
    assert code == 0
    assert data["series"]["coefficients"]["1"] == pytest.approx(-1.0)
    assert data["series"]["coefficients"]["2"] == pytest.approx(30.0)


def test_census_json(capsys):
    code, out, _ = run_cli(capsys, "census", "--profile", "4:1")
    data = json.loads(out)
    assert code == 0
    assert data["profile"] == {"4": 1}
    assert {"genus": 0, "faces": 3, "count": 2} in data["entries"]
    assert {"genus": 1, "faces": 1, "count": 1} in data["entries"]


def test_census_refuses_a_repeated_valence(capsys):
    # 4:2,4:1 once printed the census of {4: 1}
    code, out, err = run_cli(capsys, "census", "--profile", "4:2,4:1")
    assert code == 1 and out == ""
    assert "'4:1'" in err and "repeats valence 4" in err


def test_census_refuses_a_part_that_is_not_j_colon_k(capsys):
    code, out, err = run_cli(capsys, "census", "--profile", "4")
    assert code == 1 and out == ""
    assert "'4'" in err and "J:K" in err


def test_census_reaches_past_sixteen_half_edges(capsys):
    code, out, err = run_cli(capsys, "census", "--profile", "3:6")
    data = json.loads(out)
    assert code == 0 and err == ""
    assert data["connected"] + data["disconnected"] == math.prod(range(1, 18, 2))


def test_census_refuses_a_walk_over_the_bound_in_one_line(capsys):
    code, out, err = run_cli(capsys, "census", "--profile", "18:1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "{18: 1} would take 43978689 steps" in err


def test_h_routes_agree(capsys):
    code, out, _ = run_cli(capsys, "h", "--t", "4=0.01")
    data = json.loads(out)
    assert code == 0
    assert data["max_route_difference"] < 1e-10
    assert "even" in data


def test_density_csv(capsys):
    code, out, _ = run_cli(capsys, "density", "--x", "1", "--format", "csv",
                           "--grid", "11")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lambda", "psi"]
    assert len(rows) == 12
    mid = rows[6]
    assert float(mid[1]) == pytest.approx(1 / 3.141592653589793, abs=1e-12)


def test_coeff_table_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--order", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "m", "c_phi", "c_psi"]
    entries = {(int(r[0]), int(r[1])): (r[2], r[3]) for r in rows[1:]}
    assert entries[(2, 2)] == ("-1/30", "-1/10")


def test_coeff_table_json_order_12(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--order", "12", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kmax"] == 12
    assert len(obj["entries"]) == 91  # sum of k + 1 over k = 0..12
    diag = {e["k"]: (e["c_phi"], e["c_psi"]) for e in obj["entries"] if e["m"] == e["k"] + 1}
    for k in range(13):
        want = str(Fraction(2 ** k, math.prod(range(1, 2 * k + 2, 2))))
        assert diag[k] == (want, want)
    assert diag[12] == ("4096/7905853580625", "4096/7905853580625")


def test_coeff_table_negative_order_exit_code(capsys):
    code, out, err = run_cli(capsys, "coeffs", "--order", "-1")
    assert code == 1 and out == ""
    assert "kmax" in err


def test_correlators_loop_residual(capsys):
    code, out, _ = run_cli(capsys, "correlators", "--t", "4=0.01", "--y", "3")
    data = json.loads(out)
    assert code == 0
    assert data["loop_residual"] < 1e-9


def test_variational_report(capsys):
    code, out, _ = run_cli(capsys, "variational", "--x", "1")
    data = json.loads(out)
    assert code == 0
    assert data["max_support_deviation"] < 1e-12
    assert "quad_nodes" not in data


@pytest.mark.parametrize("argv", [["variational", "--grid", "0"],
                                  ["variational", "--grid", "1"],
                                  ["variational", "--grid", "-3"],
                                  ["density", "--grid", "-1"]])
def test_bad_grid_is_named(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "grid" in err and "Traceback" not in err


@pytest.mark.parametrize("order", ["-2", "0"])
def test_bad_series_order_is_named(capsys, order):
    code, out, err = run_cli(capsys, "e1", "--t", "4=0.0", "--series", order)
    assert code == 1 and out == ""
    assert "--series" in err and "Traceback" not in err


@pytest.mark.parametrize("order", ["-2", "0"])
def test_bad_endpoint_order_is_named(capsys, order):
    code, out, err = run_cli(capsys, "endpoints", "--order", order)
    assert code == 1 and out == ""
    assert "--order" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, "endpoints", "--x", "1", "--out", str(dest))
    assert code == 0
    assert json.loads(dest.read_text())["z"] == pytest.approx(1.0)


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "endpoints", "--t", "4=-0.1")
    assert code == 1
    assert "one-cut" in err


def test_non_finite_t_exit_code(capsys):
    code, _, err = run_cli(capsys, "endpoints", "--t", "4=nan")
    assert code == 1
    assert "t4" in err


def test_bad_t_syntax_exit_code(capsys):
    code, _, err = run_cli(capsys, "endpoints", "--t", "nonsense")
    assert code == 1
    assert "error" in err


def test_verify_exit_codes(capsys, monkeypatch):
    # drive the verify plumbing with stub criteria; the real ones run in
    # test_acceptance
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [(1, "stub pass", lambda: (True, "ok"))])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "PASS" in out and "1/1" in out

    monkeypatch.setattr(acceptance, "CRITERIA",
                        [(1, "stub pass", lambda: (True, "ok")),
                         (2, "stub fail", lambda: (False, "broken"))])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 2
    assert "FAIL" in out and "1/2" in out


@pytest.mark.parametrize("argv", [["endpoints", "--t", "4=0.01"], ["census", "--profile", "4:2"]])
def test_endpoints_and_census_run_without_numpy(argv):
    # numpy is imported by the subcommands that build arrays, and not at start-up
    code = "import sys\nfrom eqmap import cli\nprint(cli.main(%r), 'numpy' in sys.modules)" % argv
    env = dict(os.environ, PYTHONPATH=str(Path(eqmap.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split()[-2:] == ["0", "False"]


def test_census_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "census", "--profile", "4:2")
    code2, out2, _ = run_cli(capsys, "census", "--profile", "4:2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_tol_flag_is_gone(capsys):
    # the Newton tolerance is fixed; --tol is an unknown option, not a knob
    # whose tight values end in a false continuation failure
    with pytest.raises(SystemExit) as info:
        cli.main(["density", "--t", "4=0.01", "--tol", "1e-20"])
    assert info.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_threads_flag_is_gone(capsys):
    # the census has one serial path; --threads is an unknown option
    with pytest.raises(SystemExit) as info:
        cli.main(["census", "--profile", "4:2", "--threads", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_json_numbers_are_python_floats(monkeypatch):
    # numpy scalars in the payload would reach the JSON as float subclasses
    leaves = []

    def walk(obj):
        if isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)
        else:
            leaves.append(obj)

    monkeypatch.setattr(cli, "_emit", lambda args, obj, **kwargs: walk(obj))
    for argv in (["endpoints", "--t", "3=0.01", "--t", "4=0.02"],
                 ["h", "--t", "3=0.01", "--t", "4=0.02"],
                 ["e1", "--t", "3=0.01", "--t", "4=0.02", "--series", "2"],
                 ["density", "--t", "4=0.01"],
                 ["variational", "--t", "4=0.01"],
                 ["correlators", "--t", "4=0.01", "--y", "3+1j"]):
        assert cli.main(argv) == 0
    assert leaves
    assert {type(v) for v in leaves} <= {float, int, str}


@pytest.mark.parametrize("y", ["nan", "inf", "-inf", "nan+1j"])
def test_correlators_refuse_a_non_finite_point(capsys, y):
    # the NaN tokens this used to write are not JSON
    code, out, err = run_cli(capsys, "correlators", "--t", "4=0.01", "--y=" + y)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "y must be finite" in err and "Traceback" not in err


def test_json_output_refuses_nan(capsys, monkeypatch):
    # whatever a subcommand computes, a NaN never reaches its JSON with exit 0
    from eqmap.genfun import E1Result

    nan = E1Result(*[math.nan] * len(dataclasses.fields(E1Result)))
    monkeypatch.setattr(cli, "e1_value", lambda pot: nan)
    code, out, err = run_cli(capsys, "e1", "--t", "4=0.01")
    assert code == 1 and out == "" and err.startswith("error: ")


def test_repeated_valence_is_refused(capsys, tmp_path):
    # one of two values for t4 used to be dropped without a word
    code, out, err = run_cli(capsys, "e1", "--t", "4=0.01", "--t", "4=0.02")
    assert code == 1 and out == "" and "--t names valence 4 twice" in err
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"x": 1.0, "t": {"4": 0.01, "04": 0.02}}))
    code, out, err = run_cli(capsys, "e1", "--potential", str(path))
    assert code == 1 and out == "" and "names valence 4 twice" in err and "pot.json" in err
