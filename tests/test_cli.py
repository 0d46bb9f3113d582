"""End-to-end tests of the command-line interface (in-process)."""

import json
import subprocess
import sys

import pytest

from strainkit import cli, fieldio
from strainkit.calculus import curl_curl, sym_grad
from strainkit.cli import main
from strainkit.fields import SymField, VecField
from strainkit.poly import Poly3


def _write(field, path) -> str:
    with open(path, "w", encoding="utf-8") as fp:
        fieldio.save(field, fp)
    return str(path)


def _read(path, kind):
    with open(path, "r", encoding="utf-8") as fp:
        return fieldio.load(fp, expect_kind=kind)


def _bent_rod() -> VecField:
    return VecField((Poly3.monomial((0, 2, 0)), Poly3(), Poly3()))


def _incompatible_strain() -> SymField:
    return SymField.unit(1, 1, Poly3.monomial((0, 2, 0)))


def _example_metric() -> SymField:
    one = Poly3.constant(1)
    return (SymField.unit(1, 1, one) + SymField.unit(2, 2, one)
            + SymField.unit(3, 3, one + Poly3.monomial((2, 0, 0))))


# -- verify -------------------------------------------------------------------


def test_verify_single_suite_passes(capsys):
    assert main(["verify", "--suite", "calculus", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS calculus.") for line in lines[:-1])
    assert lines[-1] == ("13/13 checks passed "
                         "(suite=calculus, degree=3, trials=1, seed=0)")


def test_verify_all_suites_pass(capsys):
    assert main(["verify", "--trials", "1", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "38/38 checks passed (suite=all, degree=3, trials=1, seed=7)" in out


def test_verify_json_report_is_deterministic(tmp_path, capsys):
    args = ["verify", "--suite", "connection", "--trials", "1", "--seed", "3"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--json", str(first)]) == 0
    assert main(args + ["--json", str(second)]) == 0
    capsys.readouterr()

    reports = []
    for path in (first, second):
        data = json.loads(path.read_text(encoding="utf-8"))
        assert set(data) == {"suite", "degree", "trials", "seed", "passed",
                             "checks"}
        assert data["passed"] is True
        for check in data["checks"]:
            assert check["status"] == "pass" and check["residual"] == "0"
            check.pop("elapsed")
        reports.append(data)
    assert reports[0] == reports[1]


def test_verify_corruption_hook_fails_one_check(capsys):
    rc = main(["verify", "--suite", "calculus", "--trials", "1",
               "--corrupt", "calculus.curl_of_grad"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL calculus.curl_of_grad" in out
    assert "forced by the corruption hook" in out
    assert "12/13 checks passed" in out


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "bogus"])
    assert info.value.code == 64


# -- reconstruct --------------------------------------------------------------


def test_reconstruct_round_trip(tmp_path, capsys):
    rod = _bent_rod()
    strain = _write(sym_grad(rod), tmp_path / "strain.json")
    out_path = tmp_path / "displacement.json"
    rc = main(["reconstruct", "--input", strain, "--output", str(out_path),
               "--normalize", "--verify-output"])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"wrote displacement field to {out_path}" in out
    assert "round trip verified" in out
    assert _read(out_path, "vec") == rod


def test_reconstruct_rejects_incompatible_strain(tmp_path, capsys):
    strain = _write(_incompatible_strain(), tmp_path / "strain.json")
    rc = main(["reconstruct", "--input", strain,
               "--output", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "strain is not compatible" in captured.err
    assert "[33] 2" in captured.err
    assert not (tmp_path / "x.json").exists()


def test_reconstruct_rejects_wrong_field_kind(tmp_path, capsys):
    path = _write(_bent_rod(), tmp_path / "vec.json")
    rc = main(["reconstruct", "--input", path,
               "--output", str(tmp_path / "x.json")])
    assert rc == 65
    assert "input error:" in capsys.readouterr().err


def test_reconstruct_rejects_boolean_exponent(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"kind": "sym", "components": '
                    '{"11": [{"exp": [true, 0, false], "coef": "1"}]}}')
    rc = main(["reconstruct", "--input", str(path),
               "--output", str(tmp_path / "x.json")])
    assert rc == 65
    assert "bad exponent" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("kind", [["sym"], {"sym": 1}])
def test_reconstruct_rejects_unhashable_kind(tmp_path, capsys, kind):
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({"kind": kind, "components": {}}))
    rc = main(["reconstruct", "--input", str(path),
               "--output", str(tmp_path / "x.json")])
    assert rc == 65
    assert "unknown field kind" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


# -- linearize ----------------------------------------------------------------


def test_linearize_writes_compatibility_tensor(tmp_path, capsys):
    sigma = _incompatible_strain()
    strain = _write(sigma, tmp_path / "strain.json")
    out_path = tmp_path / "einstein.json"
    rc = main(["linearize", "--input", strain, "--output", str(out_path),
               "--check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "check passed" in out
    written = _read(out_path, "sym")
    assert written == curl_curl(sigma)
    assert written.entry(3, 3) == Poly3.constant(2)


# -- complex ------------------------------------------------------------------


def test_complex_reports_exactness(capsys):
    assert main(["complex"]) == 0
    out = capsys.readouterr().out
    assert out.count("exactness defects: 0, 0") == 3
    assert "dimensions: 105 -> 120 -> 24 -> 3" in out
    assert "dimensions: 165 -> 270 -> 126 -> 15" in out


def test_complex_halfway_shape(capsys):
    assert main(["complex", "--derive", "halfway"]) == 0
    out = capsys.readouterr().out
    assert "components per point: 6 -> 9 -> 9 -> 6" in out
    assert "dimensions: 165 -> 180 -> 36 -> 15" in out


def test_complex_derivation_report(tmp_path, capsys):
    report = tmp_path / "derivation.json"
    rc = main(["complex", "--derive", "elasticity", "--report", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "stage proportionality factors vs hand-coded operators: 1, 1, 1" in out
    assert "reduced dimensions: 105 -> 120 -> 24 -> 3" in out
    data = json.loads(report.read_text(encoding="utf-8"))
    assert data["stage_factors"] == ["1", "1", "1"]
    assert data["defects_preserved"] is True
    assert data["reduced"]["exactness_defects"] == [0, 0]


def test_complex_rejects_low_degree():
    with pytest.raises(SystemExit) as info:
        main(["complex", "--degree", "2"])
    assert info.value.code == 64


@pytest.mark.parametrize("flags", [
    ["--degree", "0"], ["--degree", "-3"], ["--trials", "0"], ["--trials", "-1"],
    ["--degree", "two"], ["--trials", "1.5"],
])
def test_verify_rejects_bad_degree_and_trials(flags, capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "calculus"] + flags)
    assert info.value.code == 64
    err = capsys.readouterr().err
    assert f"argument {flags[0]}:" in err
    assert "Traceback" not in err


def test_verify_accepts_smallest_degree_and_trials(capsys):
    assert main(["verify", "--suite", "calculus", "--degree", "1", "--trials", "1"]) == 0
    assert "(suite=calculus, degree=1, trials=1, seed=0)" in capsys.readouterr().out


# -- ricci --------------------------------------------------------------------


def test_ricci_example_metric(tmp_path, capsys):
    metric = _write(_example_metric(), tmp_path / "metric.json")
    assert main(["ricci", "--metric", metric, "--point", "0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "point: (0, 0, 0)" in out
    assert "ricci: [[1, 0, 0], [0, 0, 0], [0, 0, 1]]" in out
    assert "scalar: 2" in out
    assert "einstein: [[0, 0, 0], [0, 2, 0], [0, 0, 0]]" in out


def test_ricci_rejects_singular_metric(tmp_path, capsys):
    x1 = Poly3.monomial((1, 0, 0))
    singular = (SymField.unit(1, 1, x1) + SymField.unit(2, 2, x1)
                + SymField.unit(3, 3, x1))
    metric = _write(singular, tmp_path / "metric.json")
    rc = main(["ricci", "--metric", metric, "--point", "0,0,0"])
    assert rc == 2
    assert "precondition failed:" in capsys.readouterr().err


def test_ricci_singular_metric_prints_one_precondition_line(tmp_path, capsys):
    x1 = Poly3.monomial((1, 0, 0))
    metric = _write(SymField.unit(1, 1, x1) + SymField.unit(2, 2, x1)
                    + SymField.unit(3, 3, x1), tmp_path / "metric.json")
    assert main(["ricci", "--metric", metric, "--point", "0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "precondition failed: metric is singular at the evaluation point\n"
    assert captured.out == ""


def test_ricci_rejects_malformed_point(tmp_path):
    metric = _write(_example_metric(), tmp_path / "metric.json")
    for bad in ("1,2", "1,2,3,4", "1,two,3"):
        with pytest.raises(SystemExit) as info:
            main(["ricci", "--metric", metric, "--point", bad])
        assert info.value.code == 64


# -- parser -------------------------------------------------------------------


def test_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    parser = cli.build_parser()
    seen = []
    parse_args = type(parser).parse_args

    def recording(self, *args, **kwargs):
        seen.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(type(parser), "parse_args", recording)
    assert main(["complex", "--degree", "3"]) == 0
    assert "complex grad_curl_div(d=3)" in capsys.readouterr().out
    metric = _write(_example_metric(), tmp_path / "metric.json")
    assert main(["ricci", "--metric", metric, "--point", "0,0,0"]) == 0
    assert "scalar: 2" in capsys.readouterr().out
    assert seen == [parser, parser]


# -- error plumbing -----------------------------------------------------------


def test_missing_input_file_is_a_parse_error(tmp_path, capsys):
    rc = main(["reconstruct", "--input", str(tmp_path / "absent.json"),
               "--output", str(tmp_path / "x.json")])
    assert rc == 65
    assert "input error:" in capsys.readouterr().err


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc = main(["reconstruct", "--input", str(path),
               "--output", str(tmp_path / "x.json")])
    assert rc == 65
    assert "input error:" in capsys.readouterr().err


def test_missing_argument_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["reconstruct", "--input", "whatever.json"])
    assert info.value.code == 64


def test_console_module_reports_version():
    proc = subprocess.run([sys.executable, "-m", "strainkit.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
