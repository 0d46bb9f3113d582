"""End-to-end tests of the command-line interface (in-process)."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from strainkit import cli, fieldio
from strainkit.calculus import curl_curl, sym_grad
from strainkit.cli import main
from strainkit.fields import SymField, VecField, random_field
from strainkit.poly import X1, X3, Poly3
from strainkit.suites import residual_text


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


@pytest.mark.parametrize("name", ["nosuch.check", "complex.lambda2_split"])
def test_verify_rejects_a_corrupt_name_outside_the_suite(name, capsys):
    # A name the suite does not run would force no failure and exit 0.
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "calculus", "--trials", "1", "--corrupt", name])
    assert info.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument --corrupt: {name!r} is not a check of suite 'calculus'"
            in captured.err)
    assert "Traceback" not in captured.err


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


def test_reconstruct_reports_a_half_integer_residual_unscaled(tmp_path, capsys):
    """The route works on the integer numerators 2 sigma; the reported
    residual is still curl_curl(sigma) itself, byte for byte."""
    strain = _write(
        SymField.unit(1, 1, Poly3({(0, 2, 0): Fraction(1, 2), (1, 0, 1): Fraction(3, 2)}))
        + SymField.unit(2, 3, Poly3({(1, 1, 0): Fraction(-1, 2), (2, 0, 0): Fraction(5, 2)})),
        tmp_path / "strain.json")
    rc = main(["reconstruct", "--input", strain,
               "--output", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("strain is not compatible; curl curl residual:\n"
                            "[13] -1/2; [23] -5; [33] 1\n")


def test_reconstruct_verify_output_reports_the_residual(tmp_path, capsys, monkeypatch):
    sigma = sym_grad(_bent_rod())
    wrong = _bent_rod() + VecField.of(Poly3(), Fraction(1, 3) * X1 * X3, X1)
    monkeypatch.setattr(cli, "saint_venant_reconstruct", lambda s: wrong)
    rc = main(["reconstruct", "--input", _write(sigma, tmp_path / "strain.json"),
               "--output", str(tmp_path / "x.json"), "--verify-output"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "round trip verified" not in captured.out
    assert captured.err == ("round trip failed; residual: "
                            + residual_text(sym_grad(wrong) - sigma) + "\n")


def test_round_trip_check_on_numerators_matches_sym_grad():
    for seed in range(6):
        u = random_field("vec", 3, seed).scaled(Fraction(1, seed + 1))
        for bump in (SymField.zero(), SymField.unit(2, 3, Fraction(1, 7)),
                     random_field("sym", 2, seed).scaled(Fraction(2, 3))):
            sigma = sym_grad(u) + bump
            assert cli._sym_grad_is(u, sigma) is bump.is_zero()
            assert (sym_grad(u) == sigma) is bump.is_zero()


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


# More digits than CPython's int() converts by default (4300).
_LONG = "1" + "0" * 4999
_OVERSIZED = {
    "coefficient": json.dumps({"kind": "sym", "components": {
        "11": [{"exp": [0, 0, 0], "coef": _LONG}]}}),
    "denominator": json.dumps({"kind": "sym", "components": {
        "11": [{"exp": [0, 0, 0], "coef": "1/" + _LONG}]}}),
    "json number": ('{"kind": "sym", "components": {"11": [{"exp": [' + _LONG
                    + ', 0, 0], "coef": "1"}]}}'),
}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no integer string-conversion limit")
@pytest.mark.parametrize("case", sorted(_OVERSIZED))
@pytest.mark.parametrize("command", ["reconstruct", "linearize", "ricci"])
def test_oversized_number_is_a_parse_error(tmp_path, capsys, command, case):
    path = tmp_path / "big.json"
    path.write_text(_OVERSIZED[case])
    out = tmp_path / "x.json"
    if command == "ricci":
        argv = ["ricci", "--metric", str(path), "--point", "0,0,0"]
    else:
        argv = [command, "--input", str(path), "--output", str(out)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 65
    assert captured.err.startswith("input error:")
    assert "0" * 100 not in captured.err
    assert captured.out == ""
    assert not out.exists()


# Files that never become a JSON document, with the message each one gets.
_UNREADABLE = {
    "not UTF-8": (b"\xff\xfe\x00{",
                  "input error: file is not UTF-8 text: invalid start byte at byte 0\n"),
    "nested arrays": (b"[" * 200_000,
                      "input error: invalid JSON: arrays or objects nested too deeply\n"),
    "nested objects": (b'{"kind": "sym", "components": ' + b'{"11": ' * 100_000,
                       "input error: invalid JSON: arrays or objects nested too deeply\n"),
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE))
@pytest.mark.parametrize("command", ["reconstruct", "linearize", "ricci"])
def test_unreadable_file_is_a_parse_error(tmp_path, capsys, command, case):
    data, message = _UNREADABLE[case]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    out = tmp_path / "x.json"
    if command == "ricci":
        argv = ["ricci", "--metric", str(path), "--point", "0,0,0"]
    else:
        argv = [command, "--input", str(path), "--output", str(out)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 65
    assert captured.err == message
    assert captured.out == ""
    assert not out.exists()


# A 200 000-character value that is not what the format allows, in three places.
_JUNK = "x" * 200_000
_LONG_BAD = {
    "coefficient": {"kind": "sym", "components": {"11": [{"exp": [0, 0, 0], "coef": _JUNK}]}},
    "exponent": {"kind": "sym", "components": {"11": [{"exp": [_JUNK, 0, 0], "coef": "1"}]}},
    "kind": {"kind": _JUNK, "components": {}},
}


@pytest.mark.parametrize("case", sorted(_LONG_BAD))
def test_long_bad_value_is_echoed_briefly(tmp_path, capsys, case):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps(_LONG_BAD[case]))
    out = tmp_path / "x.json"
    rc = main(["linearize", "--input", str(path), "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 65
    assert captured.err.startswith("input error:")
    assert len(captured.err.encode()) < 1024
    assert "characters)" in captured.err
    assert not out.exists()


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


def _run_python(code: str) -> list[str]:
    """stdout lines of a fresh interpreter that runs `code` with this
    strainkit first on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return proc.stdout.splitlines()


_PRINT_MODULES = "\nimport sys; print(*sys.modules)"
_STARTUP = "import strainkit.cli; strainkit.cli.build_parser()"


def test_startup_imports_no_dataclasses_inspect_or_hashlib():
    """What a CLI call imports before its first op, beyond the stdlib modules
    the CLI needs anyway; the baseline absorbs what each Python version's
    stdlib imports by itself."""
    baseline = set(_run_python("import argparse, functools, json, fractions"
                               + _PRINT_MODULES)[0].split())
    added = set(_run_python(_STARTUP + _PRINT_MODULES)[0].split()) - baseline
    assert "strainkit.cli" in added
    assert not added & {"dataclasses", "inspect", "hashlib"}


def test_verify_imports_hashlib_when_it_draws():
    lines = _run_python(
        _STARTUP + "\nimport sys; print('hashlib' in sys.modules)"
        "\nrc = strainkit.cli.main(['verify', '--suite', 'calculus', '--degree', '2',"
        " '--trials', '1'])\nprint('hashlib' in sys.modules, rc)")
    assert lines[0] == "False"
    assert lines[-2].endswith("checks passed (suite=calculus, degree=2, trials=1, seed=0)")
    assert lines[-1] == "True 0"


def test_console_module_reports_version():
    proc = subprocess.run([sys.executable, "-m", "strainkit.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
