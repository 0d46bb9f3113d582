"""The three workloads: the CLI calls of one unit and the gate on their outputs.

A unit is a fixed set of CLI calls that one fresh worker runs.  Its inputs
come from the benchmark seed and the unit's index, so every unit of a run
gets inputs of its own.  `complex --degree 7 --derive elasticity` takes no
input but its degree, so its units repeat one call, each in a new process.

- verify_all: `verify --suite all --degree 5 --trials 2`, the command users
  run most.  It reaches every layer through the suites and rebuilds the same
  coupled complex at least four times, so it is the only workload where
  sharing work across checks can show.  For failure accounting an op is one
  suite check; its latency is that of the CLI call, because the per-check
  times cluster so that their median falls into a gap between clusters.
- complex_derive: the Schur derivation of the elasticity complex at degree
  7.  Operator-matrix assembly, exact rank and the block solve take most of
  its time; its Poly3 work is millions of operations on one-hot monomials.
  An op is one CLI call.
- field_jobs: a hundred independent reconstruct, linearize and ricci calls
  on dense fields of degree 2 to 4, read from and written to files.  It does
  no complex or exactlin work, so a change to those layers should leave it
  unchanged, while dense Poly3 products, jets and field I/O dominate it.  An
  op is one CLI call.

Every op is checked exactly.  Digests in expected.json were frozen from the
program for seed 0 (see freeze.py): the verify report body, the complex
report and every field_jobs output, be it a file or ricci's stdout.  For
other seeds, and for units beyond those frozen, only the exact invariants
apply.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from strainkit import fieldio
from strainkit.calculus import curl_curl, sym_grad
from strainkit.connection import normalize_rigid
from strainkit.fields import SymField, random_field, random_point

EXPECTED_PATH = Path(__file__).with_name("expected.json")
DEFAULT_SEED = 0  # the seed whose outputs expected.json holds digests of

VERIFY_DEGREE = 5
COMPLEX_DEGREE = 7
# Job kinds of one field_jobs unit and how many of each.
FIELD_MIX = (("reconstruct", 40), ("incompatible", 10), ("linearize", 25),
             ("ricci", 25))
FIELD_DEGREES = (2, 3, 4)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fp:
        return json.load(fp)


def digest(data: bytes | str) -> str:
    """First 16 hex digits of the SHA-256 of data."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def verify_body_digest(report: dict) -> str:
    """Digest of a verify --json report with the elapsed fields stripped."""
    body = dict(report)
    body["checks"] = [{k: v for k, v in check.items() if k != "elapsed"}
                      for check in report["checks"]]
    return digest(json.dumps(body, sort_keys=True, separators=(",", ":")))


@dataclass
class Outcome:
    """What the gate found in one unit."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # Whether the outputs were also compared with digests from expected.json.
    frozen: bool = False
    # CPU time of each CLI call; the runner converts it to reference time.
    op_cpu_ms: list[float] = field(default_factory=list)
    suite_elapsed: dict[str, float] = field(default_factory=dict)


@dataclass
class Unit:
    ops: list[dict]
    check: Callable[[dict], Outcome]


def _call_problem(record: dict, expected_rc: int) -> str | None:
    """Why a CLI call did not end as expected, or None."""
    if record["error"] is not None:
        return "raised " + record["error"]
    if record["exit"] is not None:
        return f"SystemExit {record['exit']}: {record['stderr'].strip()[-300:]}"
    if record["rc"] != expected_rc:
        return (f"exit code {record['rc']}, expected {expected_rc}: "
                f"{record['stderr'].strip()[-300:]}")
    return None


# -- verify_all ----------------------------------------------------------------

def verify_unit(work: Path, seed: int, k: int, expected: dict,
                corrupt: str | None = None) -> Unit:
    report_path = work / "verify.json"
    argv = ["verify", "--suite", "all", "--degree", str(VERIFY_DEGREE),
            "--trials", "2", "--seed", str(seed * 1000 + k),
            "--json", str(report_path)]
    if corrupt is not None:
        argv += ["--corrupt", corrupt]
    names = expected["verify_all"]["checks"]
    digests = expected["verify_all"]["body_digests"] if seed == DEFAULT_SEED else []

    def check(result: dict) -> Outcome:
        record = result["ops"][0]
        out = Outcome(attempted=len(names), op_cpu_ms=[1000 * record["cpu_s"]],
                      frozen=k < len(digests))
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            checks = {c["name"]: c for c in report["checks"]}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = _call_problem(record, 0) or f"unreadable report: {exc}"
            out.failures = [f"{name}: {problem}" for name in names]
            return out
        failed = [name for name in names
                  if checks.get(name, {}).get("status") != "pass"
                  or checks[name].get("residual") != "0"]
        problem = _call_problem(record, 1 if failed else 0)
        if problem is None and set(checks) != set(names):
            problem = f"the report's checks differ from the expected {len(names)}"
        if problem is None and not failed and k < len(digests) \
                and verify_body_digest(report) != digests[k]:
            problem = "report body differs from the frozen digest"
        if problem is not None:
            failed = names  # the report as a whole is wrong
        out.failures = [f"{name}: {problem or checks[name].get('residual')}"
                        for name in failed]
        for name, c in checks.items():
            suite, elapsed = name.split(".")[0], c.get("elapsed", 0.0)
            out.suite_elapsed[suite] = out.suite_elapsed.get(suite, 0.0) + elapsed
            if suite == "complex":
                out.suite_elapsed[name] = elapsed
        return out

    return Unit(ops=[{"id": f"u{k}", "argv": argv}], check=check)


# -- complex_derive ------------------------------------------------------------

def complex_report_problem(report_bytes: bytes) -> str | None:
    """Exact invariants of a `complex --derive elasticity` report."""
    report = json.loads(report_bytes)
    if report["stage_factors"] != ["1", "1", "1"]:
        return f"stage factors {report['stage_factors']}"
    if not report["defects_preserved"]:
        return "exactness defects changed under reduction"
    for part in ("full", "reduced"):
        if any(r != "0" for r in report[part]["composition_residuals"]):
            return f"{part}: nonzero composition"
        if any(report[part]["exactness_defects"]):
            return f"{part}: exactness defects {report[part]['exactness_defects']}"
    return None


def complex_unit(work: Path, seed: int, k: int, expected: dict) -> Unit:
    report_path = work / "complex.json"
    argv = ["complex", "--degree", str(COMPLEX_DEGREE), "--derive", "elasticity",
            "--report", str(report_path)]
    frozen = expected["complex_derive"]["report_digest"]

    def check(result: dict) -> Outcome:
        record = result["ops"][0]
        out = Outcome(attempted=1, op_cpu_ms=[1000 * record["cpu_s"]],
                      frozen=frozen is not None)
        problem = _call_problem(record, 0)
        if problem is None:
            try:
                data = report_path.read_bytes()
                problem = complex_report_problem(data)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable report: {exc}"
        if problem is None and frozen is not None and digest(data) != frozen:
            problem = "report differs from the frozen digest"
        if problem is not None:
            out.failures.append(f"complex u{k}: {problem}")
        return out

    return Unit(ops=[{"id": f"u{k}", "argv": argv}], check=check)


# -- field_jobs ----------------------------------------------------------------

def field_plan() -> list[tuple[str, int]]:
    """(kind, degree) of every job of a unit, in a fixed interleaved order."""
    jobs = []
    for kind, count in FIELD_MIX:
        jobs.extend((kind, FIELD_DEGREES[i % len(FIELD_DEGREES)]) for i in range(count))
    random.Random(0).shuffle(jobs)
    return jobs


def _det3(m) -> Fraction:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _inverse3(m):
    det = _det3(m)
    return [[(m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
              - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]) / det
             for j in range(3)] for i in range(3)]


def _metric_at(metric: SymField, point) -> list[list[Fraction]]:
    return [[metric.entry(i, j).evaluate(point) for j in (1, 2, 3)] for i in (1, 2, 3)]


def _parse_matrix(text: str) -> list[list[Fraction]]:
    rows = text.strip()[2:-2].split("], [")
    return [[Fraction(v) for v in row.split(", ")] for row in rows]


def ricci_problem(stdout: str, point, g) -> str | None:
    """Exact invariants of `ricci` output for the metric g at the point."""
    lines = stdout.splitlines()
    if len(lines) != 4:
        return f"expected 4 output lines, got {len(lines)}"
    want_point = "point: (" + ", ".join(str(c) for c in point) + ")"
    if lines[0] != want_point:
        return f"printed {lines[0]!r}, expected {want_point!r}"
    try:
        ricci = _parse_matrix(lines[1].removeprefix("ricci: "))
        scalar = Fraction(lines[2].removeprefix("scalar: "))
        einstein = _parse_matrix(lines[3].removeprefix("einstein: "))
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        return f"unparseable output: {exc}"
    ginv = _inverse3(g)
    if any(ricci[i][j] != ricci[j][i] for i in range(3) for j in range(3)):
        return "ricci is not symmetric"
    if scalar != sum(ginv[i][j] * ricci[i][j] for i in range(3) for j in range(3)):
        return "scalar is not the trace of ricci"
    if any(einstein[i][j] != scalar * g[i][j] - 2 * ricci[i][j]
           for i in range(3) for j in range(3)):
        return "einstein differs from R g - 2 Ric"
    return None


def field_unit(work: Path, seed: int, k: int, expected: dict,
               tamper: int | None = None) -> Unit:
    """Write the unit's input files and expected outputs, before any timing.

    tamper names a job whose expected output is altered, so that the gate
    must count that op as failed.
    """
    frozen = expected["field_jobs"]["output_digests"] if seed == DEFAULT_SEED else []
    frozen = frozen[k] if k < len(frozen) else {}
    ops, checks = [], []
    for j, (kind, degree) in enumerate(field_plan()):
        job_seed = (seed * 1000 + k) * 1000 + j
        src, dst = work / f"j{j}_in.json", work / f"j{j}_out.json"
        want = {"rc": 0, "out": None, "point": None, "g": None,
                "digest": frozen.get(str(j))}
        if kind == "reconstruct":
            u = random_field("vec", degree + 1, job_seed)
            data = sym_grad(u)
            want["out"] = fieldio.dumps(normalize_rigid(u)) + "\n"
            argv = ["reconstruct", "--input", str(src), "--output", str(dst),
                    "--normalize", "--verify-output"]
        elif kind == "incompatible":
            data = random_field("sym", degree, job_seed)
            while curl_curl(data).is_zero():
                job_seed += 1_000_003
                data = random_field("sym", degree, job_seed)
            want["rc"] = 2
            argv = ["reconstruct", "--input", str(src), "--output", str(dst)]
        elif kind == "linearize":
            data = random_field("sym", degree, job_seed)
            want["out"] = fieldio.dumps(curl_curl(data)) + "\n"
            argv = ["linearize", "--input", str(src), "--output", str(dst), "--check"]
        else:
            while True:
                data = SymField.identity() + random_field("sym", degree, job_seed)
                point = random_point(job_seed)
                g = _metric_at(data, point)
                if _det3(g) != 0:
                    break
                job_seed += 1_000_003
            want.update(point=point, g=g)
            argv = ["ricci", "--metric", str(src),
                    "--point=" + ",".join(str(c) for c in point)]
        src.write_text(fieldio.dumps(data) + "\n", encoding="utf-8")
        if j == tamper:
            if want["out"] is not None:
                want["out"] = want["out"].replace("1", "2", 1)
            elif want["digest"] is not None:
                want["digest"] = digest("tampered")
            else:
                want["rc"] = 0 if want["rc"] else 2
        ops.append({"id": f"u{k}.j{j}", "argv": argv})
        checks.append((kind, dst, want))

    def check(result: dict) -> Outcome:
        out = Outcome(attempted=len(ops), frozen=bool(frozen))
        for j, ((kind, dst, want), record) in enumerate(zip(checks, result["ops"])):
            out.op_cpu_ms.append(1000 * record["cpu_s"])
            problem = _call_problem(record, want["rc"])
            got = record["stdout"]
            if problem is None and want["out"] is not None:
                try:
                    got = dst.read_text(encoding="utf-8")
                except OSError as exc:
                    got = f"missing output: {exc}"
                if got != want["out"]:
                    problem = "output file differs from the exact expected field"
            elif problem is None and kind == "incompatible" and dst.exists():
                problem = "an output file was written for an incompatible strain"
            elif problem is None and kind == "ricci":
                problem = ricci_problem(record["stdout"], want["point"], want["g"])
            if problem is None and want["digest"] is not None \
                    and digest(got) != want["digest"]:
                problem = "output differs from the frozen digest"
            if problem is not None:
                out.failures.append(f"u{k}.j{j} {kind}: {problem}")
        return out

    return Unit(ops=ops, check=check)


WORKLOADS = {"verify_all": verify_unit, "complex_derive": complex_unit,
            "field_jobs": field_unit}
