"""strainkit benchmark: three CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
`src/`.  Workloads are `verify_all`, `complex_derive` and `field_jobs`
(see workloads.py for what each one stresses and why).

A run repeats one fixed unit of work of the workload, each unit in a fresh
worker interpreter that calls `strainkit.cli.main(argv)` in-process, so no
cache lives longer than the unit.  It starts a new unit while the median
unit time still fits into `--seconds`, and always runs at least one.

Times are given in reference seconds, measured with a speed gauge (see
`Gauge`).  On a shared host the CPU time of one and the same unit swings by
up to a factor of two within a minute, as other tenants load the core, and
a fixed round of work timed just before and after a unit does not follow
those swings.  So the runner pins itself and its workers to one CPU, and a
thread of the runner keeps timing a fixed round of stdlib-only work there.
The worker and the gauge take turns on that CPU every few milliseconds, so
both see the same slowdown.  A worker's CPU time, divided by the gauge's
mean CPU time per round over the same interval and multiplied by the
round's cost on an uncontended core, is the time the work would take on
that core.  The raw wall times are printed on a `#` line.

With `--trace 0` the last line reports the end-to-end metrics:

- setup_s: a fresh interpreter until the first op can start (import and
  parser, with bytecode cached); the median over five probe interpreters
  and every unit's worker
- wall_s: median time of one unit's ops, in reference seconds: the wall
  time the ops would take alone on an uncontended core
- op_p50_ms, op_p90_ms: percentiles over the CLI calls of the run.  Only
  field_jobs makes enough calls for ten to lie beyond the 90th percentile;
  on the other workloads op_p90_ms is close to the slowest call.
- peak_rss_mb: median `ru_maxrss` of the unit workers
- ops_ok_frac: 1 - ops_failed_frac, where an op is one suite check for
  verify_all and one CLI call otherwise.  The failure share itself is 0 on
  a healthy program, which no relative bound can gate, so it is printed
  above the last line and carried by the `failed` and `attempted` fields.

With `--trace 1` the run alternates untraced and traced units and reports
per-layer metrics, averaged over the traced units (see spans.py), plus
`trace.overhead_frac`, the traced over the untraced median unit time, minus
one.  Every op's output is checked exactly; a wrong output, an unexpected
exit code, a `SystemExit` or an exception counts as a failed op and never
stops the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work" / str(os.getpid())

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 120
# CPU time of one gauge round on an uncontended core (a 2.0 GHz Xeon KVM
# guest, CPython 3.11); it only fixes the scale of the reference seconds.
GAUGE_ROUND_S = 0.0036
# An interval shorter than this many gauge rounds is judged by the rounds
# nearest to it.
GAUGE_MIN_ROUNDS = 20

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"),
              ("ops_ok_frac", "fraction"))
COMPLEX_CHECKS = ("coupled_exact", "coupled_kernel_flat",
                  "derivation_matches_hand_coded", "elasticity_exact",
                  "elasticity_kernel_rigid", "grad_curl_div_exact",
                  "lambda2_split", "matrix_operator_agreement")
PER_LAYER = (
    ("complexes.assemble_s", "s"), ("complexes.assemble_calls", "count"),
    ("complexes.assemble_cols", "count"), ("exactlin.rank_s", "s"),
    ("exactlin.rank_calls", "count"), ("exactlin.rank_nnz", "count"),
    ("exactlin.rank_max_dim", "count"), ("exactlin.solve_s", "s"),
    ("exactlin.solve_calls", "count"), ("exactlin.mul_s", "s"),
    ("complexes.schur_s", "s"), ("complexes.verify_s", "s"),
    ("complexes.w_builds", "count"),
    ("suites.calculus_s", "s"), ("suites.connection_s", "s"),
    ("suites.riemannian_s", "s"), ("suites.complex_s", "s"),
    *((f"suites.complex.{name}_s", "s") for name in COMPLEX_CHECKS),
    ("connection.reconstruct_s", "s"), ("connection.normalize_s", "s"),
    ("calculus.check_s", "s"), ("riemannian.linearize_s", "s"),
    ("riemannian.pointwise_s", "s"), ("fieldio.load_s", "s"),
    ("fieldio.save_s", "s"), ("fieldio.bytes_in", "bytes"),
    ("fieldio.bytes_out", "bytes"), ("cli.self_s", "s"),
    ("poly.mul_calls", "count"), ("poly.add_calls", "count"),
    ("poly.partial_calls", "count"), ("poly.evaluate_calls", "count"),
    ("trace.overhead_frac", "fraction"),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Make `src/strainkit` of this checkout importable, and nothing else."""
    if not (SRC / "strainkit" / "__init__.py").is_file():
        fail(f"no strainkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import strainkit

    if not Path(strainkit.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"strainkit was imported from {strainkit.__file__}, not {SRC}")


def _gauge_round() -> None:
    """A fixed round of pure-Python work, like the program's: exact fractions,
    integer arithmetic and a dict of tuple keys."""
    total, table = Fraction(0), {}
    for i in range(1, 1000):
        total += Fraction(i % 7 + 1, i)
        key = (i % 13, i % 17)
        table[key] = table.get(key, 0) + i * i


class Gauge:
    """A thread that times gauge rounds on the CPU the workers run on.

    Create it after the runner has pinned itself to one CPU: the thread and
    every worker started later inherit that pinning.
    """

    def __init__(self) -> None:
        self.rounds: list[tuple[float, float]] = []  # (monotonic midpoint, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Gauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            start, cpu = time.monotonic(), time.thread_time()
            _gauge_round()
            cpu = time.thread_time() - cpu
            self.rounds.append(((start + time.monotonic()) / 2, cpu))

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per CPU second over [start, end] (monotonic)."""
        rounds = list(self.rounds)
        costs = [cpu for t, cpu in rounds if start <= t <= end]
        if len(costs) < GAUGE_MIN_ROUNDS:
            middle = (start + end) / 2
            rounds.sort(key=lambda r: abs(r[0] - middle))
            costs = [cpu for _, cpu in rounds[:GAUGE_MIN_ROUNDS]]
        if not costs:
            fail("the speed gauge recorded no round")
        return GAUGE_ROUND_S / statistics.fmean(costs)


def run_worker(ops: list[dict], trace: bool, unit_dir: Path,
               gauge: Gauge) -> tuple[float, dict | None]:
    """Run ops in a fresh interpreter; return its set-up time and result.

    Both are in reference seconds: the result gains `scale`, the factor from
    the worker's CPU seconds to reference seconds while its ops ran.
    """
    spec_path, result_path = unit_dir / "spec.json", unit_dir / "result.json"
    spec_path.write_text(json.dumps({"trace": trace, "ops": ops}), encoding="utf-8")
    # Bytecode is cached in the work directory, as an installed package has
    # it, whatever the caller's PYTHONDONTWRITEBYTECODE says.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.monotonic()
    with subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC), str(spec_path),
             str(result_path)], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline().split()
            ready_at = time.monotonic()
            proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
    if len(ready) != 2 or ready[0] != b"ready":
        fail("a worker could not import strainkit and build the parser")
    setup = float(ready[1]) * gauge.scale(start, ready_at)
    if proc.returncode != 0 or not result_path.is_file():
        # The whole unit is lost: every op counts as failed.
        error = f"worker ended with code {proc.returncode}"
        record = {"rc": None, "exit": None, "error": error, "cpu_s": 0.0,
                  "stdout": "", "stderr": ""}
        return setup, {"ops": [record] * len(ops), "wall_s": None, "maxrss_kb": None}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["scale"] = gauge.scale(result["start"], result["end"])
    result["ref_s"] = result["cpu_s"] * result["scale"]
    return setup, result


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    if WORK.parent.is_dir() and not any(WORK.parent.iterdir()):
        WORK.parent.rmdir()


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0], "commit": commit(),
            "src_sha256": digest.hexdigest()}


def commit() -> str:
    """HEAD of the checkout, or "unknown" if it is no git repository.

    git looks no further up than the checkout, so an enclosing repository
    is never taken for it.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def layer_metrics(traced: list[dict], outcomes: list) -> dict:
    """Per-layer metrics averaged over the traced units, in reference seconds.

    Span times are CPU seconds.  The suites' `elapsed` fields are wall
    seconds, so they are first scaled by the worker's share of the CPU.
    """
    import spans

    rows = []
    for result, outcome in zip(traced, outcomes):
        row = spans.layer_totals(result["trace"])
        for name, unit in PER_LAYER:
            if unit == "s" and name in row:
                row[name] *= result["scale"]
        wall_scale = result["cpu_s"] / result["wall_s"] * result["scale"]
        row.update((f"suites.{key}_s", value * wall_scale)
                   for key, value in outcome.suite_elapsed.items())
        rows.append(row)
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            continue
        value = statistics.fmean(row.get(name, 0) for row in rows)
        out[name] = int(value) if unit != "s" and value.is_integer() else value
    out["exactlin.rank_max_dim"] = max(row["exactlin.rank_max_dim"] for row in rows)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            **unit_options) -> dict:
    """Run units of the workload for about `seconds`; unit_options go to
    the workload's unit function (the self-test's corrupt and tamper hooks)."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        with Gauge() as gauge:
            return _measure(gauge, workload, seed, seconds, trace, unit_options)
    finally:
        os.sched_setaffinity(0, cpus)


def _measure(gauge: Gauge, workload: str, seed: int, seconds: float,
             trace: bool, unit_options: dict) -> dict:
    import workloads

    expected = workloads.load_expected()
    build = workloads.WORKLOADS[workload]

    setups = []
    for n in range(SETUP_PROBES + 1):
        probe_dir = WORK / f"probe{n}"
        probe_dir.mkdir(parents=True)
        setups.append(run_worker([], False, probe_dir, gauge)[0])
        shutil.rmtree(probe_dir)
    del setups[0]  # the first probe fills the bytecode cache

    plain, traced, traced_outcomes = [], [], []
    latencies, failures = [], []
    attempted = frozen = 0
    round_times = []
    start = time.perf_counter()
    k = 0
    while True:
        round_start = time.perf_counter()
        for traced_unit in ((False, True) if trace else (False,)):
            unit_dir = WORK / f"u{k}"
            unit_dir.mkdir(parents=True)
            unit = build(unit_dir, seed, k, expected, **unit_options)
            setup, result = run_worker(unit.ops, traced_unit, unit_dir, gauge)
            outcome = unit.check(result)
            shutil.rmtree(unit_dir)
            setups.append(setup)
            attempted += outcome.attempted
            frozen += outcome.frozen
            failures.extend(outcome.failures)
            if result["wall_s"] is not None:
                latencies.extend(ms * result["scale"] for ms in outcome.op_cpu_ms)
                (traced if traced_unit else plain).append(result)
                if traced_unit:
                    traced_outcomes.append(outcome)
            k += 1
        round_times.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(round_times) > seconds:
            break

    summary = {"attempted": attempted, "failed": len(failures),
               "failures": failures, "units": k, "frozen_units": frozen,
               "plain": [(r["ref_s"], r["wall_s"]) for r in plain],
               "traced": [(r["ref_s"], r["wall_s"]) for r in traced]}
    if not plain or (trace and not traced):
        summary["metrics"] = {}
        return summary
    wall = statistics.median(r["ref_s"] for r in plain)
    if trace:
        metrics = layer_metrics(traced, traced_outcomes)
        metrics["trace.overhead_frac"] = (
            statistics.median(r["ref_s"] for r in traced) / wall - 1)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "op_p50_ms": percentile(latencies, 50),
            "op_p90_ms": percentile(latencies, 90),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024,
            "ops_ok_frac": 1 - len(failures) / attempted,
        }
    summary["metrics"] = metrics
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure strainkit's CLI workloads end to end or per layer.")
    parser.add_argument("--workload", required=True,
                        choices=("verify_all", "complex_derive", "field_jobs"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    # On SIGTERM, unwind as on any error: the running worker is killed and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    env = environment()
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        remove_work()

    for message in summary["failures"][:20]:
        print(f"perfbench: failed op {message}", file=sys.stderr)
    if not summary["metrics"]:
        fail("no unit completed, so there is nothing to report")
    attempted, failed = summary["attempted"], summary["failed"]
    print("# env " + json.dumps(env, sort_keys=True))
    ran, frozen = summary["units"], summary["frozen_units"]
    print(f"# {args.workload} seed {args.seed}: {ran} units, "
          f"{attempted} ops attempted, {failed} failed, "
          f"ops_failed_frac {failed / attempted!r}; "
          f"{frozen} units also checked against frozen digests")
    if args.seed == workloads.DEFAULT_SEED and frozen < ran:
        print(f"perfbench: only {frozen} of {ran} units have digests frozen for "
              "seed 0; the others were checked by the exact invariants alone",
              file=sys.stderr)
    for kind in ("plain", "traced"):
        if summary[kind]:
            print(f"# {kind} units, reference s / wall s: " + " ".join(
                f"{ref:.4f}/{wall:.4f}" for ref, wall in summary[kind]))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in summary["metrics"].items()}
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
