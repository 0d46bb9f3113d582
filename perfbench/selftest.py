"""Self-test of the benchmark's gate and of its output contract.

    python3 perfbench/selftest.py

Run it from the root of the checkout.  It checks that:

1. verify_all run with the hidden `verify --corrupt <check>` hook counts
   exactly one failed op out of 38;
2. a field_jobs op checked against a tampered expectation counts as failed,
   and no other op does, for each kind of expectation: an output file, an
   exit code and a frozen output digest;
3. the metric names and units the runner emits are those of BENCHMARK.json;
4. in a directory holding only BENCHMARK.json and perfbench/, the runner
   exits with an error and prints no result.

It prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def check(label: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else ""))
    return ok


def main() -> int:
    run.import_program()
    import workloads

    results = []
    try:
        names = workloads.load_expected()["verify_all"]["checks"]
        s = run.measure("verify_all", workloads.DEFAULT_SEED, 0, False,
                        corrupt="complex.lambda2_split")
        results.append(check(
            "verify --corrupt counts 1 failed op of 38",
            s["attempted"] == len(names) == 38 and s["failed"] == 1
            and s["metrics"]["ops_ok_frac"] == 1 - 1 / 38,
            f"{s['failed']}/{s['attempted']}: {s['failures']}"))

        plan = workloads.field_plan()
        for kind in ("reconstruct", "incompatible", "linearize", "ricci"):
            j = next(j for j, (k, _) in enumerate(plan) if k == kind)
            s = run.measure("field_jobs", workloads.DEFAULT_SEED, 0, False, tamper=j)
            results.append(check(
                f"tampered expectation of a {kind} job fails that op only",
                s["failed"] == 1 and s["failures"][0].startswith(f"u0.j{j} "),
                f"{s['failed']}/{s['attempted']}: {s['failures']}"))
    finally:
        run.remove_work()

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        bench = json.load(fp)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in bench[key]]
        results.append(check(f"{key} metrics match BENCHMARK.json",
                             declared == list(table)))

    bare = run.WORK / "bare"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        shutil.copy(workloads.EXPECTED_PATH, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "field_jobs",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        results.append(check("without src/ the runner fails and prints no result",
                             proc.returncode != 0 and '"correct"' not in proc.stdout,
                             f"exit {proc.returncode}"))
    finally:
        run.remove_work()
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
