"""Freeze the output digests of expected.json from the current program.

    python3 perfbench/freeze.py

Run it from the root of the checkout, and only on a commit whose outputs
are known to be right: the benchmark then holds later commits to exactly
these outputs for seed 0.  Every unit must first pass the exact invariants.
Units beyond the frozen counts are checked by the invariants alone, and a
run on seed 0 says so.
"""

from __future__ import annotations

import json

import run

# A 35-s run on a 2-vCPU host makes 1 or 2 verify_all and 3 or 4 field_jobs
# units, so these counts still cover every unit of a program about 7 times
# faster.
VERIFY_UNITS = 18
FIELD_UNITS = 30


def run_unit(workloads, name: str, k: int, expected: dict, gauge):
    unit_dir = run.WORK / f"{name}_{k}"
    unit_dir.mkdir(parents=True)
    unit = workloads.WORKLOADS[name](unit_dir, workloads.DEFAULT_SEED, k, expected)
    _, result = run.run_worker(unit.ops, False, unit_dir, gauge)
    outcome = unit.check(result)
    if outcome.failures:
        raise SystemExit(f"{name} unit {k} fails its invariants: {outcome.failures[:3]}")
    return unit_dir, unit, result


def main() -> None:
    run.import_program()
    import workloads
    from strainkit.suites import check_names

    expected = {"verify_all": {"checks": check_names("all"), "body_digests": []},
                "complex_derive": {"report_digest": None},
                "field_jobs": {"output_digests": []}}
    try:
        with run.Gauge() as gauge:  # run_worker needs one; its times are unused
            freeze_units(workloads, expected, gauge)
    finally:
        run.remove_work()
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fp:
        json.dump(expected, fp, indent=1, sort_keys=True)
        fp.write("\n")


def freeze_units(workloads, expected: dict, gauge) -> None:
    for k in range(VERIFY_UNITS):
        unit_dir, _, _ = run_unit(workloads, "verify_all", k, expected, gauge)
        report = json.loads((unit_dir / "verify.json").read_text(encoding="utf-8"))
        expected["verify_all"]["body_digests"].append(
            workloads.verify_body_digest(report))
    unit_dir, _, _ = run_unit(workloads, "complex_derive", 0, expected, gauge)
    expected["complex_derive"]["report_digest"] = workloads.digest(
        (unit_dir / "complex.json").read_bytes())
    for k in range(FIELD_UNITS):
        unit_dir, unit, result = run_unit(workloads, "field_jobs", k, expected, gauge)
        digests = {}
        for j, (op, record) in enumerate(zip(unit.ops, result["ops"])):
            if op["argv"][0] == "ricci":
                digests[str(j)] = workloads.digest(record["stdout"])
            elif record["rc"] == 0:
                digests[str(j)] = workloads.digest(
                    (unit_dir / f"j{j}_out.json").read_text(encoding="utf-8"))
        expected["field_jobs"]["output_digests"].append(digests)


if __name__ == "__main__":
    main()
