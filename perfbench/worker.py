"""One fresh interpreter that runs a list of strainkit CLI calls in-process.

    python3 perfbench/worker.py SRC_DIR SPEC_JSON RESULT_JSON

The worker imports `strainkit.cli` from SRC_DIR and builds the parser, then
prints "ready" and the CPU time it has used so far, its set-up cost.  It then
calls `strainkit.cli.main(argv)` for every op of the spec, capturing stdout,
stderr, the exit code and any `SystemExit` or exception, and writes one JSON
result: per-op records with their CPU time, the ops' total wall and CPU
time and the monotonic clock at their start and end, `ru_maxrss`, and, when
the spec asks for tracing, the recorded spans and counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _run_op(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    record = {"rc": None, "exit": None, "error": None}
    cpu = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            record["rc"] = main(argv)
        except SystemExit as exc:
            record["exit"] = exc.code if isinstance(exc.code, int) else str(exc.code)
        except Exception as exc:  # an op that raises is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
    record["cpu_s"] = time.process_time() - cpu
    record["stdout"] = out.getvalue()
    record["stderr"] = err.getvalue()[-2000:]
    return record


def main() -> None:
    src, spec_path, result_path = sys.argv[1:4]
    sys.path.insert(0, src)
    import strainkit.cli

    if not Path(strainkit.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"strainkit was not imported from {src}")
    strainkit.cli.build_parser()
    print(f"ready {time.process_time()!r}", flush=True)

    with open(spec_path, encoding="utf-8") as fp:
        spec = json.load(fp)
    cli_main = strainkit.cli.main
    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        cli_main = recorder.timed("cli", cli_main)

    records = []
    start, cpu = time.monotonic(), time.process_time()
    for op in spec["ops"]:
        if recorder is not None:
            recorder.op = op["id"]
        records.append(_run_op(cli_main, op["argv"]))
    cpu, end = time.process_time() - cpu, time.monotonic()

    result = {"ops": records, "wall_s": end - start, "cpu_s": cpu,
              "start": start, "end": end,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        result["trace"] = recorder.dump()
    with open(result_path, "w", encoding="utf-8") as fp:
        json.dump(result, fp)


if __name__ == "__main__":
    main()
