"""One benchmark pass in a fresh interpreter.

Usage (started by run.py, with ``src`` on PYTHONPATH):

    python3 worker.py WORKLOAD WORKDIR SEED PASS_ID MODE SPAWNED_AT REPORT

SPAWNED_AT is the parent's time.perf_counter() just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so set-up time counts interpreter start.  MODE is "plain" (untraced),
"spans" (spans recorded) or "memory" (spans recorded under tracemalloc, for
layer peak memory only: it slows allocation-heavy code several-fold).  The
report is one JSON object written to REPORT: set-up, wall and CPU seconds,
peak RSS, gate readings and, unless plain, the pass's spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
import tracemalloc

import sunlie.cli  # noqa: F401  (import cost belongs to set-up)

import workloads


def main(argv: list[str]) -> int:
    workload, workdir, seed, pass_id, mode, spawned_at, report_path = argv
    seed, pass_id = int(seed), int(pass_id)
    inputs = workloads.load_inputs(workload, workdir, seed)
    ready = time.perf_counter()
    report: dict = {"pass": pass_id, "mode": mode, "setup_s": ready - float(spawned_at)}

    tracer = None
    if mode != "plain":
        import spans

        tracer = spans.Tracer(pass_id)
        tracer.install()
    if mode == "memory":
        tracemalloc.start()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        root = tracer.enter("pass") if tracer else None
        try:
            outputs = workloads.run_pass(workload, inputs)
        finally:
            if tracer:
                tracer.exit(root)
        wall1, cpu1 = time.perf_counter(), time.process_time()
    except Exception:  # a failed pass is a result; the parent counts it
        report["reading"] = {"error": traceback.format_exc(limit=5)}
    else:
        report.update(wall_s=wall1 - wall0, cpu_s=cpu1 - cpu0)
        report["reading"] = workloads.readings(workload, inputs, outputs)
    tracemalloc.stop()
    if tracer:
        tracer.uninstall()
        report["spans"] = tracer.finished_spans()
    report["peak_mem_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
