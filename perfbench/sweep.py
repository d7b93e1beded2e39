"""One sweep of one workload, in this process, under an address-space limit.

    PYTHONPATH=src python3 perfbench/sweep.py --workload NAME --seed N
        --mem-limit BYTES [--size bench|smoke] [--trace 0|1]

run.py starts it with symsub's `src/` on PYTHONPATH.  Prints a JSON line
naming the planned tasks, one JSON line per finished task ({"task",
"outcome": "ok" | "wrong" | "failed", "detail", "seconds"}), and a last line
with the per-layer summary when tracing.  The summary's
`bench.outside_spans_s` is the tasks' time outside every span: the
benchmark's own reference checks.  run.py counts a task that never reported
(the process was killed) as failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("bench", "smoke"), default="bench")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mem-limit", type=int, required=True)
    args = parser.parse_args()

    # set before numpy loads, so every allocation of the sweep (and of the
    # CLI processes it starts) is under the limit
    resource.setrlimit(resource.RLIMIT_AS, (args.mem_limit, args.mem_limit))

    import workloads
    from spans import Library, Tracer

    tracer = Tracer(enabled=bool(args.trace))
    lib = Library(tracer)
    tasks = workloads.tasks(args.workload, args.size, args.seed)
    print(json.dumps({"planned": [name for name, _ in tasks]}), flush=True)
    task_seconds = 0.0
    for name, task in tasks:
        start = time.perf_counter()
        try:
            task(lib)
            outcome, detail = "ok", ""
        except workloads.WrongOutput as exc:
            outcome, detail = "wrong", str(exc)
        except Exception as exc:  # MemoryError, guard refusals, failed commands: counted, not fatal
            outcome, detail = "failed", f"{type(exc).__name__}: {exc}"[:500]
        seconds = time.perf_counter() - start
        task_seconds += seconds
        print(json.dumps({"task": name, "outcome": outcome, "detail": detail, "seconds": seconds}), flush=True)
    summary = None
    if tracer.enabled:
        summary = tracer.summary()
        summary["bench.outside_spans_s"] = task_seconds - sum(tracer.time.values())
    print(json.dumps({"summary": summary}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
