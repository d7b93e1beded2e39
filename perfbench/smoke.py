"""Smoke test: every workload's task list once, at its smallest size, traced.

    python3 perfbench/smoke.py

Run from the root of a symsub checkout.  Fails (exit 1) when a sweep does not
report its task list, a task never reports, an output disagrees with its
reference, an in-process task raises, or a traced sweep lacks a per-layer
number.  A CLI command that exits non-zero with a well-formed report is
printed but not fatal: that is the program reporting a failed check, which
the benchmark counts.
"""

from __future__ import annotations

import json
import os
import sys

from run import ROOT, Sweep, sweep_mem_limit
from spans import COUNTERS, MODULES, TIMED_FUNCTIONS


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {f"{m}.{kind}" for m in MODULES for kind in ("time_s", "calls", "errors")}
    expected |= {f"{name}.time_s" for name in TIMED_FUNCTIONS} | set(COUNTERS) | {"bench.outside_spans_s"}
    declared = {m["name"] for m in spec["per_layer"]} - {"run.cpu_s", "trace.overhead_s"}
    problems = [] if declared == expected else [f"BENCHMARK.json per_layer differs from spans.py: {declared ^ expected}"]
    for workload in (w["name"] for w in spec["workloads"]):
        sweep = Sweep(workload, seed=0, trace=True, mem_limit=sweep_mem_limit(), timeout=170, size="smoke")
        for name, reason in sweep.failures.items():
            fatal = not (workload == "cli-readme" and reason.startswith("failed: CommandFailed"))
            print(f"{'FAIL' if fatal else 'note'} {workload}: {name}: {reason}")
            if fatal:
                problems.append(f"{workload}: {name}")
        if sweep.summary is None or set(sweep.summary) != expected:
            problems.append(f"{workload}: per-layer summary missing or incomplete")
        print(f"{workload}: {len(sweep.planned)} tasks, {len(sweep.failures)} not ok, {sweep.wall_s:.2f} s")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
