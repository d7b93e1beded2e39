"""Speed probes of the shared machine, served to run.py one sample a line.

    python3 perfbench/probe.py    # each line on stdin -> "<loop_s> <copy_s> <spawn_s>"

Three fixed probes: a pure-Python loop for interpreter work, a 32 MiB array
copy for memory traffic, and a fresh interpreter that imports numpy for
process start.  The loop and the copy are each the faster of two runs, since
the first run after a child process exits is often slowed by its clean-up.
The probes run in this process of their own so that their arrays do not
raise the peak RSS that a sweep process inherits from run.py when it is
started.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

LOOP = 150_000
COPY_BYTES = 32 << 20


def loop() -> None:
    total = 0
    for i in range(LOOP):
        total += i * i % 7


def spawn() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def fastest_of_two(fn) -> float:
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    src = np.ones(COPY_BYTES // 16, dtype=complex)
    dst = np.empty_like(src)
    for _ in sys.stdin:
        print(fastest_of_two(loop), fastest_of_two(lambda: np.copyto(dst, src)), spawn(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
