"""symsub benchmark: closed-loop sweeps of checked verification tasks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a symsub checkout; the program is imported from its
`src/` directory.  Set-up time is the median of cold starts (fresh
interpreter, `import symsub`, first call) taken before and between the
sweeps.  For `--seconds`, sweeps of the workload run one after another, each in a fresh
child process (`sweep.py`) under an address-space limit, so caches start
cold as they do for a user and an out-of-memory rung fails one task instead
of the run.  With `--trace 1` traced and untraced sweeps alternate; the
traced ones give the per-layer numbers and the difference in wall time is
the tracing overhead.

Times are reported at the machine's reference speed.  The shared machine
this was built on runs everything up to 1.8 times slower for stretches of
seconds to minutes, longer than a run.  Before the first cold start and
after every sweep the run times three fixed probes (probe.py): a pure-Python
loop, a 32 MiB array copy and a fresh interpreter importing numpy.  Every
time it reports is multiplied by the run's `SpeedProbe.factor`, the mean of
the probes' reference times over their median times in the run.
Nothing in symsub runs during a probe, so a change to the program cannot
move them.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; `failed / attempted` is the run's
check-fail ratio.  The lines before it give the machine facts and a readable
summary.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COLD_STARTS = 5  # before the sweeps
COLD_STARTS_PER_SWEEP = 2
RUN_BUDGET_S = 170  # no sweep starts that would likely end past this
SWEEP_TIMEOUT_S = 150
MEM_LIMIT_CAP = 4 << 30  # address-space limit of a sweep: min(this, RAM / 2)
SETUP_PROGRAM = "import time, symsub; symsub.sym_dim(2, 3); print(time.monotonic())"

# The times of probe.py's three probes at full speed on a 2-vCPU Xeon
# virtual machine: the reference speed that reported times are scaled to.
LOOP_REFERENCE_S = 0.010
COPY_REFERENCE_S = 0.005
SPAWN_REFERENCE_S = 0.125


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def sweep_mem_limit() -> int:
    return min(MEM_LIMIT_CAP, physical_memory() // 2)


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine_facts(mem_limit: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a bare checkout may sit inside another repository
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": physical_memory(),
        "sweep_address_space_limit_bytes": mem_limit,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def cold_start() -> float:
    """Seconds from launching a fresh interpreter to `import symsub` done and
    the first call returned (CLOCK_MONOTONIC is system-wide on Linux)."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROGRAM], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return float(out.split()[-1]) - start


class SpeedProbe:
    """The speed the shared machine gives the run, from the three probes of
    probe.py: a pure-Python loop for interpreter work, an array copy for
    memory traffic and a numpy import in a fresh interpreter for process
    start.  Each tracks one workload best: the loop exact-sweep (big-int
    arithmetic), the copy dense-ladder (BLAS over arrays of hundreds of MB),
    process start cli-readme and the cold starts of setup_s.  Their mean
    stays close to the best one on each."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.loop_s: list[float] = []
        self.copy_s: list[float] = []
        self.spawn_s: list[float] = []

    def sample(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        loop_s, copy_s, spawn_s = map(float, self.proc.stdout.readline().split())
        self.loop_s.append(loop_s)
        self.copy_s.append(copy_s)
        self.spawn_s.append(spawn_s)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    @property
    def factor(self) -> float:
        """Multiplies a time measured in this run into reference seconds."""
        loop = LOOP_REFERENCE_S / statistics.median(self.loop_s)
        copy = COPY_REFERENCE_S / statistics.median(self.copy_s)
        spawn = SPAWN_REFERENCE_S / statistics.median(self.spawn_s)
        return (loop + copy + spawn) / 3


def cold_starts(probe: SpeedProbe, count: int) -> list[float]:
    """A probe sample, then `count` cold starts: called before the sweeps and
    after each, so the samples cover the run."""
    probe.sample()
    return [cold_start() for _ in range(count)]


class Sweep:
    """One child process running the workload's task list once."""

    def __init__(self, workload: str, seed: int, trace: bool, mem_limit: int, timeout: float, size: str = "bench"):
        cmd = [
            sys.executable, os.path.join(HERE, "sweep.py"), "--workload", workload,
            "--seed", str(seed), "--size", size, "--trace", str(int(trace)), "--mem-limit", str(mem_limit),
        ]
        self.trace = trace
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True)
        chunks: list[bytes] = []
        reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
        reader.start()
        # the child leads its own process group, so a timeout also stops the
        # CLI processes it started
        watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # rusage of this child and its waited-for children
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reader.join()
        proc.stdout.close()
        self.exit_code = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.planned: list[str] = []
        self.outcomes: dict[str, tuple[str, str]] = {}
        self.task_seconds: dict[str, float] = {}
        self.summary: dict[str, float] | None = None
        for line in b"".join(chunks).decode(errors="replace").splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "planned" in record:
                self.planned = record["planned"]
            elif "task" in record:
                self.outcomes[record["task"]] = (record["outcome"], record["detail"])
                self.task_seconds[record["task"]] = record["seconds"]
            elif "summary" in record:
                self.summary = record["summary"]

    @property
    def attempted(self) -> int:
        return max(len(self.planned), 1)

    @property
    def failures(self) -> dict[str, str]:
        """Task -> reason, for every planned task that did not finish ok."""
        if not self.planned:
            return {"<sweep>": f"no task list (exit {self.exit_code})"}
        out = {}
        for name in self.planned:
            outcome, detail = self.outcomes.get(name, ("failed", f"no result (sweep exit {self.exit_code})"))
            if outcome != "ok":
                out[name] = f"{outcome}: {detail}"
        return out

    @property
    def wrong(self) -> int:
        return sum(outcome == "wrong" for outcome, _ in self.outcomes.values())


def median_wall_s(sweeps: list[Sweep]) -> float:
    """Each part of a sweep (every task, and the rest: process start,
    import, task list, exit), median over the sweeps, summed."""
    parts: dict[str, list[float]] = {}
    for s in sweeps:
        for name, seconds in s.task_seconds.items():
            parts.setdefault(name, []).append(seconds)
        parts.setdefault("<rest>", []).append(s.wall_s - sum(s.task_seconds.values()))
    return sum(statistics.median(times) for times in parts.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run_deadline = time.monotonic() + RUN_BUDGET_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "symsub", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: {ROOT} is not a symsub checkout (no src/symsub or BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    mem_limit = sweep_mem_limit()
    print("# machine " + json.dumps(machine_facts(mem_limit)), flush=True)

    cold_start()  # untimed: leaves the bytecode cache that every later start uses
    probe = SpeedProbe()
    try:
        setup = cold_starts(probe, COLD_STARTS)
        # Closed loop: the next sweep starts when the previous one has ended.
        # Cold starts follow each sweep, so set-up is sampled across the run.
        sweeps: list[Sweep] = []
        start = time.monotonic()
        while not sweeps or (
            time.monotonic() - start < args.seconds and sweeps[-1].wall_s < run_deadline - time.monotonic()
        ) or (args.trace and len(sweeps) < 2):
            traced = bool(args.trace) and len(sweeps) % 2 == 1
            timeout = max(min(SWEEP_TIMEOUT_S, run_deadline - time.monotonic()), 10)
            sweeps.append(Sweep(args.workload, args.seed, traced, mem_limit, timeout))
            setup += cold_starts(probe, COLD_STARTS_PER_SWEEP)
    finally:
        probe.close()

    plain = [s for s in sweeps if not s.trace]
    traced = [s for s in sweeps if s.trace]
    attempted = sum(s.attempted for s in sweeps)
    failures = {name: reason for s in sweeps for name, reason in s.failures.items()}
    failed = sum(len(s.failures) for s in sweeps)
    for name, reason in sorted(failures.items()):
        print(f"# failed task {name}: {reason}", file=sys.stderr)

    if args.trace:
        layers = [s.summary for s in traced if s.summary is not None]
        if not layers:
            print("error: no traced sweep finished", file=sys.stderr)
            return 1
        metrics_by_name = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics_by_name["run.cpu_s"] = statistics.median(s.cpu_s for s in plain)
        metrics_by_name["trace.overhead_s"] = median_wall_s(traced) - median_wall_s(plain)
        for name in metrics_by_name:
            if name.endswith("_s"):
                metrics_by_name[name] *= probe.factor
        wanted = spec["per_layer"]
    else:
        metrics_by_name = {
            "wall_s": median_wall_s(plain) * probe.factor,
            "setup_s": statistics.median(setup) * probe.factor,
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": metrics_by_name[m["name"]], "unit": m["unit"]} for m in wanted}

    print("# sweep wall_s: " + " ".join(f"{s.wall_s:.4f}{'t' if s.trace else ''}" for s in sweeps), flush=True)
    print(
        f"# speed factor {probe.factor:.4f}: loop probe median {statistics.median(probe.loop_s):.5f} s, "
        f"copy probe median {statistics.median(probe.copy_s):.5f} s, "
        f"spawn probe median {statistics.median(probe.spawn_s):.5f} s over {len(probe.loop_s)} samples",
        flush=True,
    )
    print(
        f"# {args.workload} seed={args.seed} sweeps={len(plain)} untraced + {len(traced)} traced, "
        f"check_fail_ratio={failed / attempted:.6g} ({failed}/{attempted}), "
        + ", ".join(f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()),
        flush=True,
    )
    result = {"correct": all(s.wrong == 0 for s in sweeps), "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
