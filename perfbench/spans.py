"""Spans around the benchmark's calls into symsub's public functions.

The library itself is not instrumented: every span is opened here, in the
benchmark, at the boundary where a task calls into a module.  Spans never
nest (library code does not call back through ``Library``, and the CLI span
wraps no library call), so a span's self time is its duration.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Layers are the package modules.  `guards` does no work of its own; its
# refusals surface as exceptions of the calling module and count there.
MODULES = ("exactcomb", "tensorspace", "channels", "definetti", "randomness", "concentration", "cli")

# Functions whose self time is reported on its own, besides the module totals.
TIMED_FUNCTIONS = (
    "tensorspace.sym_projector_group",
    "tensorspace.type_isometry",
    "channels.mp_channel_sym",
    "channels.clone_channel_sym",
    "channels.trace_channel_sym",
    "channels.verify_chiribella",
    "definetti.verify_exp_definetti",
    "definetti.exp_definetti_coefficients",
    "concentration.tail_bound",
    "concentration.smooth_gap_bound",
    "randomness.mc_tensor_power_mean",
    "randomness.mc_projector_moment",
    "concentration.experiment_schmidt_tail",
    "concentration.experiment_product_free",
    "cli.subprocess",
)

# Counts recorded at the same boundaries.  computed_bytes is 16 * rows * cols
# of every dense operator a tensorspace call returns, computed from shapes.
COUNTERS = ("tensorspace.computed_bytes", "randomness.samples", "cli.exit_nonzero")


class Tracer:
    """Sums span durations per name in memory; disabled, it records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            self.time[name] += time.perf_counter() - start
            self.calls[name] += 1

    def summary(self) -> dict[str, float]:
        """Flat per-layer numbers: module and function time, calls, errors,
        and the counters."""
        out: dict[str, float] = {}
        for module in MODULES:
            prefix = module + "."
            out[f"{module}.time_s"] = sum(t for n, t in self.time.items() if n.startswith(prefix))
            out[f"{module}.calls"] = sum(c for n, c in self.calls.items() if n.startswith(prefix))
            out[f"{module}.errors"] = sum(c for n, c in self.errors.items() if n.startswith(prefix))
        for name in TIMED_FUNCTIONS:
            out[f"{name}.time_s"] = self.time.get(name, 0.0)
        for name in COUNTERS:
            out[name] = self.counters[name]
        return out


class _TracedModule:
    def __init__(self, name: str, tracer: Tracer):
        self._name = name
        self._module = importlib.import_module(f"symsub.{name}")
        self._tracer = tracer

    def __getattr__(self, attr: str):
        # called once per name: the result is cached on the instance, so
        # later calls pay no lookup through this method
        fn = getattr(self._module, attr)
        if not self._tracer.enabled:
            setattr(self, attr, fn)
            return fn
        span_name = f"{self._name}.{attr}"

        span = self._tracer.span
        count = self._count if self._name in ("tensorspace", "randomness") else None

        def traced(*args, **kwargs):
            with span(span_name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(result)
            return result

        setattr(self, attr, traced)
        return traced

    def _count(self, result) -> None:
        if self._name == "tensorspace" and hasattr(result, "entries"):
            rows, cols = result.entries.shape
            self._tracer.counters["tensorspace.computed_bytes"] += 16 * rows * cols
        elif self._name == "randomness" and hasattr(result, "samples"):
            self._tracer.counters["randomness.samples"] += result.samples


class Library:
    """symsub's computing modules; with tracing on, every call through this
    handle is a span named ``<module>.<function>``.  The CLI is reached as a
    subprocess, so its tasks open the ``cli.subprocess`` span themselves."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        for name in MODULES:
            if name != "cli":
                setattr(self, name, _TracedModule(name, tracer))
