"""Layer spans recorded from outside the package.

`install` rebinds, on the imported modules, every public function one g2tau
module imports from another, and `numpy.linalg.eigh`, to wrappers that open
a span.  Nothing in `src/` knows it is traced.  A layer's span is an
outermost call into a name in its module's `__all__` made from another
module or from the benchmark; self time is the span minus the spans of other
layers nested in it.  Spans stay in memory and `op_metrics` reduces one op's
spans to the per-layer figures.

The first fock_oracle span of an op starts tracemalloc, which then runs
until the caller stops it: it slows allocation-heavy Python several times
over, so ops that never reach the oracle run without it.
"""

from __future__ import annotations

import inspect
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from types import ModuleType

import numpy

KERNEL = "kernel"
LAYERS = ("sweep_cli", "param_map", "gaussian_core", "fock_oracle")
MB = 1024.0 * 1024.0


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    n: int = 0  # kernel: matrix size
    tau: float | None = None  # fock_oracle: the delay argument, if any
    peak: int = 0  # fock_oracle: tracemalloc peak bytes while open
    children: float = 0.0  # summed durations of direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn):
        tau_at = _tau_position(fn) if layer == "fock_oracle" else None

        def traced(*args, **kwargs):
            if self._open and self.spans[self._open[-1]].layer == layer:
                return fn(*args, **kwargs)  # not outermost
            span = Span(layer, name, 0.0, parent=self._open[-1] if self._open else None)
            if layer == KERNEL:
                span.n = args[0].shape[-1]
            elif tau_at is not None:
                span.tau = kwargs.get("tau", args[tau_at] if len(args) > tau_at else None)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            memory = layer == "fock_oracle"
            if memory:
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                tracemalloc.reset_peak()
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                if memory:
                    span.peak = tracemalloc.get_traced_memory()[1]
                self._open.pop()
                if span.parent is not None:
                    self.spans[span.parent].children += span.duration

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every cross-module public function and numpy.linalg.eigh."""
        for provider, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue  # classes and constants: construction is not a layer call
                wrapped = self.wrap(provider, name, fn)
                for consumer, other in modules.items():
                    if consumer != provider and getattr(other, name, None) is fn:
                        self._rebind(other, name, wrapped)
        self._rebind(numpy.linalg, "eigh", self.wrap(KERNEL, "eigh", numpy.linalg.eigh))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _tau_position(fn) -> int | None:
    params = list(inspect.signature(fn).parameters)
    return params.index("tau") if "tau" in params else None


def delay_groups(spans: list[Span]) -> tuple[list[float], float]:
    """Inclusive seconds of each delay's fock_oracle calls, and of the doubling check.

    Consecutive fock_oracle spans at one delay (oracle mode calls
    mean_n_oracle then g2_oracle) form one delay's call.
    """
    groups: list[float] = []
    check = 0.0
    last_tau = None
    for span in spans:
        if span.layer != "fock_oracle":
            continue
        if span.name == "convergence_check":
            check += span.duration
        elif groups and span.tau == last_tau:
            groups[-1] += span.duration
        else:
            groups.append(span.duration)
            last_tau = span.tau
    return groups, check


def op_metrics(spans: list[Span], retained_bytes: int) -> dict[str, float]:
    """Per-layer figures of one op from its spans (the first span is `main`)."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = sum(s.self_time for s in mine)
    eighs = [s for s in spans if s.layer == KERNEL]
    out["kernel.eigh_calls"] = len(eighs)
    out["kernel.eigh_s"] = sum(s.duration for s in eighs)
    out["kernel.eigh_n3"] = float(sum(s.n**3 for s in eighs))
    out["kernel.eigh_max_n"] = max((s.n for s in eighs), default=0)
    groups, check = delay_groups(spans)
    out["fock_oracle.first_call_s"] = groups[0] if groups else 0.0
    out["fock_oracle.later_call_s_p50"] = statistics.median(groups[1:]) if len(groups) > 1 else 0.0
    out["fock_oracle.later_calls"] = max(len(groups) - 1, 0)
    out["fock_oracle.check_s"] = check
    peaks = [s.peak for s in spans if s.layer == "fock_oracle"]
    out["fock_oracle.peak_mb"] = max(peaks, default=0) / MB
    out["fock_oracle.retained_mb"] = retained_bytes / MB
    out["op_s"] = spans[0].duration
    return out
