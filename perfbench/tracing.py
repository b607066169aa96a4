"""Host-time spans around the public functions of each simulator layer.

The traced run installs wrappers on the classes listed in
:data:`TARGETS` (and removes them afterwards), so the program under
test is not edited. A plain function gets one span per call. A
generator function gets one span per resume, so a simulated process
that waits is not charged for the host time other processes spend
while it is parked. Spans nest on one host stack: a span's parent is
whichever span was open when it started, and a span's self time is its
duration minus the time covered by its children.

Spans live in compact arrays while the run goes and are reduced with
numpy after it, never inside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

# (module, class, methods, span name). A span's layer is the part of
# its name before the first dot.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.sim.queue", "CalendarQueue",
     ("push", "pop", "push_batch", "pop_batch"), "sim.queue"),
    ("repro.sim.queue", "HeapQueue",
     ("push", "pop", "push_batch", "pop_batch"), "sim.queue"),
    ("repro.sim.core", "Simulator", ("run", "run_process"), "sim.run"),
    ("repro.fleet.churn", "ChurnPlan", ("for_region",), "fleet.plan"),
    ("repro.cloud.admission", "AdmissionController", ("admit",),
     "cloud.admission"),
    ("repro.cloud.scheduler", "Scheduler", ("place", "place_board"),
     "cloud.scheduler.place"),
    ("repro.cloud.scheduler", "Scheduler", ("release", "release_board"),
     "cloud.scheduler.release"),
    ("repro.cloud.audit", "AuditLog", ("record",), "cloud.audit"),
    ("repro.backend.spdk", "SpdkStorage", ("submit",), "backend.spdk"),
    ("repro.backend.limits", "GuestLimiters", ("admit_io", "admit_packets"),
     "backend.limits"),
    ("repro.core.paths", "BmBlkPath", ("io",), "core.paths"),
    ("repro.core.paths", "VmBlkPath", ("io",), "core.paths"),
    ("repro.virtio.vring", "VirtQueue",
     ("add_buffer", "repost", "get_used", "pop_avail", "push_used",
      "read_chain", "write_chain"), "virtio.vring"),
    ("repro.virtio.memory", "GuestMemory", ("alloc", "read", "write"),
     "virtio.memory"),
    ("repro.iobond.bond", "IoBond",
     ("sync_to_shadow", "deliver_completions"), "iobond.bond"),
    ("repro.iobond.shadow", "ShadowVring",
     ("stage_from_guest", "publish_staged", "backend_poll",
      "backend_complete", "stage_to_guest", "flush_to_guest"),
     "iobond.shadow"),
    ("repro.chaos.monitors", "MonitorSuite", ("sample", "finish"),
     "chaos.monitor"),
    ("repro.fabric.routing", "RoutingTables", ("recompute",),
     "fabric.routing"),
    ("repro.fabric.monitors", "RoutingInvariantMonitor", ("observe",),
     "fabric.routing"),
    ("repro.fabric.network", "FabricNetwork", ("transfer",),
     "fabric.transfer"),
)

LAYERS = ("sim", "fleet", "cloud", "backend", "core", "virtio", "iobond",
          "fabric", "chaos")

# Every per-layer metric, in BENCHMARK.json order, with its unit.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.fast_path_ratio", "ratio"),
    ("sim.queue_len_mean", "count"),
    ("sim.queue_len_max", "count"),
    ("sim.idle_polls_skipped", "count"),
    ("sim.doorbell_parks", "count"),
    ("sim.queue_s", "s"),
    ("sim.host_ns_per_event", "ns"),
    ("cloud.admission.calls", "count"),
    ("cloud.admission.s", "s"),
    ("cloud.admission.accept_ratio", "ratio"),
    ("cloud.admission.shed", "count"),
    ("cloud.scheduler.place_calls", "count"),
    ("cloud.scheduler.release_calls", "count"),
    ("cloud.scheduler.s", "s"),
    ("cloud.scheduler.capacity_rejections", "count"),
    ("cloud.audit.records", "count"),
    ("cloud.audit.s", "s"),
    ("fleet.churn_events", "count"),
    ("fleet.plan_s", "s"),
    ("backend.spdk.submits", "count"),
    ("backend.spdk.s", "s"),
    ("backend.limits.consumes", "count"),
    ("backend.limits.s", "s"),
    ("core.paths.ios", "count"),
    ("virtio.vring.s", "s"),
    ("virtio.memory.s", "s"),
    ("iobond.completions", "count"),
    ("iobond.s", "s"),
    ("hypervisor.restarts", "count"),
    ("faults.injected", "count"),
    ("chaos.monitor_samples", "count"),
    ("chaos.monitor_s", "s"),
    ("chaos.retries", "count"),
    ("chaos.violations", "count"),
    ("fabric.transfers", "count"),
    ("fabric.reroutes", "count"),
    ("fabric.routing_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("model_err_pct", "%"),
)

# Span-derived metrics: name -> ("calls" | "busy", span names).
SPAN_METRICS = {
    "sim.queue_s": ("busy", ("sim.queue",)),
    "cloud.admission.calls": ("calls", ("cloud.admission",)),
    "cloud.admission.s": ("busy", ("cloud.admission",)),
    "cloud.scheduler.place_calls": ("calls", ("cloud.scheduler.place",)),
    "cloud.scheduler.release_calls": ("calls", ("cloud.scheduler.release",)),
    "cloud.scheduler.s": ("busy", ("cloud.scheduler.place",
                                   "cloud.scheduler.release")),
    "cloud.audit.s": ("busy", ("cloud.audit",)),
    "fleet.plan_s": ("busy", ("fleet.plan",)),
    "backend.spdk.submits": ("calls", ("backend.spdk",)),
    "backend.spdk.s": ("busy", ("backend.spdk",)),
    "backend.limits.consumes": ("calls", ("backend.limits",)),
    "backend.limits.s": ("busy", ("backend.limits",)),
    "virtio.vring.s": ("busy", ("virtio.vring",)),
    "virtio.memory.s": ("busy", ("virtio.memory",)),
    "iobond.s": ("busy", ("iobond.bond", "iobond.shadow")),
    "chaos.monitor_s": ("busy", ("chaos.monitor",)),
    "fabric.routing_s": ("busy", ("fabric.routing",)),
}


def null_span(name: str):
    """Stand-in for :meth:`Tracer.span` in untraced repeats."""
    return contextlib.nullcontext()


def layer_metrics(tracer: "Tracer", self_layer: Dict[str, str]) -> Dict:
    """Span-derived per-layer metrics of one traced repeat."""
    spans = tracer.spans()
    out = {}
    for metric, (kind, names) in SPAN_METRICS.items():
        out[metric] = (tracer.calls_of(*names) if kind == "calls"
                       else tracer.busy(spans, *names))
    layers = tracer.layer_self_s(spans, self_layer)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    out["trace.spans"] = int(len(spans["dur"]))
    return out


def _target(module: str, cls: str, method: str):
    """``(owner class, raw attribute)``, or None if the program lacks it."""
    try:
        owner = getattr(importlib.import_module(module), cls)
    except (ImportError, AttributeError):
        return None
    raw = vars(owner).get(method)
    return None if raw is None else (owner, raw)


class _TracedGenerator:
    """Iterator proxy that opens one span per resume of ``gen``."""

    __slots__ = ("_gen", "_open", "_close")

    def __init__(self, gen, open_span, close_span):
        self._gen = gen
        self._open = open_span
        self._close = close_span

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        idx = self._open()
        try:
            return self._gen.send(value)
        finally:
            self._close(idx)

    def throw(self, *args):
        idx = self._open()
        try:
            return self._gen.throw(*args)
        finally:
            self._close(idx)

    def close(self):
        return self._gen.close()


class Tracer:
    """Span recorder: ``(name, parent, start, end)`` per span, in arrays."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._installed: List[Tuple[type, str, object]] = []
        self.missing: List[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def _opener(self, nid: int):
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        return open_span, close_span

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one call."""
        nid = self.name_id(name)
        open_span, close_span = self._opener(nid)
        self.calls[nid] += 1
        idx = open_span()
        try:
            yield
        finally:
            close_span(idx)

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        open_span, close_span = self._opener(nid)
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                return _TracedGenerator(fn(*args, **kwargs), open_span,
                                        close_span)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)
        return wrapper

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        """Wrap every target method; :meth:`remove` restores them."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module, cls_name, methods, name in TARGETS:
            for method in methods:
                found = _target(module, cls_name, method)
                if found is None:
                    # A later refactor may drop a target; its layer
                    # then reads 0 instead of failing the run.
                    self.missing.append(f"{module}.{cls_name}.{method}")
                    continue
                owner, raw = found
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                self._installed.append((owner, method, raw))
                setattr(owner, method, wrapped)

    def remove(self) -> None:
        for owner, method, raw in reversed(self._installed):
            setattr(owner, method, raw)
        self._installed = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.remove()
        return False

    # -- reduction -----------------------------------------------------
    def spans(self) -> Dict[str, np.ndarray]:
        """Closed spans as arrays, with each span's self time."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": name, "parent": parent, "dur": dur,
                "self": dur - child}

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def busy(self, spans: Dict[str, np.ndarray], *names: str) -> float:
        """Seconds covered by spans of ``names``, nested ones counted once."""
        ids = [self._ids[n] for n in names if n in self._ids]
        if not ids:
            return 0.0
        member = np.isin(spans["name"], ids)
        parent = spans["parent"]
        has_parent = parent >= 0
        safe = np.where(has_parent, parent, 0)
        inside = np.zeros(len(member), dtype=bool)
        while True:  # one pass per nesting level
            below = has_parent & (member | inside)[safe]
            if np.array_equal(below, inside):
                break
            inside = below
        return float(spans["dur"][member & ~inside].sum())

    def layer_self_s(self, spans: Dict[str, np.ndarray],
                     self_layer: Dict[str, str]) -> Dict[str, float]:
        """Self seconds per layer (the name's prefix, or ``self_layer``)."""
        totals = np.bincount(spans["name"], weights=spans["self"],
                             minlength=len(self.names))
        layers: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            layer = self_layer.get(name, name.split(".", 1)[0])
            layers[layer] = layers.get(layer, 0.0) + float(totals[i])
        return layers
