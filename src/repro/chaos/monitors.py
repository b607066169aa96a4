"""Runtime invariant monitors: cross-layer safety checked *during* runs.

Each monitor watches one protocol boundary of the BM-Hive stack and
knows the invariant that must hold there at every instant — not just in
the final state. A :class:`MonitorSuite` samples all of them from one
periodic read-only process, so a transient violation (a used-ring
double delivery that a later retry happens to mask, a shadow entry
briefly lost between buckets) is caught at the sample after it happens,
with the simulated timestamp attached.

Determinism contract
--------------------
Monitors are **read-only**: they never mutate model state, never draw
from an RNG stream, and never block a model process. The sampling
process does add its own timeout events to the heap, but those events
cannot reorder any other events relative to each other, and both the
chaos run and its fault-free baseline install the identical suite — so
the differential oracle always compares like with like.

(The one temptation worth calling out: ``TokenBucket.tokens`` *refills*
the bucket as a side effect of reading. The conservation monitor reads
the raw ``_tokens`` field instead — a stale-but-bounded value — exactly
to stay read-only.)

Incremental checking
--------------------
Most samples find nothing changed, so the ring, shadow, conservation
and (in :mod:`repro.fabric.monitors`) routing monitors do not re-derive
their verdicts from scratch. Each keeps the state its checks read
behind a change key and replays its previous *state* messages while
the key holds. *Transition* checks (a cursor or counter rewound since
the last sample) compare against the previous sample every time and
are never replayed. The ring monitor counts heads with one cursor per
append-only history, and its ``at_end`` recounts both histories; the
routing monitor's ``at_end`` re-certifies without the cache. An edit
made behind a key therefore still fails the run, at its end.

Adding a monitor
----------------
Subclass :class:`InvariantMonitor`, implement ``observe`` (called at
every sample; yield violation messages) and/or ``at_end`` (called once
after the run and ``AvailabilityAccounting.finalize``), give it a
``name``, and pass an instance to the suite. ``observe`` may replay its
previous state verdict while its change key is unchanged, as above; if
the key does not cover everything the checks read, ``at_end`` must run
one uncached pass. See DESIGN.md §8.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "Violation",
    "InvariantMonitor",
    "MonitorSuite",
    "ExactlyOnceRingMonitor",
    "ShadowSyncMonitor",
    "ConservationMonitor",
    "AvailabilityMonitor",
    "QuiescenceMonitor",
    "RegressionProbeMonitor",
]

_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach, stamped with the simulated time."""

    monitor: str
    at_s: float
    message: str

    def __str__(self) -> str:
        return f"[{self.at_s * 1e3:9.4f} ms] {self.monitor}: {self.message}"


class InvariantMonitor:
    """Base class: a named, read-only observer of one invariant."""

    name = "invariant"

    def observe(self, sim) -> Iterable[str]:
        """Check the invariant now; yield one message per breach."""
        return ()

    def at_end(self, sim) -> Iterable[str]:
        """End-of-run check, after the final clock and ``finalize``."""
        return ()


class MonitorSuite:
    """Runs every monitor from one periodic sampling process.

    ``finish`` must be called after the final ``sim.run`` (and after
    ``AvailabilityAccounting.finalize``): it takes a last sample and
    runs each monitor's end-of-run check. Violations are capped per
    monitor so a systemic breach yields a readable report instead of
    one entry per sample.
    """

    def __init__(self, sim, monitors: List[InvariantMonitor],
                 period_s: float = 250e-6, max_per_monitor: int = 20):
        if period_s <= 0:
            raise ValueError(f"sample period must be positive, got {period_s}")
        self.sim = sim
        self.monitors = list(monitors)
        self.period_s = period_s
        self.max_per_monitor = max_per_monitor
        self.violations: List[Violation] = []
        self.samples = 0
        self._counts: Dict[str, int] = {}
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("monitor suite already started")
        self._started = True
        self.sim.spawn(self._sample_loop(), name="chaos.monitors")

    def _sample_loop(self):
        while True:
            self.sample()
            yield self.sim.timeout(self.period_s)

    def sample(self) -> None:
        self.samples += 1
        for monitor in self.monitors:
            for message in monitor.observe(self.sim):
                self._record(monitor.name, message)

    def finish(self) -> None:
        """Final sample + end-of-run checks; call once after the run."""
        self.sample()
        for monitor in self.monitors:
            for message in monitor.at_end(self.sim):
                self._record(monitor.name, message)

    def _record(self, name: str, message: str) -> None:
        count = self._counts.get(name, 0)
        self._counts[name] = count + 1
        if count < self.max_per_monitor:
            self.violations.append(Violation(name, self.sim.now, message))
        elif count == self.max_per_monitor:
            self.violations.append(Violation(
                name, self.sim.now,
                f"further violations suppressed after {count}"))

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> List[str]:
        return [str(v) for v in self.violations]


class ExactlyOnceRingMonitor(InvariantMonitor):
    """Used-ring delivery is exactly-once; cursors only move forward.

    Invariants on one guest virtqueue, checked at every sample:

    * the avail/used histories are append-only — ``avail_idx``,
      ``used_idx`` and the consumption cursors never rewind;
    * consumption never passes production
      (``last_avail <= avail_idx``, ``last_used <= used_idx``);
    * head-space safety: every head index in either history addresses a
      real descriptor (``head < size``);
    * exactly-once: no head is *used* more often than it was made
      available — reposts legitimately repeat a head in the avail
      history, but a used count exceeding its avail count means a
      completion was forged or double-delivered.

    Per-head counts run behind one cursor per history; the state
    checks rerun only when a cursor or a history length moved.
    ``at_end`` recounts both histories and flags an entry rewritten in
    place, which the cursors cannot see.
    """

    def __init__(self, guest_name: str, vq):
        self.name = f"exactly_once[{guest_name}]"
        self.vq = vq
        # Running per-head counts over each history, advanced from a
        # cursor (the history length already counted).
        self._avail_ring = self._used_ring = None
        self._avail_pos = self._used_pos = 0
        self._avail_counts: Dict[int, int] = {}
        self._used_counts: Dict[int, int] = {}
        # The last sample's (cursors, avail_pos, used_pos) and the state
        # messages it produced.
        self._last = None
        self._state: Tuple[str, ...] = ()

    def _advance(self) -> bool:
        """Fold new history entries into the running head counts.

        A history that shrank below its cursor or was replaced by
        another list is recounted from zero. Returns True if a recount
        happened.
        """
        vq = self.vq
        rebuilt = False
        avail, used = vq.avail_ring, vq.used_ring
        if avail is not self._avail_ring or len(avail) < self._avail_pos:
            self._avail_ring, self._avail_pos = avail, 0
            self._avail_counts = {}
            rebuilt = True
        if used is not self._used_ring or len(used) < self._used_pos:
            self._used_ring, self._used_pos = used, 0
            self._used_counts = {}
            rebuilt = True
        counts = self._avail_counts
        for head in avail[self._avail_pos:]:
            counts[head] = counts.get(head, 0) + 1
        self._avail_pos = len(avail)
        counts = self._used_counts
        for head, _written in used[self._used_pos:]:
            counts[head] = counts.get(head, 0) + 1
        self._used_pos = len(used)
        return rebuilt

    def observe(self, sim) -> Iterable[str]:
        cursors = self.vq.cursors()
        rebuilt = self._advance()
        sample = (cursors, self._avail_pos, self._used_pos)
        last, self._last = self._last, sample
        if not rebuilt and sample == last:
            # Nothing moved: no rewinds, and the same state verdict.
            return self._state
        out = []
        if last is not None:
            for key, value in cursors.items():
                prev = last[0][key]
                if value < prev:
                    out.append(f"cursor {key} rewound {prev} -> {value}")
        self._state = tuple(self._state_checks(cursors))
        out.extend(self._state)
        return out

    def _state_checks(self, cursors: Dict[str, int]) -> List[str]:
        out = []
        if cursors["last_avail"] > cursors["avail_idx"]:
            out.append(f"consumed past production: last_avail="
                       f"{cursors['last_avail']} > avail_idx="
                       f"{cursors['avail_idx']}")
        if cursors["last_used"] > cursors["used_idx"]:
            out.append(f"driver read past used_idx: last_used="
                       f"{cursors['last_used']} > used_idx="
                       f"{cursors['used_idx']}")
        avail_counts, used_counts = self._avail_counts, self._used_counts
        size = self.vq.size
        for head in used_counts:
            if not 0 <= head < size:
                out.append(f"used head {head} outside ring of size {size}")
        for head in avail_counts:
            if not 0 <= head < size:
                out.append(f"avail head {head} outside ring of size {size}")
        for head, used in used_counts.items():
            avail = avail_counts.get(head, 0)
            if used > avail:
                out.append(
                    f"head {head} delivered {used}x but only made "
                    f"available {avail}x (exactly-once broken)")
        return out

    def at_end(self, sim) -> Iterable[str]:
        # The running counts trust the histories to be append-only; a
        # recount catches an entry rewritten in place behind the cursor.
        self._advance()
        avail = Counter(self.vq.avail_ring)
        used = Counter(head for head, _written in self.vq.used_ring)
        if avail != self._avail_counts or used != self._used_counts:
            return ("avail/used history rewritten in place: running head "
                    "counts disagree with a recount",)
        return ()


class ShadowSyncMonitor(InvariantMonitor):
    """Shadow-vring conservation, cursor monotonicity, sync windows.

    Watches every shadow vring of one IO-Bond port (shadows are created
    lazily on the first sync, so the port is scanned each sample):

    * entry conservation — everything synced into the shadow is in
      exactly one bucket (``conservation()['balance'] == 0``);
    * head/tail registers and the sync counters never rewind, and the
      tail never passes the head;
    * the backend can never see more published entries than the queue
      holds (``queued >= registers.pending``);
    * sync-window bounds against the guest ring: the shadow holds
      exactly the entries the guest made available
      (``synced_to_shadow == last_avail``) and has delivered exactly
      the completions the guest ring shows
      (``synced_to_guest == used_idx``).

    A shadow whose snapshot and guest cursors equal the previous
    sample's replays its previous state messages.
    """

    def __init__(self, port):
        self.name = f"shadow_sync[{port.name}]"
        self.port = port
        # Per shadow: the last snapshot, guest cursors, and the state
        # messages they produced, replayed while both are unchanged.
        self._last: Dict[str, Tuple[dict, dict, List[str]]] = {}

    _MONOTONIC = ("synced_to_shadow", "synced_to_guest", "replayed",
                  "duplicates_dropped", "head", "tail")

    def observe(self, sim) -> Iterable[str]:
        out = []
        for index, shadow in sorted(self.port.shadows.items()):
            snap = shadow.conservation()
            snap["head"] = shadow.registers.head
            snap["tail"] = shadow.registers.tail
            cursors = shadow.guest_vq.cursors()
            prev, prev_cursors, state = self._last.get(
                shadow.name, ({}, None, None))
            if snap == prev and cursors == prev_cursors:
                # Nothing moved: no rewinds, and the same state verdict.
                out.extend(state)
                continue
            for key in self._MONOTONIC:
                if key in prev and snap[key] < prev[key]:
                    out.append(f"{shadow.name}: {key} rewound "
                               f"{prev[key]} -> {snap[key]}")
            state = self._state_checks(shadow.name, snap, cursors)
            self._last[shadow.name] = (snap, cursors, state)
            out.extend(state)
        return out

    @staticmethod
    def _state_checks(name: str, snap: Dict[str, int],
                      cursors: Dict[str, int]) -> List[str]:
        out = []
        if snap["balance"] != 0:
            out.append(
                f"{name}: conservation broken, balance="
                f"{snap['balance']} ({snap!r})")
        if snap["tail"] > snap["head"]:
            out.append(f"{name}: tail {snap['tail']} passed "
                       f"head {snap['head']}")
        pending = snap["head"] - snap["tail"]
        if snap["queued"] < pending:
            out.append(
                f"{name}: {pending} entries published but only "
                f"{snap['queued']} queued (backend would read junk)")
        if snap["synced_to_shadow"] != cursors["last_avail"]:
            out.append(
                f"{name}: synced_to_shadow="
                f"{snap['synced_to_shadow']} != guest last_avail="
                f"{cursors['last_avail']} (sync window broken)")
        if snap["synced_to_guest"] != cursors["used_idx"]:
            out.append(
                f"{name}: synced_to_guest="
                f"{snap['synced_to_guest']} != guest used_idx="
                f"{cursors['used_idx']} (writeback window broken)")
        return out


class ConservationMonitor(InvariantMonitor):
    """Byte/token conservation through PCIe links, DMA, rate limiters.

    ``counters`` maps a label to a zero-argument callable returning a
    fresh dict of monotonic counters (``PcieLink.counters``,
    ``DmaEngine.counters``); any value that shrinks between samples is
    flagged, and while a label's snapshot is unchanged its previous
    negative-counter messages are replayed. ``buckets`` maps a label
    to a :class:`TokenBucket`; its raw token level must stay within
    ``[0, burst]`` (reading the raw field keeps this monitor
    side-effect free — see module docstring).
    """

    name = "conservation"

    def __init__(self, counters: Dict[str, object],
                 buckets: Dict[str, object] = None):
        self.counters = dict(counters)
        self.buckets = dict(buckets or {})
        self._labels = sorted(self.counters)
        self._bucket_labels = sorted(self.buckets)
        # Per label: the last snapshot and its negative-counter
        # messages, replayed while the snapshot is unchanged.
        self._last: Dict[str, Tuple[Dict[str, float], List[str]]] = {}

    def observe(self, sim) -> Iterable[str]:
        out = []
        for label in self._labels:
            snap = self.counters[label]()
            prev, negative = self._last.get(label, (None, None))
            if snap == prev:
                # Nothing shrank; the same counters are negative.
                out.extend(negative)
                continue
            prev = prev or {}
            negative = []
            for key, value in snap.items():
                if key in prev and value < prev[key] - _EPS:
                    out.append(f"{label}: counter {key} shrank "
                               f"{prev[key]} -> {value}")
                if value < -_EPS:
                    message = f"{label}: counter {key} negative: {value}"
                    out.append(message)
                    negative.append(message)
            self._last[label] = (snap, negative)
        for label in self._bucket_labels:
            bucket = self.buckets[label]
            tokens = bucket._tokens  # raw read: .tokens would refill
            if tokens < -_EPS or tokens > bucket.burst + _EPS:
                out.append(
                    f"{label}: token level {tokens} outside "
                    f"[0, burst={bucket.burst}]")
        return out


class AvailabilityMonitor(InvariantMonitor):
    """Downtime accounting is consistent at every instant.

    Per target: downtime never shrinks and never exceeds elapsed time;
    availability stays in ``[0, 1]``; completed down spans are
    well-formed (``start <= end``), chronological, and non-overlapping.
    At end of run (after ``finalize``) no span may remain open.
    """

    name = "availability"

    def __init__(self, accounting):
        self.accounting = accounting
        self._last_downtime: Dict[str, float] = {}

    def observe(self, sim) -> Iterable[str]:
        out = []
        now = sim.now
        for target in sorted(self.accounting.targets):
            downtime = self.accounting.downtime(target)
            prev = self._last_downtime.get(target, 0.0)
            if downtime < prev - _EPS:
                out.append(f"{target}: downtime shrank {prev} -> {downtime}")
            self._last_downtime[target] = downtime
            if downtime > now + _EPS:
                out.append(f"{target}: downtime {downtime} exceeds "
                           f"elapsed time {now}")
            availability = self.accounting.availability(target)
            if not -_EPS <= availability <= 1.0 + _EPS:
                out.append(f"{target}: availability {availability} "
                           f"outside [0, 1]")
            entry = self.accounting._target(target)
            last_end = 0.0
            for start, end in entry.down_spans:
                if end < start:
                    out.append(f"{target}: span ends before it starts "
                               f"({start}, {end})")
                if start < last_end - _EPS:
                    out.append(f"{target}: span ({start}, {end}) overlaps "
                               f"previous span ending {last_end}")
                last_end = end
            if entry.down_since is not None and entry.down_since > now + _EPS:
                out.append(f"{target}: down_since {entry.down_since} "
                           f"in the future")
        return out

    def at_end(self, sim) -> Iterable[str]:
        out = []
        for target in sorted(self.accounting.targets):
            entry = self.accounting._target(target)
            if entry.down_since is not None:
                out.append(
                    f"{target}: down span still open at end of run "
                    f"(since {entry.down_since}); finalize() not called?")
        return out


class QuiescenceMonitor(InvariantMonitor):
    """End-of-run leak audit: every workload done, nothing stuck.

    Built on :meth:`repro.sim.Simulator.audit`: after the run, every
    watched workload must have completed with an empty retry tracker,
    and the simulator may hold no live processes (outside the allowed
    daemon prefixes), held resource slots, or blocked store putters.
    """

    name = "quiescence"

    # Daemons that legitimately outlive every workload: per-guest poll
    # loops, supervisor watchers, and this suite's own sampler.
    DEFAULT_ALLOW = ("bmhv.", "supervisor.", "chaos.")

    def __init__(self, loads: Dict[str, object],
                 allow_processes: Tuple[str, ...] = DEFAULT_ALLOW):
        self.loads = dict(loads)
        self.allow_processes = tuple(allow_processes)

    def at_end(self, sim) -> Iterable[str]:
        out = []
        for name in sorted(self.loads):
            load = self.loads[name]
            if not load.done:
                out.append(f"workload {name} never finished "
                           f"({len(load.records)}/{load.n_requests} done)")
            tracker = load.tracker
            if tracker is not None and len(tracker) > 0:
                out.append(
                    f"workload {name} left heads {tracker.inflight_heads()} "
                    f"in flight (neither completed nor failed)")
        out.extend(sim.audit().offenders(self.allow_processes))
        return out


class RegressionProbeMonitor(InvariantMonitor):
    """Deliberately broken monitor for exercising the shrink pipeline.

    Flags a violation as soon as any ``dma_stall`` fault has been
    injected — a "regression" whose minimal reproducer is exactly one
    fault, so CI can assert the shrinker reduces an arbitrary failing
    campaign down to a single-fault plan. Never install this outside
    ``--inject-regression`` runs.
    """

    name = "regression_probe"

    def __init__(self, injector):
        self.injector = injector
        self._fired = False

    def observe(self, sim) -> Iterable[str]:
        if self._fired:
            return ()
        if any(spec.kind == "dma_stall" for spec in self.injector.injected):
            self._fired = True
            return ("probe tripped: dma_stall was injected "
                    "(synthetic regression)",)
        return ()
