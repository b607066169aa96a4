"""The simulation kernel's event queue: one binary heap.

The kernel's ordering contract is exact: entries are ``(when, counter,
event)`` tuples and pop in ascending ``(when, counter)`` order.
``counter`` values are unique (the simulator assigns them from a single
monotone counter at push time), so the ``event`` field never takes part
in a comparison. The property tests in ``tests/sim/test_queue.py``
drive random schedules through :class:`HeapQueue` and a naive
sorted-list model and require identical observations.

The queue keeps no counters of its own: it writes the depth/traffic
counters (``events_pushed``, ``queue_len_max``, ``queue_len_sum``)
straight into the :class:`~repro.sim.core.EventStats` it is given, so
the stats object is their single owner and holds no reference back to
the queue.

Batch traffic (DESIGN.md §14): homogeneous event floods — the
vectorized churn engine's per-batch wakeups — go through
``push_batch``, which is observably identical to the equivalent loop
of ``push`` calls (same pop order, same counters) but bulk-loads with
``heapify`` when the batch rivals the resident heap.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, List, Tuple

__all__ = ["HeapQueue"]

_INF = float("inf")

#: Entry layout: ``(when, insertion counter, event)``.
Entry = Tuple[float, int, object]


class HeapQueue:
    """Event queue: a single binary heap counting into ``stats``."""

    __slots__ = ("_heap", "_stats")

    def __init__(self, stats):
        self._heap: List[Entry] = []
        self._stats = stats

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, when: float, counter: int, event) -> None:
        heap = self._heap
        heappush(heap, (when, counter, event))
        stats = self._stats
        stats.events_pushed += 1
        n = len(heap)
        if n > stats.queue_len_max:
            stats.queue_len_max = n

    def pop(self) -> Entry:
        heap = self._heap
        if not heap:
            # Raise before touching any counter: the kernel's drain
            # loop pops until IndexError, and a failed pop must not
            # perturb the depth statistics.
            raise IndexError("pop from an empty event queue")
        self._stats.queue_len_sum += len(heap)
        return heappop(heap)

    def peek_when(self) -> float:
        heap = self._heap
        return heap[0][0] if heap else _INF

    def push_batch(self, entries: Iterable[Entry]) -> None:
        """Push many entries; equivalent to ``push`` in a loop.

        When the batch is large relative to the resident heap, bulk
        ``extend`` + ``heapify`` beats n sift-ups; small batches keep
        the incremental path so a resident million-entry heap is not
        rebuilt for a handful of pushes.
        """
        entries = list(entries)
        if not entries:
            return
        heap = self._heap
        if len(entries) * 4 >= len(heap):
            heap.extend(entries)
            heapify(heap)
        else:
            for entry in entries:
                heappush(heap, entry)
        stats = self._stats
        stats.events_pushed += len(entries)
        n = len(heap)
        if n > stats.queue_len_max:
            stats.queue_len_max = n
