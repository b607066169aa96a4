"""Event-queue contract: ascending ``(when, insertion counter)``.

The kernel's ordering contract is exact, with counters unique at push
time. The property tests here drive random push/pop/peek/``push_batch``
schedules through :class:`HeapQueue` and through a naive sorted-list
model of the contract, and require identical observations and
counters.
"""

import bisect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EventStats, HeapQueue, Simulator

_COUNTERS = ("events_pushed", "queue_len_max", "queue_len_sum")


def _queue():
    return HeapQueue(EventStats())


def _drain(queue):
    out = []
    while True:
        try:
            out.append(queue.pop())
        except IndexError:
            return out


def _counters(queue):
    return {name: getattr(queue._stats, name) for name in _COUNTERS}


class TestQueueBasics:
    def test_pops_in_when_then_counter_order(self):
        queue = _queue()
        entries = [(3e-6, 0, "a"), (1e-6, 1, "b"), (3e-6, 2, "c"),
                   (0.0, 3, "d"), (1e-6, 4, "e")]
        for when, counter, event in entries:
            queue.push(when, counter, event)
        assert _drain(queue) == sorted(entries)

    def test_len_tracks_contents(self):
        queue = _queue()
        assert len(queue) == 0
        queue.push(1e-6, 0, None)
        queue.push(2e-6, 1, None)
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0

    def test_peek_when_without_popping(self):
        queue = _queue()
        assert queue.peek_when() == float("inf")
        queue.push(5e-6, 0, None)
        queue.push(2e-6, 1, None)
        assert queue.peek_when() == 2e-6
        assert len(queue) == 2

    def test_empty_pop_raises_without_counter_side_effects(self):
        queue = _queue()
        queue.push(1e-6, 0, None)
        queue.pop()
        before = (_counters(queue), len(queue))
        for _ in range(3):
            with pytest.raises(IndexError):
                queue.pop()
        assert (_counters(queue), len(queue)) == before

    def test_traffic_and_depth_counters(self):
        queue = _queue()
        for counter in range(4):
            queue.push(counter * 1e-6, counter, None)
        assert queue._stats.events_pushed == 4
        assert queue._stats.queue_len_max == 4
        _drain(queue)
        # queue_len_sum accumulates the pre-pop depth: 4 + 3 + 2 + 1.
        assert queue._stats.queue_len_sum == 10


# -- property: the heap matches a naive model of the contract ----------

class _SortedListModel:
    """The pop-order contract and its counters, spelled out naively."""

    def __init__(self):
        self.entries = []
        self.counters = dict.fromkeys(_COUNTERS, 0)

    def __len__(self):
        return len(self.entries)

    def push(self, when, counter, event):
        bisect.insort(self.entries, (when, counter, event))
        self.counters["events_pushed"] += 1
        self.counters["queue_len_max"] = max(self.counters["queue_len_max"],
                                             len(self.entries))

    def push_batch(self, entries):
        for entry in entries:
            self.push(*entry)

    def pop(self):
        if not self.entries:
            raise IndexError("pop from an empty event queue")
        self.counters["queue_len_sum"] += len(self.entries)
        return self.entries.pop(0)

    def peek_when(self):
        return self.entries[0][0] if self.entries else float("inf")


# Timestamps mix dense near-monotonic microsecond schedules with
# far-future outliers (boot delays, watchdog budgets).
_whens = st.one_of(
    st.floats(min_value=0.0, max_value=200e-6, allow_nan=False,
              allow_infinity=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
              allow_infinity=False),
)
_ops = st.lists(
    st.one_of(st.tuples(st.just("push"), _whens),
              st.tuples(st.just("batch"), st.lists(_whens, max_size=40)),
              st.tuples(st.just("pop")),
              st.tuples(st.just("peek"))),
    max_size=200,
)


def _run_schedule(queue, ops):
    """Apply a schedule; returns the observation sequence."""
    counter = itertools.count()
    observed = []
    for op in ops:
        if op[0] == "push":
            queue.push(op[1], next(counter), None)
        elif op[0] == "batch":
            queue.push_batch([(when, next(counter), None) for when in op[1]])
        elif op[0] == "peek":
            observed.append(("peek", queue.peek_when()))
        else:
            try:
                observed.append(("pop", queue.pop()[:2]))
            except IndexError:
                observed.append(("pop", "empty"))
        observed.append(("len", len(queue)))
    observed.append(("drain", [entry[:2] for entry in _drain(queue)]))
    return observed


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_property_heap_matches_sorted_list_model(ops):
    heap = _queue()
    model = _SortedListModel()
    assert _run_schedule(heap, ops) == _run_schedule(model, ops)
    assert _counters(heap) == model.counters


# -- push_batch --------------------------------------------------------

_batch_whens = st.lists(
    st.floats(min_value=0.0, max_value=1e-3,
              allow_nan=False, allow_infinity=False),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(pre=_batch_whens, batch=_batch_whens)
def test_property_push_batch_equals_sequential_pushes(pre, batch):
    """push_batch is observably one loop of push: order AND counters."""
    counter = itertools.count()
    pre_entries = [(when, next(counter), None) for when in pre]
    batch_entries = [(when, next(counter), None) for when in batch]

    sequential = _queue()
    batched = _queue()
    for entry in pre_entries:
        sequential.push(*entry)
        batched.push(*entry)
    for entry in batch_entries:
        sequential.push(*entry)
    batched.push_batch(batch_entries)

    assert _counters(batched) == _counters(sequential)
    assert _drain(batched) == _drain(sequential)


def test_push_batch_empty_is_noop():
    queue = _queue()
    queue.push_batch([])
    assert len(queue) == 0
    assert _counters(queue)["events_pushed"] == 0


def test_schedule_batch_matches_sequential_schedules():
    """Simulator.schedule_batch fires callbacks in timestamp order."""

    def run(batch):
        sim = Simulator(seed=7)
        log = []
        whens = [3e-6, 1e-6, 2e-6, 1e-6, 5e-6]
        events = [sim.event() for _ in whens]
        for index, ev in enumerate(events):
            ev.callbacks = [
                lambda _, index=index: log.append((sim.now, index))]
        if batch:
            sim.schedule_batch(whens, events)
        else:
            for when, ev in zip(whens, events):
                sim._schedule_at(when, ev)
        sim.run()
        return log

    assert run(batch=True) == run(batch=False)


def test_schedule_batch_length_mismatch_raises():
    sim = Simulator(seed=0)
    with pytest.raises(ValueError):
        sim.schedule_batch([1e-6], [])
