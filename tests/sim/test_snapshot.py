"""Kernel snapshot/restore: checkpoints are invisible to the physics.

The contract under test: run a simulation to quiescence, snapshot,
rebuild an identical simulation, park it, restore — and everything
observable from then on (clock, insertion counters, RNG draws,
participant state) is bit-identical to just continuing the original.
Both idle-skip modes are covered; the campaign-level equivalence
(checkpointed vs straight-through chaos reports) lives in
``tests/chaos/test_runner.py``.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import common
from repro.guest.image import VmImage
from repro.sim import KernelSnapshot, Simulator, SnapshotError
from repro.sim.doorbell import set_idle_skip_default
from repro.workloads.fio import fio_run


@pytest.fixture(params=[True, False], ids=["idle_skip_on", "idle_skip_off"])
def idle_skip(request):
    old = set_idle_skip_default(request.param)
    yield request.param
    set_idle_skip_default(old)


def _tick(sim, delay=1e-6):
    """Run one timeout through the kernel (generates queue traffic)."""

    def proc():
        yield sim.timeout(delay)

    sim.run_process(proc())


def _phase(sim, log, names, n_steps):
    """Spawn timeout workers that record (now, name, step, draw) rows."""

    def worker(name, period):
        for step in range(n_steps):
            yield sim.timeout(period)
            log.append((sim.now, name, step,
                        float(sim.streams.get(f"snap.{name}").uniform())))

    for index, name in enumerate(names):
        sim.spawn(worker(name, (index + 3) * 1e-6))
    sim.run()


class TestSnapshotRestoreEquivalence:
    def test_warm_run_bit_identical_to_straight_through(self, idle_skip):
        # Straight through: phase 1 then phase 2, one simulator.
        sim = Simulator(seed=7)
        log = []
        _phase(sim, log, ("a", "b"), 4)
        reference_phase2 = []
        _phase(sim, reference_phase2, ("c", "d"), 4)

        # Interrupted: phase 1, snapshot, rebuild, restore, phase 2.
        source = Simulator(seed=7)
        source_log = []
        _phase(source, source_log, ("a", "b"), 4)
        assert source_log == log
        snap = source.snapshot()

        target = Simulator(seed=7)
        target.run()  # no-op park; mirrors the testbed rebuild protocol
        target.restore(snap)
        assert target.now == source.now
        warm_phase2 = []
        _phase(target, warm_phase2, ("c", "d"), 4)
        assert warm_phase2 == reference_phase2

    def test_insertion_counters_continue(self, idle_skip):
        def next_scheduled_counter(sim):
            sim.timeout(1e-6)
            _, counter, _ = sim._queue.pop()
            return counter

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = Simulator(seed=0)
            _tick(sim)
            snap = sim.snapshot()
            # Reading the counter position consumes no counter.
            assert sim.snapshot().next_counter == snap.next_counter
            assert next_scheduled_counter(sim) == snap.next_counter

            # The rebuilt kernel continues where the original stopped,
            # so pop order across the seam is seamless.
            target = Simulator(seed=0)
            target.restore(snap)
            assert next_scheduled_counter(target) == snap.next_counter

    def test_rng_streams_created_after_restore_are_deterministic(self):
        source = Simulator(seed=11)
        float(source.streams.get("early").uniform())
        snap = source.snapshot()

        target = Simulator(seed=11)
        target.restore(snap)
        # A stream first touched *after* restore still seeds by name.
        late = Simulator(seed=11).streams.get("late")
        assert float(target.streams.get("late").uniform()) == float(
            late.uniform())


class TestSnapshotPreconditions:
    def test_snapshot_requires_empty_queue(self):
        sim = Simulator()
        sim.timeout(1e-3)  # Timeout self-schedules into the queue
        with pytest.raises(SnapshotError, match="still queued"):
            sim.snapshot()

    def test_restore_requires_empty_queue(self):
        snap = Simulator().snapshot()
        busy = Simulator()
        busy.timeout(1e-3)
        with pytest.raises(SnapshotError, match="queued"):
            busy.restore(snap)

    def test_restore_rejects_missing_participants(self):
        class Part:
            def snapshot_state(self):
                return {"x": 1}

            def restore_state(self, state):
                pass

        source = Simulator()
        source.register_participant("bmhv:guest", Part())
        snap = source.snapshot()
        bare = Simulator()
        with pytest.raises(SnapshotError, match="bmhv:guest"):
            bare.restore(snap)

    def test_reregistering_a_key_replaces(self):
        class Part:
            def __init__(self, tag):
                self.tag = tag
                self.restored = None

            def snapshot_state(self):
                return {"tag": self.tag}

            def restore_state(self, state):
                self.restored = state

        sim = Simulator()
        old, new = Part("old"), Part("new")
        sim.register_participant("bmhv:g", old)
        # Crash recovery / live upgrade rebuild under the same key.
        sim.register_participant("bmhv:g", new)
        snap = sim.snapshot()
        assert snap.participants["bmhv:g"] == {"tag": "new"}
        sim.restore(snap)
        assert new.restored == {"tag": "new"}
        assert old.restored is None


class TestRestoreStats:
    def _snapshot_with_traffic(self):
        sim = Simulator()
        _tick(sim)
        assert sim.stats.events_popped > 0
        return sim.snapshot()

    def test_restore_continues_counters(self):
        snap = self._snapshot_with_traffic()
        target = Simulator()
        target.restore(snap)
        assert target.stats.events_popped == snap.stats["events_popped"]
        assert target.stats.events_pushed == snap.stats["events_pushed"]


class TestSnapshotPayload:
    def test_snapshot_is_plain_data(self):
        import pickle

        sim = Simulator(seed=3)
        float(sim.streams.get("s").uniform())
        snap = sim.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert isinstance(clone, KernelSnapshot)
        target = Simulator(seed=3)
        target.restore(clone)
        assert target.now == sim.now


class TestParticipantRoundTrip:
    """Post-boot, post-traffic participant state survives a rebuild."""

    KINDS = ("bmhv", "limits", "nic", "storage")

    @pytest.fixture(autouse=True)
    def idle_skip_on(self):
        # Busy-poll loops never park, so only idle-skip reaches the
        # quiescent point a snapshot needs.
        old = set_idle_skip_default(True)
        yield
        set_idle_skip_default(old)

    @staticmethod
    def _by_kind(snap, kind):
        return {key: state for key, state in snap.participants.items()
                if key.split(":", 1)[0] == kind}

    def test_booted_testbed_round_trips(self):
        bed = common.TestbedBuilder().seed(5).build()
        image = VmImage(name="snapshot-base")
        for hive in bed.hives:
            for guest in hive.guests:
                bed.sim.run_process(hive.boot_guest(guest, image))
        fio_run(bed.sim, bed.bm, pattern="randread", ops_per_thread=50)
        bed.sim.run()
        snap = bed.sim.snapshot()

        pristine = common.TestbedBuilder().seed(5).build()
        pristine.sim.run()
        never_booted = pristine.sim.snapshot()
        for kind in self.KINDS:
            assert self._by_kind(snap, kind), kind
            assert (self._by_kind(snap, kind)
                    != self._by_kind(never_booted, kind)), kind

        rebuilt = common.TestbedBuilder().seed(5).build()
        for guest in rebuilt.bm_guests:
            guest.hypervisor.start()
        rebuilt.sim.run()
        rebuilt.sim.restore(snap)
        assert rebuilt.sim.snapshot() == snap


# -- property: interrupt anywhere, outcome never changes ---------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       cut=st.integers(min_value=1, max_value=4))
def test_property_snapshot_restore_any_cut_point(seed, cut):
    """Split a 5-batch workload at any batch boundary; rows identical."""

    def batches(sim, log, start, stop):
        for batch in range(start, stop):
            _phase(sim, log, (f"g{batch}",), 3)

    straight = Simulator(seed=seed)
    straight_log = []
    batches(straight, straight_log, 0, 5)

    source = Simulator(seed=seed)
    warm_log = []
    batches(source, warm_log, 0, cut)
    snap = source.snapshot()
    target = Simulator(seed=seed)
    target.run()
    target.restore(snap)
    batches(target, warm_log, cut, 5)

    assert warm_log == straight_log
