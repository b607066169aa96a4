"""Incremental invariant monitors agree with from-scratch checks.

The chaos monitors cache: routing re-certifies only when its key
(tables, topology version, up-link adjacency) changes, the ring
monitor keeps running head counts behind a cursor, and the shadow and
conservation monitors replay a verdict while their snapshot holds.
Each property drives random step sequences — honest protocol steps,
raw state edits that bypass the usual hooks, forged entries, in-place
pops — and after every step compares the incremental monitor with a
from-scratch oracle: ``RoutingInvariantMonitor.certify`` for routing,
and test-local copies of the uncached ``observe`` bodies for the rest.

The planted tests at the bottom edit state *behind* the cache key,
where sampling is blind by design; the uncached pass in ``at_end``
must flag them.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.monitors import (
    ConservationMonitor,
    ExactlyOnceRingMonitor,
    ShadowSyncMonitor,
)
from repro.fabric import FabricNetwork, RoutingInvariantMonitor, TopologySpec
from repro.iobond.shadow import ShadowVring
from repro.sim import Simulator
from repro.virtio.vring import VirtQueue

_EPS = 1e-9


def _steps(ops, max_size=30):
    return st.lists(st.tuples(st.sampled_from(ops),
                              st.integers(min_value=0, max_value=1 << 16)),
                    max_size=max_size)


# -- routing -------------------------------------------------------------

_ROUTING_OPS = ("fail_link", "restore_link", "crash_switch",
                "recover_switch", "attach_server", "raw_fail", "raw_restore",
                "snapshot", "restore_state")


def _small_clos():
    sim = Simulator(seed=19)
    net = FabricNetwork(sim, TopologySpec.clos(n_racks=2, n_spines=2))
    net.attach_server("s0")
    net.attach_server("s1")
    return sim, net


def _routing_step(net, op, arg, crashes, snapshots):
    links = net.link_names
    link = links[arg % len(links)]
    if op == "fail_link":
        net.fail_link(link)
    elif op == "restore_link":
        net.restore_link(link)
    elif op == "crash_switch":
        # Run the crash process up to its outage timeout; the links it
        # took down come back on "recover_switch".
        switch = net.switches[arg % len(net.switches)]
        crash = net.crash_switch(switch, 1e-6)
        next(crash)
        crashes.append(crash)
    elif op == "recover_switch":
        if crashes:
            next(crashes.pop(0), None)
    elif op == "attach_server":
        if len(net.servers) < 6:
            net.attach_server(f"s{len(net.servers)}")
    elif op == "raw_fail":
        net.link(link).fail()  # no recompute: tables go stale
    elif op == "raw_restore":
        net.link(link).restore()
    elif op == "snapshot":
        snapshots.append(net.snapshot_state())
    elif op == "restore_state":
        if snapshots:
            net.restore_state(snapshots[arg % len(snapshots)])


@settings(max_examples=150, deadline=None)
@given(_steps(_ROUTING_OPS))
def test_routing_replay_matches_certify(steps):
    sim, net = _small_clos()
    monitor = RoutingInvariantMonitor(net)
    crashes, snapshots = [], []
    assert list(monitor.observe(sim)) == monitor.certify()
    for op, arg in steps:
        _routing_step(net, op, arg, crashes, snapshots)
        assert list(monitor.observe(sim)) == monitor.certify(), (op, arg)
    # Nothing was edited behind the key, so the uncached pass adds at
    # most the end-of-run convergence message.
    extra = [m for m in monitor.at_end(sim) if "at end of run" not in m]
    assert extra == []


# -- exactly-once ring ---------------------------------------------------

class _RingOracle:
    """The uncached ring check: every head counted from the histories."""

    def __init__(self, vq):
        self.vq = vq
        self._last = {}

    def observe(self):
        out = []
        cursors = self.vq.cursors()
        for key, value in cursors.items():
            prev = self._last.get(key)
            if prev is not None and value < prev:
                out.append(f"cursor {key} rewound {prev} -> {value}")
        self._last = cursors
        if cursors["last_avail"] > cursors["avail_idx"]:
            out.append(f"consumed past production: last_avail="
                       f"{cursors['last_avail']} > avail_idx="
                       f"{cursors['avail_idx']}")
        if cursors["last_used"] > cursors["used_idx"]:
            out.append(f"driver read past used_idx: last_used="
                       f"{cursors['last_used']} > used_idx="
                       f"{cursors['used_idx']}")
        avail_counts = Counter(self.vq.avail_ring)
        used_counts = Counter(head for head, _ in self.vq.used_ring)
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


_RING_OPS = ("add", "consume", "complete", "reap", "repost", "forge_used",
             "rewind_idx", "pop_avail_in_place", "pop_used_in_place",
             "replace_used")


def _ring_step(vq, op, arg, held):
    """One driver, device or forging step; never corrupts the free list.

    ``held`` lists heads the device popped and has not completed. A
    used entry is reaped through ``get_used`` (which frees its chain)
    only while its chain is genuinely completed; any other entry —
    forged, duplicated, stale — just advances the driver's cursor.
    """
    size = vq.size
    if op == "add":
        if vq.num_free >= 2:
            vq.add_buffer([b"req"], [16])
    elif op == "consume":
        if (vq._last_avail < vq.avail_idx
                and vq._last_avail < len(vq.avail_ring)):
            held.append(vq.pop_avail().head)
    elif op == "complete":
        if held:
            vq.push_used(held.pop(arg % len(held)), 4)
    elif op == "reap":
        if vq._last_used < min(vq.used_idx, len(vq.used_ring)):
            head, _ = vq.used_ring[vq._last_used]
            if (0 <= head < size and head not in vq._free
                    and head not in held and not vq.is_avail_pending(head)):
                vq.get_used()
            else:
                vq._last_used += 1
    elif op == "repost":
        if held:
            vq.repost(held.pop(arg % len(held)))
    elif op == "forge_used":
        vq.used_ring.append((arg % (size + 3), 0))
        vq.used_idx += 1
    elif op == "rewind_idx":
        # A cursor moves back with no history edit.
        if arg % 2:
            vq.avail_idx -= 1
        else:
            vq.used_idx -= 1
    elif op == "pop_avail_in_place":
        if vq.avail_ring:
            vq.avail_ring.pop()
            if arg % 2:
                vq.avail_idx -= 1
    elif op == "pop_used_in_place":
        if vq.used_ring:
            vq.used_ring.pop()
            if arg % 2:
                vq.used_idx -= 1
    elif op == "replace_used":
        # A different list object, same length, last entry rewritten.
        if vq.used_ring:
            vq.used_ring = vq.used_ring[:-1] + [(arg % (size + 3), 0)]


@settings(max_examples=200, deadline=None)
@given(_steps(_RING_OPS, max_size=40))
def test_ring_running_counts_match_recount(steps):
    sim = Simulator(seed=19)
    vq = VirtQueue(size=8)
    monitor = ExactlyOnceRingMonitor("g", vq)
    oracle = _RingOracle(vq)
    held = []
    assert list(monitor.observe(sim)) == oracle.observe()
    for op, arg in steps:
        _ring_step(vq, op, arg, held)
        assert list(monitor.observe(sim)) == oracle.observe(), (op, arg)
    # Every edit above was sampled, so the recount agrees.
    assert list(monitor.at_end(sim)) == []


# -- shadow vrings -------------------------------------------------------

class _ShadowOracle:
    """The uncached shadow check, snapshot by snapshot."""

    _MONOTONIC = ShadowSyncMonitor._MONOTONIC

    def __init__(self, port):
        self.port = port
        self._last = {}

    def observe(self):
        out = []
        for index, shadow in sorted(self.port.shadows.items()):
            snap = dict(shadow.conservation())
            snap["head"] = shadow.registers.head
            snap["tail"] = shadow.registers.tail
            prev = self._last.get(shadow.name, {})
            for key in self._MONOTONIC:
                if key in prev and snap[key] < prev[key]:
                    out.append(f"{shadow.name}: {key} rewound "
                               f"{prev[key]} -> {snap[key]}")
            self._last[shadow.name] = snap
            if snap["balance"] != 0:
                out.append(
                    f"{shadow.name}: conservation broken, balance="
                    f"{snap['balance']} ({snap!r})")
            if snap["tail"] > snap["head"]:
                out.append(f"{shadow.name}: tail {snap['tail']} passed "
                           f"head {snap['head']}")
            pending = snap["head"] - snap["tail"]
            if snap["queued"] < pending:
                out.append(
                    f"{shadow.name}: {pending} entries published but only "
                    f"{snap['queued']} queued (backend would read junk)")
            cursors = shadow.guest_vq.cursors()
            if snap["synced_to_shadow"] != cursors["last_avail"]:
                out.append(
                    f"{shadow.name}: synced_to_shadow="
                    f"{snap['synced_to_shadow']} != guest last_avail="
                    f"{cursors['last_avail']} (sync window broken)")
            if snap["synced_to_guest"] != cursors["used_idx"]:
                out.append(
                    f"{shadow.name}: synced_to_guest="
                    f"{snap['synced_to_guest']} != guest used_idx="
                    f"{cursors['used_idx']} (writeback window broken)")
        return out


class _Port:
    def __init__(self, shadows):
        self.name = "blk"
        self.shadows = shadows


_SHADOW_OPS = ("add", "sync", "poll", "complete", "flush", "replay",
               "forge_synced", "drop_entry", "rewind_guest", "add_queue")


def _shadow_step(port, op, arg, polled):
    shadows = port.shadows
    shadow = shadows[arg % len(shadows)]
    vq = shadow.guest_vq
    if op == "add":
        if vq.num_free >= 2:
            vq.add_buffer([b"data"], [64])
    elif op == "sync":
        staged, _ = shadow.stage_from_guest()
        shadow.publish_staged(staged)
    elif op == "poll":
        entry = shadow.backend_poll()
        if entry is not None:
            polled.append((shadow, entry.guest_head))
    elif op == "complete":
        if polled:
            owner, head = polled.pop(arg % len(polled))
            owner.backend_complete(head, b"ok")
    elif op == "flush":
        shadow.flush_to_guest()
        while vq.get_used() is not None:
            pass
    elif op == "replay":
        shadow.replay_consumed()
        polled[:] = [(s, h) for s, h in polled if s is not shadow]
    elif op == "forge_synced":
        shadow.synced_to_shadow += 1 if arg % 2 else -1
    elif op == "drop_entry":
        if shadow._entries:
            shadow._entries.popleft()
    elif op == "rewind_guest":
        vq.used_idx -= 1
    elif op == "add_queue":
        if len(shadows) < 3:
            index = len(shadows)
            shadows[index] = ShadowVring(VirtQueue(size=8),
                                         name=f"blk.q{index}")


@settings(max_examples=150, deadline=None)
@given(_steps(_SHADOW_OPS))
def test_shadow_replay_matches_recheck(steps):
    sim = Simulator(seed=19)
    port = _Port({0: ShadowVring(VirtQueue(size=8), name="blk.q0")})
    monitor = ShadowSyncMonitor(port)
    oracle = _ShadowOracle(port)
    polled = []
    assert list(monitor.observe(sim)) == oracle.observe()
    for op, arg in steps:
        _shadow_step(port, op, arg, polled)
        assert list(monitor.observe(sim)) == oracle.observe(), (op, arg)


# -- counters ------------------------------------------------------------

class _ConservationOracle:
    """The uncached counter check (token buckets are not cached)."""

    def __init__(self, counters):
        self.counters = counters
        self._last = {}

    def observe(self):
        out = []
        for label in sorted(self.counters):
            snap = self.counters[label]()
            prev = self._last.get(label, {})
            for key, value in snap.items():
                if key in prev and value < prev[key] - _EPS:
                    out.append(f"{label}: counter {key} shrank "
                               f"{prev[key]} -> {value}")
                if value < -_EPS:
                    out.append(f"{label}: counter {key} negative: {value}")
            self._last[label] = snap
        return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("b.dma", "a.link")),
                          st.sampled_from(("bytes", "copies")),
                          st.integers(min_value=-2, max_value=3)),
                max_size=30))
def test_conservation_replay_matches_recheck(steps):
    sim = Simulator(seed=19)
    state = {"b.dma": {"bytes": 0, "copies": 0},
             "a.link": {"bytes": 0, "copies": 0}}
    counters = {label: (lambda label=label: dict(state[label]))
                for label in state}
    monitor = ConservationMonitor(counters)
    oracle = _ConservationOracle(counters)
    assert list(monitor.observe(sim)) == oracle.observe()
    for label, key, delta in steps:
        state[label][key] += delta  # delta 0: an unchanged snapshot
        assert list(monitor.observe(sim)) == oracle.observe()
        assert list(monitor.observe(sim)) == oracle.observe()


# -- edits behind the cache key --------------------------------------------

def test_routing_table_edit_behind_the_key_flagged_at_end():
    sim, net = _small_clos()
    monitor = RoutingInvariantMonitor(net)
    assert list(monitor.observe(sim)) == []
    # Corrupt one distance in place: no version, recompute or
    # adjacency change, so sampling replays the clean verdict.
    entry = net.tables._dist["s0"]
    entry["storage"] = entry["storage"] * 3
    assert list(monitor.observe(sim)) == []
    messages = list(monitor.at_end(sim))
    assert messages and all(m.startswith("s0 -> storage") for m in messages)


def test_used_entry_rewritten_in_place_flagged_at_end():
    sim = Simulator(seed=19)
    vq = VirtQueue(size=8)
    heads = [vq.add_buffer([b"req"], [64]) for _ in range(3)]
    for _ in heads:
        vq.push_used(vq.pop_avail().head, 4)
    monitor = ExactlyOnceRingMonitor("g", vq)
    assert list(monitor.observe(sim)) == []
    # Forge a double delivery at equal length with equal cursors.
    vq.used_ring[1] = vq.used_ring[0]
    assert list(monitor.observe(sim)) == []
    assert list(monitor.at_end(sim)) == [
        "avail/used history rewritten in place: running head counts "
        "disagree with a recount"]
