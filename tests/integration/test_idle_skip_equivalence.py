"""Seed-for-seed equivalence gate for doorbell idle-skip.

The doorbell quantizes wakeups onto the exact poll grid a busy-polling
loop would have used, so flipping idle-skip off (the reference
busy-poll behavior) must change *nothing observable*: same boot
records, same final clock, same RNG consumption — only the event count
moves. These tests run the two full-fidelity boot flows, and the
experiments and chaos campaigns built on standing poll loops, both
ways and require identical outputs.
"""

import json

import pytest

from repro.chaos import CampaignConfig, CampaignRunner, ScenarioSpec
from repro.core import VirtServer, vm_boot_via_rings
from repro.core.server import BmHiveServer
from repro.experiments import fault_isolation, mq_ablation
from repro.guest import VmImage
from repro.sim import Simulator, global_event_totals, set_idle_skip_default


@pytest.fixture(params=[True, False], ids=["idle_skip_on", "idle_skip_off"])
def idle_skip(request):
    old = set_idle_skip_default(request.param)
    yield request.param
    set_idle_skip_default(old)


def _bm_boot(seed):
    sim = Simulator(seed=seed)
    server = BmHiveServer(sim)
    guest = server.launch_guest()
    record = sim.run_process(server.boot_guest(guest, VmImage("centos7-cloud")))
    return sim, record


def _vm_boot(seed):
    sim = Simulator(seed=seed)
    server = VirtServer(sim)
    guest = server.launch_guest()
    record, stats = sim.run_process(vm_boot_via_rings(sim, guest, VmImage("centos7-cloud")))
    return sim, (record, stats)


class TestSeedForSeedEquivalence:
    @pytest.mark.parametrize("boot", [_bm_boot, _vm_boot], ids=["bm", "vm"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_boot_identical_with_and_without_idle_skip(self, boot, seed):
        old = set_idle_skip_default(True)
        try:
            sim_on, result_on = boot(seed)
            set_idle_skip_default(False)
            sim_off, result_off = boot(seed)
        finally:
            set_idle_skip_default(old)
        assert result_on == result_off
        assert sim_on.now == sim_off.now  # bit-identical, not approx
        # The whole point: the skip removes events, a lot of them.
        assert sim_on.stats.events_popped < sim_off.stats.events_popped / 5
        assert sim_off.stats.idle_poll_events > 0
        assert sim_on.stats.idle_poll_events == 0
        assert sim_on.stats.doorbell_parks > 0
        assert sim_on.stats.idle_polls_skipped > 0

    def test_boot_works_under_either_default(self, idle_skip):
        # Smoke both settings through the process-wide default.
        sim, record = _bm_boot(seed=3)
        assert record.boot_time_s > 0
        if idle_skip:
            assert sim.stats.doorbell_parks > 0
        else:
            assert sim.stats.idle_poll_events > 0


def _campaign(config=None):
    runner = CampaignRunner(config=config,
                            scenario=ScenarioSpec(n_requests=12))
    return runner.run(3).report_json()


WORKLOADS = {
    "fault_isolation": lambda: json.dumps(
        fault_isolation.run(seed=0, quick=True).rows, sort_keys=True),
    "mq_ablation": lambda: json.dumps(
        mq_ablation.run(seed=0, quick=True).rows, sort_keys=True),
    "chaos_campaign": _campaign,
    # The fabric-only plan the link-flap chaos smoke runs.
    "chaos_link_flap": lambda: _campaign(CampaignConfig(kind_weights=(
        ("link_flap", 1.0), ("switch_crash", 0.5)))),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_identical_under_busy_polling(name):
    outputs, idle_polls = {}, {}
    for enabled in (True, False):
        old = set_idle_skip_default(enabled)
        before = global_event_totals()["idle_poll_events"]
        try:
            outputs[enabled] = WORKLOADS[name]()
        finally:
            set_idle_skip_default(old)
        idle_polls[enabled] = global_event_totals()["idle_poll_events"] - before
    assert outputs[True] == outputs[False]
    # Busy polling really ran, so the comparison is not vacuous.
    assert idle_polls[False] > 0
