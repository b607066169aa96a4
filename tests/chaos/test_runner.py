"""End-to-end campaigns: clean runs, byte-stable reports, oracle scope."""

import json

import pytest

from repro.chaos import (
    CampaignConfig,
    CampaignRunner,
    DifferentialOracle,
    RegressionProbeMonitor,
    ScenarioSpec,
)
from repro.faults.spec import FaultPlan, FaultSpec
from repro.sim import SnapshotError, set_idle_skip_default


def _quick_runner(**kwargs):
    return CampaignRunner(scenario=ScenarioSpec(n_requests=12), **kwargs)


@pytest.fixture(scope="module")
def outcome():
    """One full campaign, shared across read-only assertions."""
    return _quick_runner().run(seed=3)


class TestCampaignRun:
    def test_clean_campaign_has_no_violations(self, outcome):
        assert outcome.violations == []
        assert outcome.oracle_diffs == []
        assert not outcome.failed

    def test_every_guest_completes_every_request(self, outcome):
        for name, load in outcome.chaos.loads.items():
            assert load.done, name
            assert len(load.records) == load.n_requests
            assert load.failures == []
            assert load.duplicate_completions == 0

    def test_bystander_is_always_protected(self, outcome):
        assert "bystander" in outcome.protected
        assert outcome.plan.faults  # the campaign actually injected

    def test_both_runs_reach_the_same_fixed_clock(self, outcome):
        assert outcome.chaos.sim.now == outcome.until_s
        assert outcome.baseline.sim.now == outcome.until_s

    def test_report_is_json_and_carries_record_digests(self, outcome):
        report = json.loads(outcome.report_json())
        assert report["failed"] is False
        assert report["campaign_seed"] == 3
        assert sorted(report["guests"]) == ["bystander", "g0", "g1"]
        for entry in report["guests"].values():
            assert len(entry["records_sha256"]) == 64
        assert report["monitor_samples"] > 0

    def test_rerun_reproduces_report_byte_for_byte(self, outcome):
        again = _quick_runner().run(seed=3)
        assert again.report_json() == outcome.report_json()

    def test_monitors_actually_sampled_both_runs(self, outcome):
        assert outcome.chaos.suite.samples > 10
        assert outcome.baseline.suite.samples == outcome.chaos.suite.samples


class TestCheckpoint:
    def test_checkpointed_campaign_report_byte_identical(self, outcome):
        """snapshot -> rebuild -> restore -> run == straight through.

        ``checkpoint=True`` drains each freshly built scenario to
        parked quiescence at t=0, snapshots the kernel, rebuilds the
        whole testbed from scratch, and restores before executing the
        campaign — the byte-stable report must not notice.
        """
        check = _quick_runner().run(seed=3, checkpoint=True)
        assert check.report_json() == outcome.report_json()

    def test_checkpoint_with_faulty_campaign(self):
        probe = lambda ctx: [RegressionProbeMonitor(ctx.injector)]
        straight = _quick_runner(extra_monitors=probe).run(seed=1)
        check = _quick_runner(extra_monitors=probe).run(seed=1,
                                                        checkpoint=True)
        assert check.report_json() == straight.report_json()

    def test_checkpoint_fails_fast_under_busy_polling(self):
        # Busy-poll loops never empty the queue, so the t=0 drain
        # leaves events queued and the snapshot refuses them.
        old = set_idle_skip_default(False)
        try:
            with pytest.raises(SnapshotError, match="still queued"):
                _quick_runner().run(seed=3, checkpoint=True)
        finally:
            set_idle_skip_default(old)


class TestRunnerConfig:
    def test_bystander_in_targets_rejected(self):
        with pytest.raises(ValueError, match="bystander"):
            CampaignRunner(CampaignConfig(targets=("g0", "bystander")))

    def test_explicit_plan_overrides_generation(self):
        runner = _quick_runner()
        outcome = runner.run(seed=3, plan=FaultPlan.none())
        assert outcome.plan == FaultPlan.none()
        assert not outcome.failed


class TestRegressionProbe:
    def test_probe_turns_a_dma_stall_campaign_into_a_failure(self):
        runner = _quick_runner(
            extra_monitors=lambda ctx: [RegressionProbeMonitor(ctx.injector)])
        plan = FaultPlan.of(FaultSpec(
            kind="dma_stall", target="g0", at_s=1e-3, duration_s=1e-3))
        outcome = runner.run(seed=3, plan=plan)
        assert outcome.failed
        assert any(v.monitor == "regression_probe" for v in outcome.violations)
        # The baseline run (no faults) must stay clean even with the
        # probe installed — the failure is attributable to the plan.
        assert outcome.baseline.suite.ok


class TestOracle:
    def test_protected_guests_excludes_fault_targets(self):
        plan = FaultPlan.of(
            FaultSpec(kind="pcie_flap", target="g0", at_s=0.0,
                      duration_s=1e-3),
            FaultSpec(kind="backend_disconnect", target="vswitch", at_s=0.0,
                      duration_s=1e-3))
        protected = DifferentialOracle.protected_guests(
            plan, ("g0", "g1", "bystander"))
        assert protected == ("g1", "bystander")

    def test_compare_flags_record_divergence(self):
        class _Load:
            def __init__(self, records):
                self.records = records
                self.retries = 0
                self.failures = []

        baseline = {"g": _Load([(0, 0.0, 1.0, 0)])}
        faulted = {"g": _Load([(0, 0.0, 2.0, 0)])}
        diffs = DifferentialOracle.compare(baseline, faulted, ("g",))
        assert diffs and "g" in diffs[0]
        assert DifferentialOracle.compare(baseline, baseline, ("g",)) == []
