"""Correlated-failure campaigns over a region: seeded, clean, byte-stable."""

import pytest

from repro.chaos.campaign import (
    REGION_KIND_WEIGHTS,
    CampaignConfig,
    CampaignGenerator,
)
from repro.experiments.region_campaign import RegionCampaignRunner
from repro.faults.spec import REGION_KINDS
from repro.fleet import RegionSpec


def _small_runner(duration_s=6.0):
    spec = RegionSpec(n_racks=2, servers_per_rack=2, boards_per_server=4,
                      duration_s=duration_s, arrival_rate_per_s=12.0,
                      mean_lifetime_s=1.0)
    config = CampaignConfig.region(
        racks=spec.rack_names(), tors=spec.tor_names(),
        servers=spec.server_names(), horizon_s=2.0)
    return RegionCampaignRunner(spec=spec, config=config)


class TestRegionPreset:
    def test_preset_samples_only_region_kinds(self):
        spec = RegionSpec()
        config = CampaignConfig.region(
            racks=spec.rack_names(), tors=spec.tor_names(),
            servers=spec.server_names())
        gen = CampaignGenerator(config)
        seen = set()
        for seed in range(30):
            for fault in gen.plan(seed).schedule():
                seen.add(fault.kind)
                assert fault.kind in REGION_KINDS
                if fault.kind == "rack_power":
                    assert fault.target in spec.rack_names()
                elif fault.kind == "tor_down":
                    assert fault.target in spec.tor_names()
                else:
                    assert fault.target in spec.server_names()
        assert seen == set(REGION_KINDS)

    def test_preset_without_racks_drops_rack_power(self):
        spec = RegionSpec(n_racks=2)
        config = CampaignConfig.region(
            racks=(), tors=(), servers=spec.server_names())
        gen = CampaignGenerator(config)
        for seed in range(20):
            for fault in gen.plan(seed).schedule():
                assert fault.kind == "correlated_board_hang"

    def test_preset_generation_is_pure(self):
        spec = RegionSpec()
        config = CampaignConfig.region(
            racks=spec.rack_names(), tors=spec.tor_names(),
            servers=spec.server_names())
        gen = CampaignGenerator(config)
        plans = [gen.plan(7) for _ in range(3)]
        assert plans[0] == plans[1] == plans[2]

    def test_weights_cover_region_kinds(self):
        assert [k for k, _ in REGION_KIND_WEIGHTS] == list(REGION_KINDS)


class TestRunner:
    def test_multi_seed_sweep_is_clean(self):
        runner = _small_runner()
        outcomes = runner.sweep(range(4))
        for outcome in outcomes:
            assert not outcome.failed, "; ".join(
                str(v) for v in outcome.violations)
            assert outcome.region.report()["audit_ok"]

    def test_every_ticket_closes_before_the_run_ends(self):
        runner = _small_runner()
        outcome = runner.run(seed=1)
        assert all(t.closed for t in outcome.region.pipeline.tickets)

    def test_report_is_byte_deterministic(self):
        blobs = {_small_runner().run(seed=2).report_json() for _ in range(2)}
        assert len(blobs) == 1

    def test_explicit_plan_overrides_generation(self):
        from repro.faults.spec import FaultPlan, FaultSpec

        runner = _small_runner()
        plan = FaultPlan.of(FaultSpec(
            kind="rack_power", target="rack-0", at_s=1.0, duration_s=0.5))
        outcome = runner.run(seed=3, plan=plan)
        assert outcome.plan is plan
        assert [f["kind"] for f in outcome.report()["region"]["faults"]] == [
            "rack_power"]

    def test_report_shape(self):
        outcome = _small_runner().run(seed=4)
        report = outcome.report()
        assert report["campaign_seed"] == 4
        assert report["n_faults"] == len(outcome.plan)
        assert report["monitor_samples"] > 0
        assert report["failed"] is False
