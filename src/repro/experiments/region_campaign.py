"""Correlated-failure campaigns against a whole region (DESIGN.md §13).

Where :class:`~repro.chaos.runner.CampaignRunner` drills one server's
datapaths, this experiment drills the *control plane*: each campaign
seed samples a plan of correlated faults (``rack_power``,
``tor_down``, ``correlated_board_hang``) from the region preset of
:class:`~repro.chaos.campaign.CampaignConfig`, lands it on a
:class:`~repro.fleet.region.Region` under full arrival/exit churn,
and checks the remediation invariants with the region monitor set
while the drill runs.

Campaigns assert *invariants*, not SLOs: a plan that takes out two
racks at once may legitimately shed load and even fail drains for want
of capacity, but placement must never select quarantined servers,
drains must resolve each guest exactly once, shedding must stay
tier-ordered, and every remediation ticket must close before the run
ends. Everything is a pure function of the campaign seed — same seed,
same plan, same report bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.chaos.campaign import CampaignConfig, CampaignGenerator
from repro.chaos.monitors import MonitorSuite, Violation
from repro.experiments.base import ExperimentResult, check
from repro.faults.spec import FaultPlan
from repro.fleet.monitors import region_monitors
from repro.fleet.region import Region, RegionSpec
from repro.sim import Simulator

EXPERIMENT_ID = "region_campaign"
TITLE = "Correlated-fault region campaigns: remediation invariants hold"

#: Region run length per campaign: faults land inside the preset's
#: 4 s horizon, leaving every remediation ticket time to close.
DURATION_S = 8.0


@dataclass
class RegionCampaignOutcome:
    """One region campaign: the plan, the drill, the verdict."""

    seed: int
    plan: FaultPlan
    region: Region
    suite: MonitorSuite

    @property
    def violations(self) -> List[Violation]:
        return self.suite.violations

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def report(self) -> Dict:
        """Deterministic JSON-able summary (simulated quantities only)."""
        return {
            "campaign_seed": self.seed,
            "n_faults": len(self.plan),
            "plan": self.plan.to_dict(),
            "region": self.region.report(),
            "monitor_samples": self.suite.samples,
            "violations": [str(v) for v in self.violations],
            "failed": self.failed,
        }

    def report_json(self) -> str:
        return json.dumps(self.report(), indent=2, sort_keys=True)


class RegionCampaignRunner:
    """Runs seeded correlated-failure campaigns over one region shape.

    The default region is smaller/shorter than the resilience drill's
    (10 simulated seconds, faults inside the first 4) so a multi-seed
    sweep stays cheap while leaving every remediation ticket enough
    tail to close — the monitors fail the campaign if one does not.
    """

    def __init__(self, spec: Optional[RegionSpec] = None,
                 config: Optional[CampaignConfig] = None,
                 monitor_period_s: float = 50e-3):
        self.spec = spec or RegionSpec(duration_s=10.0)
        self.config = config or CampaignConfig.region(
            racks=self.spec.rack_names(),
            tors=self.spec.tor_names(),
            servers=self.spec.server_names(),
        )
        self.generator = CampaignGenerator(self.config)
        self.monitor_period_s = monitor_period_s

    def run(self, seed: int,
            plan: Optional[FaultPlan] = None) -> RegionCampaignOutcome:
        plan = self.generator.plan(seed) if plan is None else plan
        sim = Simulator(seed=seed)
        region = Region(sim, self.spec)
        suite = MonitorSuite(sim, region_monitors(region),
                             period_s=self.monitor_period_s)
        suite.start()
        region.start()
        region.arm_plan(plan)
        sim.run(until=self.spec.duration_s)
        region.finalize()
        suite.finish()
        return RegionCampaignOutcome(
            seed=seed, plan=plan, region=region, suite=suite)

    def sweep(self, seeds) -> List[RegionCampaignOutcome]:
        return [self.run(seed) for seed in seeds]


def _n_campaigns(quick: bool) -> int:
    return 4 if quick else 20


def run(seed: int = 0, quick: bool = True) -> ExperimentResult:
    runner = RegionCampaignRunner(spec=RegionSpec(duration_s=DURATION_S))
    rows: List[Dict] = []
    checks = []
    for outcome in runner.sweep(range(seed, seed + _n_campaigns(quick))):
        region = outcome.region
        report = region.report()
        rows.append({
            "campaign": outcome.seed,
            "faults": len(outcome.plan),
            "kinds": ",".join(sorted(
                {f.kind for f in outcome.plan.schedule()})),
            "tickets": len(region.pipeline.tickets),
            "migrations": region.migrations,
            "monitor_samples": outcome.suite.samples,
            "violations": len(outcome.violations),
            "audit_ok": report["audit_ok"],
            "placements_on_quarantined": report["placements_on_quarantined"],
        })
        tag = f"campaign {outcome.seed}"
        checks += [
            check(f"{tag}: invariant monitors stayed clean",
                  not outcome.failed,
                  "; ".join(str(v) for v in outcome.violations)
                  or f"{outcome.suite.samples} samples"),
            check(f"{tag}: audit log verifies end to end",
                  report["audit_ok"], f"{report['audit_entries']} entries"),
            check(f"{tag}: zero placements on quarantined servers",
                  report["placements_on_quarantined"] == 0,
                  f"placements_on_quarantined="
                  f"{report['placements_on_quarantined']}"),
        ]
    spec = runner.spec
    notes = (
        f"{len(rows)} campaigns on {spec.n_racks}x{spec.servers_per_rack} "
        f"servers over {spec.duration_s:g} s; "
        f"{sum(r['faults'] for r in rows)} correlated faults, "
        f"{sum(r['tickets'] for r in rows)} remediation tickets, "
        f"{sum(r['migrations'] for r in rows)} migrations"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE,
        rows=rows, checks=checks, notes=notes,
    )
