"""The four benchmark workloads, driven through public entry points only.

Each workload is built from the workload seed alone. One repeat is
``setup()`` (timed as set-up), ``run(state)`` (timed as the run) and
``outcome(state)`` (untimed): the outcome holds the repeat's operation
count, a digest of every simulated output, the failed checks, and the
program's own counters for the per-layer report. ``run`` is a
generator that yields after each step (one fio job, one campaign), so
the harness can measure host speed between steps.

* ``region_churn`` / ``region_saturated`` -- ``Region`` +
  ``ChurnPlan.for_region`` + ``VectorizedChurnEngine`` (array ledger,
  fabric stubbed, probes off), as one ``RegionShardJob`` runs them;
* ``fio_datapath`` -- ``make_testbed`` + ``fio_run``, fig11's matrix;
* ``fault_campaign`` -- ``CampaignRunner.run`` over six campaign seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.backend.limits import RateLimits
from repro.chaos import CampaignRunner
from repro.cloud.admission import AdmissionPolicy
from repro.experiments.common import make_testbed
from repro.fleet import ChurnPlan, Region, RegionSpec, VectorizedChurnEngine
from repro.sim import Simulator
from repro.workloads.fio import fio_run


def digest(obj: Any) -> str:
    """sha256 of a canonical JSON rendering (floats as ``repr``)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    ops: int                      # work units the throughput counts
    attempted: int                # operations the correctness gate saw
    digest: str
    failures: List[str]
    counters: Dict[str, float]    # program counters, per-layer names
    extra: Dict[str, float] = field(default_factory=dict)


def sim_counters(sims) -> Dict[str, float]:
    """Kernel counters summed over every simulator of a repeat."""
    totals: Dict[str, int] = {}
    for sim in sims:
        for key, value in sim.stats.as_dict().items():
            if key == "queue_len_max":
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    popped = totals.get("events_popped", 0)
    return {
        "sim.events": popped,
        "sim.fast_path_ratio":
            totals.get("fast_path_hits", 0) / popped if popped else 0.0,
        "sim.queue_len_mean":
            totals.get("queue_len_sum", 0) / popped if popped else 0.0,
        "sim.queue_len_max": totals.get("queue_len_max", 0),
        "sim.idle_polls_skipped": totals.get("idle_polls_skipped", 0),
        "sim.doorbell_parks": totals.get("doorbell_parks", 0),
    }


# -- region control plane ----------------------------------------------

@dataclass(frozen=True)
class RegionShape:
    racks: int
    servers_per_rack: int = 16
    boards_per_server: int = 16
    duration_s: float = 11.0
    occupancy: float = 0.8
    mean_lifetime_s: float = 2.0


class RegionWorkload:
    op = "placements"
    # The kernel dispatches one wakeup per time bucket; the churn
    # engine replays every arrival and exit inside it, so the
    # ``Simulator.run`` span's self time is fleet code.
    self_layer = {"sim.run": "fleet"}

    def __init__(self, shape: RegionShape, seed: int):
        self.shape = shape
        self.seed = seed
        boards = shape.racks * shape.servers_per_rack * shape.boards_per_server
        self.spec = RegionSpec(
            n_racks=shape.racks,
            servers_per_rack=shape.servers_per_rack,
            boards_per_server=shape.boards_per_server,
            duration_s=shape.duration_s,
            arrival_rate_per_s=shape.occupancy * boards / shape.mean_lifetime_s,
            mean_lifetime_s=shape.mean_lifetime_s,
            fabric=False,
            # Same front door as a region_scale shard: unthrottled
            # tiers, best-effort shed below 5% healthy headroom.
            admission=AdmissionPolicy(
                limits=(("premium", 1e9, 1e9), ("standard", 1e9, 1e9),
                        ("best_effort", 1e9, 1e9)),
                shed_at=(("best_effort", 0.05),)),
        )

    def setup(self):
        sim = Simulator(seed=self.seed)
        region = Region(sim, self.spec)
        plan = ChurnPlan.for_region(region)
        region.start(probes=False, arrivals=False)
        engine = VectorizedChurnEngine(region, plan, guests="arrays")
        engine.start()
        return sim, region, plan

    def run(self, state):
        sim, region, _ = state
        sim.run(until=self.spec.duration_s)
        yield

    def outcome(self, state) -> Outcome:
        sim, region, plan = state
        region.finalize()
        sched = region.scheduler
        failures = []
        try:
            if not sched.verify_index():
                failures.append("Scheduler.verify_index() is false")
        except AssertionError as exc:
            failures.append(f"scheduler index: {exc}")
        report = region.report()
        arrivals = sum(region.arrivals.values())
        placed = sum(region.placed.values())
        shed = sum(region.shed.values())
        rejected = sum(region.capacity_rejections.values())
        running = region.running_guests()
        if not report["audit_ok"]:
            failures.append("audit chain does not verify")
        if arrivals != len(plan):
            failures.append(f"{arrivals} arrivals for {len(plan)} planned")
        if arrivals != placed + shed + rejected:
            failures.append(f"arrivals {arrivals} != placed {placed} + "
                            f"shed {shed} + rejected {rejected}")
        if placed != region.exits + running:
            failures.append(f"placed {placed} != exits {region.exits} + "
                            f"running {running}")
        if region.placements_on_quarantined or region.placements_on_dead:
            failures.append("placement on a quarantined or dead server")
        out = {"report": report, "capacity": sched.capacity_summary(),
               "running": running, "audit_head": region.audit.head_digest()}
        admitted = sum(region.admission.admitted.values())
        counters = {
            **sim_counters([sim]),
            "cloud.admission.accept_ratio":
                admitted / arrivals if arrivals else 0.0,
            "cloud.admission.shed": shed,
            "cloud.scheduler.capacity_rejections": rejected,
            "cloud.audit.records": len(region.audit),
            "fleet.churn_events": arrivals + region.exits,
        }
        return Outcome(ops=placed, attempted=arrivals, digest=digest(out),
                       failures=failures, counters=counters)


# -- fio datapath --------------------------------------------------------

# Published fig11 values (PAPER.md / fig11 docstring).
FIG11_PAPER = {
    "bm_limited_iops": 25e3,
    "vm_bm_mean_clat": 1.25,
    "vm_bm_p999_clat": 3.0,
    "bm_vm_free_iops": 1.5,
    "bm_free_mean_clat_us": 60.0,
}


class FioWorkload:
    op = "ios"
    self_layer: Dict[str, str] = {}
    THREADS = 8

    def __init__(self, ops_per_thread: int, seed: int):
        self.ops_per_thread = ops_per_thread
        self.seed = seed

    def setup(self):
        bed = make_testbed(self.seed, mode="fast")
        free = make_testbed(self.seed + 50, limits=RateLimits.unrestricted(),
                            local_storage=True, mode="fast")
        jobs = [(bed, bed.bm, "randread"), (bed, bed.bm, "randwrite"),
                (bed, bed.vm, "randread"), (bed, bed.vm, "randwrite"),
                (free, free.bm, "randread"), (free, free.vm, "randread")]
        return bed, free, jobs, []

    def run(self, state):
        _, _, jobs, results = state
        for bed, guest, pattern in jobs:
            results.append(fio_run(bed.sim, guest, pattern=pattern,
                                   threads=self.THREADS,
                                   ops_per_thread=self.ops_per_thread))
            yield

    def outcome(self, state) -> Outcome:
        bed, free, jobs, results = state
        per_job = self.THREADS * self.ops_per_thread
        rows = [{"bed": "cloud" if b is bed else "local", "guest": g.kind,
                 "pattern": p, "iops": r.iops, "bandwidth_mbps":
                 r.bandwidth_mbps, "latency": vars(r.latency)}
                for (b, g, p), r in zip(jobs, results)]
        failures = [f"{row['bed']} {row['guest']} {row['pattern']}: "
                    f"{row['latency']['count']} completions for {per_job}"
                    for row in rows if row["latency"]["count"] != per_job]
        guests = (bed.bm, bed.vm, free.bm, free.vm)
        completed = sum(g.blk_path.completed for g in guests)
        if completed != per_job * len(jobs):
            failures.append(f"{completed} block completions for "
                            f"{per_job * len(jobs)} submitted")
        bm_read, _, vm_read, _, bm_free, vm_free = results
        model = {
            "bm_limited_iops": bm_read.iops,
            "vm_bm_mean_clat":
                vm_read.mean_latency_us / bm_read.mean_latency_us,
            "vm_bm_p999_clat":
                vm_read.p999_latency_us / bm_read.p999_latency_us,
            "bm_vm_free_iops": bm_free.iops / vm_free.iops,
            "bm_free_mean_clat_us": bm_free.mean_latency_us,
        }
        # fig11's own acceptance bands.
        bands = {"vm_bm_mean_clat": (1.15, 1.45),
                 "vm_bm_p999_clat": (2.0, 5.0),
                 "bm_vm_free_iops": (1.3, 2.3),
                 "bm_free_mean_clat_us": (45.0, 90.0)}
        if min(bm_read.iops, vm_read.iops) <= 23e3:
            failures.append("a guest misses the 25K IOPS limit")
        for key, (lo, hi) in bands.items():
            if not lo <= model[key] <= hi:
                failures.append(f"{key} {model[key]:.4g} outside "
                                f"[{lo}, {hi}]")
        err = sum(abs(model[k] - v) / v for k, v in FIG11_PAPER.items())
        counters = {**sim_counters([bed.sim, free.sim]),
                    "core.paths.ios": completed}
        return Outcome(ops=completed, attempted=per_job * len(jobs),
                       digest=digest(rows), failures=failures,
                       counters=counters,
                       extra={"model_err_pct":
                              100.0 * err / len(FIG11_PAPER)})


# -- chaos campaigns -----------------------------------------------------

class CampaignWorkload:
    op = "campaigns"
    self_layer: Dict[str, str] = {}

    def __init__(self, n_campaigns: int, seed: int):
        self.seeds = [seed * n_campaigns + k for k in range(n_campaigns)]

    def setup(self):
        return CampaignRunner(), []

    def run(self, state):
        runner, outcomes = state
        for seed in self.seeds:
            outcomes.append(runner.run(seed))
            yield

    def outcome(self, state) -> Outcome:
        _, outcomes = state
        failures = []
        sims = []
        counters = {"hypervisor.restarts": 0, "faults.injected": 0,
                    "chaos.monitor_samples": 0, "chaos.retries": 0,
                    "chaos.violations": 0, "fabric.transfers": 0,
                    "fabric.reroutes": 0, "iobond.completions": 0}
        for out in outcomes:
            if out.failed:
                failures.append(
                    f"campaign {out.seed}: {len(out.violations)} violations, "
                    f"{len(out.oracle_diffs)} oracle diffs")
            counters["chaos.violations"] += len(out.violations)
            for ctx in (out.chaos, out.baseline):
                sims.append(ctx.sim)
                loads = ctx.loads.values()
                lost = sum(len(load.failures) for load in loads)
                dup = sum(load.duplicate_completions for load in loads)
                done = sum(len(load.records) for load in loads)
                asked = sum(load.n_requests for load in loads)
                if lost or dup or done != asked:
                    failures.append(
                        f"campaign {out.seed}: {done}/{asked} completed, "
                        f"{lost} lost, {dup} duplicated")
                counters["hypervisor.restarts"] += len(ctx.supervisor.records)
                counters["faults.injected"] += len(ctx.injector.injected)
                counters["chaos.monitor_samples"] += ctx.suite.samples
                counters["chaos.retries"] += sum(l.retries for l in loads)
                counters["iobond.completions"] += sum(
                    sum(load.guest.bond.port("blk").queue_completions.values())
                    for load in loads)
                if ctx.server.fabric.routed:
                    net = ctx.server.fabric.network
                    counters["fabric.transfers"] += net.transfers_started
                    counters["fabric.reroutes"] += net.reroutes
        counters.update(sim_counters(sims))
        reports = [out.report_json() for out in outcomes]
        return Outcome(ops=len(outcomes), attempted=len(self.seeds),
                       digest=digest(reports), failures=failures,
                       counters=counters)


# -- registry ----------------------------------------------------------

FULL = {
    "region_churn": (RegionWorkload, RegionShape(racks=128)),
    "region_saturated": (RegionWorkload, RegionShape(racks=32,
                                                     occupancy=1.1)),
    "fio_datapath": (FioWorkload, 1500),
    "fault_campaign": (CampaignWorkload, 6),
}

# Smoke-test sizes: same code paths, a fraction of a second each.
TINY = {
    "region_churn": (RegionWorkload, RegionShape(
        racks=2, servers_per_rack=4, boards_per_server=8, duration_s=1.0,
        mean_lifetime_s=0.5)),
    "region_saturated": (RegionWorkload, RegionShape(
        racks=2, servers_per_rack=4, boards_per_server=8, duration_s=1.0,
        occupancy=1.1, mean_lifetime_s=0.5)),
    "fio_datapath": (FioWorkload, 400),
    "fault_campaign": (CampaignWorkload, 1),
}

SCALES = {"full": FULL, "tiny": TINY}


def make(name: str, seed: int, scale: str = "full"):
    cls, size = SCALES[scale][name]
    return cls(size, seed)
