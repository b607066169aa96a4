"""Region scale sweep: a million guest-lifetimes through one scheduler.

The paper's central density claim only matters if the control plane
keeps up at region scale: §6 sizes a deployment at hundreds of racks of
16-board BM Hive servers, and the launch/reclaim loop (Fig 4) has to
absorb the whole region's churn. This experiment drives exactly that
load through our control-plane model: racks of bm servers at a fixed
occupancy target, Poisson arrivals with exponential lifetimes drawn
from the calibrated churn model, every launch placed by the indexed
first-fit scheduler and every exit reclaimed board-by-board.

Three rungs — 4, 64, and 1024 racks in the full profile — hold the
per-board load constant while the fleet grows 256x. The top rung
completes more than a million guest-lifetimes. Each rung is
split into per-rack-group shards (:class:`repro.parallel.RegionShardJob`)
that differ only in derived seed, so the rung is embarrassingly
parallel and the merged counters are byte-identical whether shards ran
serially or across a worker pool.

The result is simulated counters only (arrivals, placements, exits,
audit length), so it is a pure function of the seed. Placement
throughput is wall-clock and is measured by perfbench's
``region_churn`` workload; that placement cost does not grow with the
fleet is gated by a scheduler heap-operation count in the tests.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.base import ExperimentResult, check, check_between
from repro.parallel.jobs import RegionShardJob

EXPERIMENT_ID = "region_scale"
TITLE = "Region-scale churn: placement throughput vs fleet size"

# (total racks, shard count) per rung. Shards within a rung split the
# racks evenly; per-board load is identical across rungs.
FULL_RUNGS = ((4, 1), (64, 4), (1024, 16))
QUICK_RUNGS = ((4, 1), (16, 2))

# Full profile matches the paper's hardware shape (16-board BM Hive
# chassis, 16 servers to a rack); quick shrinks both the fleet and the
# simulated window so the whole sweep stays sub-second for CI smoke.
FULL_SHAPE = dict(servers_per_rack=16, boards_per_server=16,
                  duration_s=11.0, occupancy=0.8, mean_lifetime_s=2.0)
QUICK_SHAPE = dict(servers_per_rack=4, boards_per_server=8,
                   duration_s=2.0, occupancy=0.8, mean_lifetime_s=0.5)


# -- shard protocol (repro.parallel fans these across workers) ---------

def shard_plan(seed: int = 0, quick: bool = True) -> List[RegionShardJob]:
    """Flat list of shard specs, rung-major then shard-index order."""
    rungs = QUICK_RUNGS if quick else FULL_RUNGS
    shape = QUICK_SHAPE if quick else FULL_SHAPE
    specs: List[RegionShardJob] = []
    for rung, (total_racks, n_shards) in enumerate(rungs):
        racks_per_shard, remainder = divmod(total_racks, n_shards)
        if remainder:
            raise ValueError(
                f"rung {rung}: {total_racks} racks not divisible "
                f"into {n_shards} shards")
        for shard in range(n_shards):
            specs.append(RegionShardJob(
                seed=seed, rung=rung, shard=shard,
                racks=racks_per_shard, **shape))
    return specs


def run_shard(spec: RegionShardJob) -> Dict:
    return spec.run()


def merge_shards(seed: int, quick: bool,
                 payloads: List[Dict]) -> ExperimentResult:
    """Fold shard payloads (in shard-plan index order) into one result."""
    rungs = QUICK_RUNGS if quick else FULL_RUNGS

    by_rung: Dict[int, List[Dict]] = {}
    for payload in payloads:
        by_rung.setdefault(payload["rung"], []).append(payload)

    rows = []
    for rung, (total_racks, n_shards) in enumerate(rungs):
        shards = by_rung.get(rung, [])
        counters = ("arrivals", "placed", "exits", "running_at_end",
                    "shed", "capacity_rejections", "churn_events",
                    "audit_entries")
        row = {"rung": rung, "racks": total_racks, "shards": n_shards}
        row["servers"] = sum(p["servers"] for p in shards)
        row["boards"] = sum(p["boards"] for p in shards)
        for name in counters:
            row[name] = sum(p[name] for p in shards)
        row["index_ok"] = all(p["index_ok"] for p in shards)
        row["audit_ok"] = all(p["audit_ok"] for p in shards)
        rows.append(row)

    checks = [
        check("every shard ran", len(payloads) == sum(n for _, n in rungs),
              f"{len(payloads)} shard payloads for "
              f"{sum(n for _, n in rungs)} planned shards"),
        check("every rung placed guests",
              all(row["placed"] > 0 for row in rows),
              "placements per rung: "
              + ", ".join(str(row["placed"]) for row in rows)),
        check("scheduler index verified in every shard",
              all(row["index_ok"] for row in rows),
              "Scheduler.verify_index() after finalize, per shard"),
        check("audit chain verified in every shard",
              all(row["audit_ok"] for row in rows),
              "hash-chained audit log verifies end-to-end"),
        check("no guest lost",
              all(row["placed"] == row["exits"] + row["running_at_end"]
                  for row in rows),
              "placed == exits + still-running, per rung"),
        check("capacity rejections negligible at 0.8 occupancy",
              all(row["capacity_rejections"] <= 0.01 * row["arrivals"]
                  for row in rows),
              "rejections per rung: "
              + ", ".join(str(row["capacity_rejections"]) for row in rows)),
    ]
    # Steady state holds ~occupancy * boards guests; the band is wide
    # enough for Poisson noise on the smallest rung.
    for row in rows:
        checks.append(check_between(
            f"rung {row['rung']} end occupancy",
            row["running_at_end"] / row["boards"], 0.5, 0.98))

    if not quick:
        top = rows[-1]
        checks.append(check(
            "million guest-lifetimes at the top rung",
            top["placed"] >= 1_000_000,
            f"{top['placed']} placements across {top['racks']} racks"))

    total = sum(row["placed"] for row in rows)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        checks=checks,
        notes=(
            f"{total} guest-lifetimes over {len(rows)} rungs "
            f"({', '.join(str(r) for r, _ in rungs)} racks); "
            "constant per-board load, indexed first-fit scheduler, "
            "vectorized churn engine with array-ledger guests."),
    )


def run(seed: int = 0, quick: bool = True) -> ExperimentResult:
    """Serial reference path: plan, run every shard inline, merge."""
    specs = shard_plan(seed=seed, quick=quick)
    payloads = [run_shard(spec) for spec in specs]
    return merge_shards(seed=seed, quick=quick, payloads=payloads)


def bench_columns(result: ExperimentResult) -> dict:
    """Per-rung BENCH columns (simulated counters only)."""
    rungs = {}
    for row in result.rows:
        label = f"racks{row['racks']}"
        rungs[label] = {
            "shards": row["shards"],
            "boards": row["boards"],
            "arrivals": row["arrivals"],
            "placements": row["placed"],
            "exits": row["exits"],
            "running_at_end": row["running_at_end"],
            "churn_events": row["churn_events"],
        }
    return {
        "rungs": rungs,
        "guest_lifetimes_total": sum(row["placed"] for row in result.rows),
    }
