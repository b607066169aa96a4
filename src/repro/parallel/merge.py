"""Deterministic merging of parallel job results.

Everything here is keyed and ordered by *job key* (equivalently, by
submission order), never by completion order: the merged artifacts a
parallel run produces must be byte-identical to what the serial
front-ends write, outside the run metadata (timestamp, commit, worker
count). No job records wall-clock time, so :data:`VOLATILE_KEYS` names
only that metadata, and :func:`bench_diff` implements the "identical
modulo run metadata" comparison the CI gate and the tests use.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Tuple

from repro.parallel.jobs import (ChaosCampaignJob, ExperimentShardJob,
                                 JobResult, SeedSweepJob)

__all__ = [
    "VOLATILE_KEYS",
    "bench_diff",
    "merge_bench",
    "merge_chaos",
    "merge_sweep",
    "merge_experiment_shards",
]

# Report fields that legitimately differ between two otherwise
# equivalent runs: the run-metadata stamps of the report header.
VOLATILE_KEYS = frozenset({"timestamp", "git_commit", "jobs"})


def bench_diff(a: dict, b: dict) -> List[str]:
    """Differences between two BENCH reports modulo run metadata.

    Returns human-readable difference lines; empty means equivalent.
    """
    differences: List[str] = []

    # Reports produced under different multi-queue datapath shapes or
    # fabric topologies are incomparable: every row legitimately
    # differs (a routed Clos times every transfer hop-by-hop), so a
    # row-by-row diff would bury the real cause in noise. Surface the
    # mismatch alone and stop.
    for block, what in (("queue_config", "multi-queue configurations"),
                        ("topology", "fabric topologies")):
        left, right = a.get(block), b.get(block)
        if left is not None and right is not None and left != right:
            changed = sorted(key for key in set(left) | set(right)
                             if left.get(key) != right.get(key))
            return [
                f"{block} mismatch — reports were produced under "
                f"different {what} and are not comparable: "
                + ", ".join(f"{key}: {left.get(key)!r} vs {right.get(key)!r}"
                            for key in changed)
            ]

    def walk(path: str, left, right) -> None:
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                if key in VOLATILE_KEYS:
                    continue
                child = f"{path}.{key}" if path else key
                if key not in left:
                    differences.append(f"{child}: only in second")
                elif key not in right:
                    differences.append(f"{child}: only in first")
                else:
                    walk(child, left[key], right[key])
        elif isinstance(left, list) and isinstance(right, list):
            if len(left) != len(right):
                differences.append(
                    f"{path}: length {len(left)} != {len(right)}")
                return
            for index, (l, r) in enumerate(zip(left, right)):
                walk(f"{path}[{index}]", l, r)
        elif left != right:
            differences.append(f"{path}: {left!r} != {right!r}")

    walk("", a, b)
    return differences


# -- experiment shards -------------------------------------------------

def merge_experiment_shards(experiment: str, seed: int, quick: bool,
                            payloads: List):
    """Rebuild the unsharded ``ExperimentResult`` from shard payloads."""
    runner_module = _experiment_module(experiment)
    return runner_module.merge_shards(seed=seed, quick=quick,
                                      payloads=payloads)


def _experiment_module(experiment: str):
    from repro.experiments import ALL_EXPERIMENTS

    return sys.modules[ALL_EXPERIMENTS[experiment].__module__]


# -- BENCH reports -----------------------------------------------------

def merge_bench(jobs: Iterable, results: Dict[str, JobResult],
                header: dict) -> Tuple[dict, dict]:
    """Fold per-job results into the BENCH schema, in experiment order.

    ``jobs`` is the submitted job list (``ExperimentJob`` and
    ``ExperimentShardJob`` mixed); shard events are folded per
    experiment — counters sum, but ``queue_len_max`` is a
    high-water mark and aggregates by max, exactly like
    :func:`repro.sim.global_event_totals` folds multiple simulators —
    and shard payloads are merged back into one
    :class:`~repro.experiments.base.ExperimentResult` per experiment.

    Returns ``(report, experiment_results)``.
    """
    order: List[str] = []
    grouped: Dict[str, List] = {}
    for job in jobs:
        name = job.experiment
        if name not in grouped:
            grouped[name] = []
            order.append(name)
        grouped[name].append(job)

    report = dict(header)
    report["experiments"] = {}
    experiment_results = {}
    for name in order:
        events: Dict[str, int] = {}
        shard_payloads = []
        whole_result = None
        for job in grouped[name]:
            result = results[job.key]
            for counter, value in result.events.items():
                if counter == "queue_len_max":
                    events[counter] = max(events.get(counter, 0), value)
                else:
                    events[counter] = events.get(counter, 0) + value
            if isinstance(job, ExperimentShardJob):
                shard_payloads.append((job.shard, result.payload))
            else:
                whole_result = result.payload
        if shard_payloads:
            shard_payloads.sort(key=lambda pair: pair[0])
            whole_result = merge_experiment_shards(
                name, grouped[name][0].seed, grouped[name][0].quick,
                [payload for _, payload in shard_payloads])
        report["experiments"][name] = {"events": events}
        experiment_results[name] = whole_result
    return report, experiment_results


# -- chaos sweep reports -----------------------------------------------

def merge_chaos(jobs: List[ChaosCampaignJob],
                results: Dict[str, JobResult],
                header: dict) -> Tuple[dict, Dict[int, dict], int]:
    """Fold campaign payloads into the sweep report, in seed order.

    Returns ``(report, minimized_plans_by_seed, failures)``; the report
    carries exactly the fields the serial sweep wrote, so serial and
    parallel reports stay byte-identical.
    """
    report = dict(header)
    report["campaigns"] = {}
    minimized: Dict[int, dict] = {}
    failures = 0
    for job in sorted(jobs, key=lambda j: j.seed):
        payload = results[job.key].payload
        report["campaigns"][str(job.seed)] = payload["entry"]
        if payload["failed"]:
            failures += 1
            if payload["minimized_plan"] is not None:
                minimized[job.seed] = payload["minimized_plan"]
    report["failures"] = failures
    return report, minimized, failures


# -- seed sweeps -------------------------------------------------------

def merge_sweep(jobs: List[SeedSweepJob],
                results: Dict[str, JobResult]) -> dict:
    """Per-seed rows plus aggregate statistics, in seed order."""
    rows = []
    for job in sorted(jobs, key=lambda j: j.seed):
        result = results[job.key]
        row = dict(result.payload)
        row["events_popped"] = result.events.get("events_popped", 0)
        rows.append(row)

    digests = [row["rows_sha256"] for row in rows]
    metric_columns = sorted({column
                             for row in rows
                             for column in row["metrics"]})
    aggregate = {
        "n_seeds": len(rows),
        "passed_seeds": sum(row["passed"] for row in rows),
        "all_passed": all(row["passed"] for row in rows),
        "distinct_row_digests": len(set(digests)),
        "metrics": {column: _stats([row["metrics"][column] for row in rows
                                    if column in row["metrics"]])
                    for column in metric_columns},
        "events_popped": _stats([row["events_popped"] for row in rows]),
    }
    return {"per_seed": rows, "aggregate": aggregate}


def _stats(values: List[float]) -> dict:
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return {
        "mean": mean,
        "min": min(values),
        "max": max(values),
        "stddev": variance ** 0.5,
    }
