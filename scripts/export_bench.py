#!/usr/bin/env python3
"""Run the experiment benchmark suite and write ``BENCH_<n>.json``.

For every experiment (or the subset named on the command line) this
records the DES kernel's event counters
(:func:`repro.sim.global_event_totals`) and the experiment's own
scenario columns, then writes one auto-numbered JSON file in the
repository root so successive runs can be diffed:

    python scripts/export_bench.py                # all experiments
    python scripts/export_bench.py fig11 fig9     # just these
    python scripts/export_bench.py --jobs 8       # process-pool fan-out
    python scripts/export_bench.py --out my.json  # explicit output path

``--jobs N`` fans the suite over a persistent worker pool
(:mod:`repro.parallel`); experiments that declare the shard protocol
(e.g. ``chaos_campaign``) additionally split into per-campaign jobs so
no single experiment serializes the whole run. Results are merged by
job key, never completion order, so the report is identical to a
serial run outside the run metadata (``scripts/diff_bench.py`` checks
exactly that). Nothing here reads the host clock: every byte outside
that metadata is a function of the seed. Simulator wall time is
measured by ``perfbench/run.py``.

The exit status is 1 if any experiment fails its checks, 0 otherwise;
the report is written either way.

Output shape::

    {
      "git_commit": "<rev-parse HEAD>",
      "timestamp": "<ISO-8601 UTC>",
      "jobs": 8,
      "seed": 0,
      "quick": true,
      "experiments": {
        "fig11": {"events": {"events_popped": ..., ...}},
        ...
      }
    }

Each experiment entry also carries ``queue_depth`` (max and mean event
queue length over the run, derived from the kernel's ``queue_len_max``
and ``queue_len_sum`` counters).

Auto-numbering is concurrency-safe: the slot is claimed with
``O_CREAT | O_EXCL`` (two racing runs can never pick the same number)
and the content lands via write-to-temp + atomic rename, so a reader
never observes a partially written BENCH file.
"""

import argparse
import datetime
import inspect
import json
import os
import pathlib
import subprocess
import sys

from repro.config.profile import HardwareProfile, spec_to_dict
from repro.experiments import ALL_EXPERIMENTS
from repro.parallel import (ExperimentJob, ExperimentShardJob, is_shardable,
                            merge_bench, run_suite)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _queue_config() -> dict:
    """The suite's queue shape (QueueSpec of the default profile).

    Recorded in the report header so ``diff_bench`` can refuse to
    compare reports produced under different multi-queue datapath
    configurations instead of silently diffing their rows.
    """
    return spec_to_dict(HardwareProfile.paper().queues)


def _topology_config() -> dict:
    """The suite's fabric topology (TopologySpec of the default profile).

    Same contract as ``_queue_config``: an enabled Clos fabric reroutes
    every storage and network round trip, so rows from a routed suite
    are incomparable with single-hop rows and ``diff_bench`` must
    refuse rather than diff them.
    """
    return spec_to_dict(HardwareProfile.paper().topology)


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(REPO_ROOT),
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _claim_bench_path(directory: pathlib.Path) -> pathlib.Path:
    """Reserve the next free ``BENCH_<n>.json`` slot race-free.

    ``O_CREAT | O_EXCL`` makes the claim atomic: of two runs racing for
    ``BENCH_3.json``, exactly one wins and the other moves on to
    ``BENCH_4.json`` — unlike the old exists()-then-write scan, which
    let both write the same file.
    """
    n = 0
    while True:
        path = directory / f"BENCH_{n}.json"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            n += 1
            continue
        os.close(fd)
        return path


def _atomic_write(path: pathlib.Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def queue_depth(events: dict) -> dict:
    """Derived queue-depth columns for one experiment's event counters.

    ``mean`` is the average queue length observed at pop time
    (``queue_len_sum`` accumulates the pre-pop depth on every pop).
    """
    pops = events.get("events_popped", 0)
    return {
        "max": events.get("queue_len_max", 0),
        "mean": round(events.get("queue_len_sum", 0) / pops, 3) if pops else 0.0,
    }


def build_jobs(names=None, seed: int = 0, quick: bool = True,
               shard: bool = True):
    """The suite as a job list: shard-capable experiments fan out."""
    selected = dict(ALL_EXPERIMENTS)
    if names:
        unknown = [n for n in names if n not in selected]
        if unknown:
            known = ", ".join(sorted(ALL_EXPERIMENTS))
            raise SystemExit(f"unknown experiment(s) {unknown}; known: {known}")
        selected = {n: selected[n] for n in names}

    jobs = []
    for exp_id in selected:
        if shard and is_shardable(exp_id):
            module = sys.modules[ALL_EXPERIMENTS[exp_id].__module__]
            n_shards = len(module.shard_plan(seed=seed, quick=quick))
            jobs.extend(ExperimentShardJob(exp_id, shard=k, seed=seed,
                                           quick=quick)
                        for k in range(n_shards))
        else:
            jobs.append(ExperimentJob(exp_id, seed=seed, quick=quick))
    return jobs


def run(names=None, seed: int = 0, quick: bool = True, outdir: str = ".",
        jobs: int = 1, out=None):
    """Write the report; return ``(path, names of failing experiments)``."""
    job_list = build_jobs(names, seed=seed, quick=quick)
    results = run_suite(job_list, n_jobs=jobs)

    header = {
        "git_commit": _git_commit(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "jobs": jobs,
        "seed": seed,
        "quick": quick,
        "queue_config": _queue_config(),
        "topology": _topology_config(),
    }
    report, experiment_results = merge_bench(job_list, results, header)

    failing = []
    for exp_id, entry in report["experiments"].items():
        # Analytic experiments never touch the kernel: every counter is
        # zero and a queue-depth block derived from zeros is noise. Omit
        # both blocks entirely.
        if not any(entry["events"].values()):
            del entry["events"]
            print(f"{exp_id}: no kernel events")
        else:
            entry["queue_depth"] = queue_depth(entry["events"])
            print(f"{exp_id}: {entry['events']['events_popped']} events, "
                  f"queue depth "
                  f"max {entry['queue_depth']['max']} "
                  f"mean {entry['queue_depth']['mean']}")
        columns = _scenario_columns(exp_id, experiment_results[exp_id])
        if columns is not None:
            entry["scenario"] = columns
        result = experiment_results[exp_id]
        if result is not None and not result.passed:
            failing.append(exp_id)
            failed = "; ".join(c.name for c in result.failed_checks())
            print(f"  FAILED {exp_id} checks: {failed}", file=sys.stderr)

    path = _resolve_out_path(out, outdir)
    _atomic_write(path, json.dumps(report, indent=2) + "\n")
    print(f"wrote {path} ({len(report['experiments'])} experiments, "
          f"jobs={jobs})")
    return path, failing


def _scenario_columns(exp_id: str, result):
    """Experiment-specific bench columns via the ``bench_columns`` hook.

    An experiment module may expose ``bench_columns(result) -> dict``
    returning *deterministic* scenario metrics (simulated quantities
    only — no wall time), which land under the experiment entry's
    ``scenario`` key. region_resilience uses this to put remediation
    latency and control-plane overhead into the perf trajectory;
    ``diff_bench`` compares the values like any other non-volatile key.
    """
    if result is None:
        return None
    runner = ALL_EXPERIMENTS.get(exp_id)
    if runner is None:
        return None
    module = inspect.getmodule(runner)
    hook = getattr(module, "bench_columns", None)
    if hook is None:
        return None
    return hook(result)


def _resolve_out_path(out, outdir) -> pathlib.Path:
    if out is not None:
        path = pathlib.Path(out)
        if path.parent:
            path.parent.mkdir(parents=True, exist_ok=True)
        return path
    directory = pathlib.Path(outdir)
    directory.mkdir(parents=True, exist_ok=True)
    return _claim_bench_path(directory)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: the whole suite)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = in-process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="full-scale runs (quick=False)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of "
                             "auto-numbering BENCH_<n>.json")
    parser.add_argument("--outdir", default=".",
                        help="directory for auto-numbered BENCH files")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    _, failing = run(args.experiments or None, seed=args.seed,
                     quick=not args.full, outdir=args.outdir,
                     jobs=args.jobs, out=args.out)
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
