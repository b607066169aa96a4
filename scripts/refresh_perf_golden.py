#!/usr/bin/env python3
"""Regenerate the golden kernel event counts for the perf gate.

Wall-clock time is too noisy to gate a perf regression in CI, but the
DES kernel's event counters are exact: for a fixed seed, ``fig9`` and
``fig11`` schedule a deterministic number of events, and the share
taken by the single-waiter fast lane (``fast_path_hits``) plus the
doorbell idle-skip savings are the quantities the PR 1 optimizations
bought. ``tests/perf/test_event_golden.py`` pins all of them, in both
idle-skip modes, to the numbers recorded here.

One command refreshes the golden file after an intentional change:

    PYTHONPATH=src python scripts/refresh_perf_golden.py

Commit the diff alongside the change that moved the counts.
"""

import json
import pathlib

from repro.parallel import ExperimentJob, execute
from repro.sim import set_idle_skip_default

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent.parent
               / "tests" / "perf" / "golden_event_counts.json")
GOLDEN_EXPERIMENTS = ("fig9", "fig11")
GOLDEN_COUNTERS = ("events_popped", "fast_path_hits")


def collect() -> dict:
    golden = {}
    for experiment in GOLDEN_EXPERIMENTS:
        golden[experiment] = {}
        for idle_skip in (True, False):
            previous = set_idle_skip_default(idle_skip)
            try:
                result = execute(ExperimentJob(experiment, seed=0, quick=True))
            finally:
                set_idle_skip_default(previous)
            mode = "idle_skip_on" if idle_skip else "idle_skip_off"
            golden[experiment][mode] = {
                counter: result.events[counter]
                for counter in GOLDEN_COUNTERS
            }
    return golden


def main() -> int:
    golden = {
        "_comment": ("Deterministic kernel event counts (seed 0, quick). "
                     "Refresh: PYTHONPATH=src python "
                     "scripts/refresh_perf_golden.py"),
        "experiments": collect(),
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    for experiment, modes in golden["experiments"].items():
        for mode, counters in sorted(modes.items()):
            print(f"  {experiment} {mode}: {counters}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
