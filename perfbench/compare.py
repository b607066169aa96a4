"""Compare two sets of benchmark results recorded with ``run.py --out``.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds one JSON line per run. Runs are compared per workload
and metric: median and quartiles of each side, and the change of the
medians against the metric's bound in ``BENCHMARK.json``. The two sides
must come from the same kind of machine and settings: if any
fingerprint field other than the commit and the seed differs (CPU
count, Python or numpy version, run length, environment knobs such as
``REPRO_IDLE_SKIP`` and ``REPRO_QUEUE``), nothing is compared and the
exit code is 2. Exit code 1 means a metric got worse beyond its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FREE_FIELDS = ("git_commit", "seed")


def load(path: str):
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def settings(record) -> dict:
    return {k: v for k, v in record["fingerprint"].items()
            if k not in FREE_FIELDS}


def mismatches(runs) -> list:
    """Fingerprint fields that differ between runs of one workload."""
    fields = {}
    for run in runs:
        for key, value in settings(run).items():
            fields.setdefault(key, set()).add(json.dumps(value,
                                                         sort_keys=True))
    return sorted(key for key, values in fields.items() if len(values) > 1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    side_a, side_b = load(argv[0]), load(argv[1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    workloads = sorted({r["fingerprint"]["workload"] for r in side_a + side_b})
    for workload in workloads:
        runs_a = [r for r in side_a if r["fingerprint"]["workload"] == workload]
        runs_b = [r for r in side_b if r["fingerprint"]["workload"] == workload]
        differ = mismatches(runs_a + runs_b)
        if differ:
            print(f"{workload}: not comparable, fingerprints differ in "
                  f"{', '.join(differ)}")
            return 2
        if not runs_a or not runs_b:
            print(f"{workload}: runs on one side only; skipped")
            continue
        names = sorted(set(runs_a[0]["result"]["metrics"])
                       & set(runs_b[0]["result"]["metrics"]))
        for name in names:
            va = [r["result"]["metrics"][name]["value"] for r in runs_a]
            vb = [r["result"]["metrics"][name]["value"] for r in runs_b]
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            meta = metrics.get(name, {})
            worse = -change if meta.get("better") == "higher" else change
            bound = meta.get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("WORSE beyond bound" if worse > bound
                           else f"within bound {bound}")
                if worse > bound:
                    status = 1
            print(f"{workload} {name}: A {qa[1]:.6g} [{qa[0]:.6g}, "
                  f"{qa[2]:.6g}] n={len(va)}  B {qb[1]:.6g} [{qb[0]:.6g}, "
                  f"{qb[2]:.6g}] n={len(vb)}  change {change:+.2%} {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
