"""Record the per-seed reference digests ``perfbench/run.py`` checks against.

    python3 perfbench/make_reference.py --seeds 32

Runs every workload once per seed at full size and writes the digest of
its simulated output to ``perfbench/reference.json``. Re-record only
when a change is meant to alter simulated results, and say so: a
simulator-speed change must leave every digest as it is.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=32,
                        help="record seeds 0 .. N-1")
    args = parser.parse_args(argv)

    table = {}
    for name in WORKLOADS:
        digests = {}
        for seed in range(args.seeds):
            workload = workloads.make(name, seed)
            state = workload.setup()
            for _ in workload.run(state):
                pass
            outcome = workload.outcome(state)
            if outcome.failures:
                print(f"{name} seed {seed}: " + "; ".join(outcome.failures),
                      file=sys.stderr)
                return 1
            digests[str(seed)] = outcome.digest
            print(f"{name} seed {seed} {outcome.digest}", flush=True)
        table[name] = digests
    (HERE / "reference.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
