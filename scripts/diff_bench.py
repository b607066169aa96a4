#!/usr/bin/env python3
"""Compare two BENCH JSON files modulo wall-time/metadata fields.

The determinism contract of the parallel orchestrator is that a
``--jobs N`` run of ``scripts/export_bench.py`` differs from a serial
run only in wall-clock measurements and run metadata (timestamp, git
commit, worker count). This script enforces exactly that:

    PYTHONPATH=src python scripts/diff_bench.py bench_a.json bench_b.json

Exit code 0 iff the reports are equivalent; otherwise every difference
is printed. The ignored fields are :data:`repro.parallel.VOLATILE_KEYS`.

``--tolerance FRACTION`` upgrades the check from "identical modulo
wall time" to "identical, and no slower than X%": every ``wall_s`` /
``total_wall_s`` / ``elapsed_wall_s`` pair must then agree within the
given relative fraction (``--tolerance 0.25`` allows 25% drift), while
timestamps/commits/worker counts stay ignored. CI uses it to catch
wall-clock regressions that the pure-determinism diff is blind to.
"""

import argparse
import json
import pathlib

from repro.parallel import VOLATILE_KEYS, WALL_KEYS, bench_diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=pathlib.Path)
    parser.add_argument("second", type=pathlib.Path)
    parser.add_argument("--tolerance", type=float, default=None,
                        metavar="FRACTION",
                        help="compare wall_s fields within this relative "
                             "fraction (e.g. 0.25 = 25%%) instead of "
                             "ignoring them")
    parser.add_argument("--wall-floor", type=float, default=0.0,
                        metavar="SECONDS",
                        help="absolute noise floor for --tolerance: wall "
                             "differences below this many seconds always "
                             "pass (millisecond-scale experiments are "
                             "jitter-dominated)")
    args = parser.parse_args(argv)
    if args.tolerance is not None and args.tolerance < 0:
        parser.error("--tolerance must be >= 0")
    if args.wall_floor < 0:
        parser.error("--wall-floor must be >= 0")

    first = json.loads(args.first.read_text())
    second = json.loads(args.second.read_text())
    differences = bench_diff(first, second, wall_tolerance=args.tolerance,
                             wall_floor_s=args.wall_floor)
    ignored = sorted(VOLATILE_KEYS if args.tolerance is None
                     else VOLATILE_KEYS - WALL_KEYS)
    if differences:
        print(f"{args.first} and {args.second} differ beyond {ignored}:")
        for line in differences:
            print(f"  {line}")
        return 1
    suffix = "" if args.tolerance is None else (
        f", wall fields within {args.tolerance:.0%}")
    print(f"{args.first} == {args.second} (modulo {ignored}{suffix})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
