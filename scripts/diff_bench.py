#!/usr/bin/env python3
"""Compare two BENCH JSON files modulo wall-time/metadata fields.

The determinism contract of the parallel orchestrator is that a
``--jobs N`` run of ``scripts/export_bench.py`` differs from a serial
run only in wall-clock measurements and run metadata (timestamp, git
commit, worker count). This script enforces exactly that:

    PYTHONPATH=src python scripts/diff_bench.py bench_a.json bench_b.json

Exit code 0 iff the reports are equivalent; otherwise every difference
is printed. The ignored fields are :data:`repro.parallel.VOLATILE_KEYS`.
"""

import argparse
import json
import pathlib

from repro.parallel import VOLATILE_KEYS, bench_diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=pathlib.Path)
    parser.add_argument("second", type=pathlib.Path)
    args = parser.parse_args(argv)

    first = json.loads(args.first.read_text())
    second = json.loads(args.second.read_text())
    differences = bench_diff(first, second)
    ignored = sorted(VOLATILE_KEYS)
    if differences:
        print(f"{args.first} and {args.second} differ beyond {ignored}:")
        for line in differences:
            print(f"  {line}")
        return 1
    print(f"{args.first} == {args.second} (modulo {ignored})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
