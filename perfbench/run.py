"""Serial benchmark of the BM-Hive simulator: one workload per process.

    python3 perfbench/run.py --workload region_churn --seed 0 --seconds 25 --trace 0

Repeats the workload (set-up, then run) in this process for at most
``--seconds`` (but at least twice), checks every repeat's simulated
output, and prints one metric per line followed by a JSON result line.
With
``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
repeats and carries the per-layer metrics instead, including the
tracing overhead. ``--out FILE`` appends the result with its machine
fingerprint to a JSON-lines file that ``perfbench/compare.py`` reads.

Host times are reported in reference seconds: a short fixed
calibration loop runs after set-up and after each step of the run (a
fio job, a campaign), and each interval is scaled by how much slower
than :data:`CAL_REFERENCE_S` the loops on either side of it ran. On a
shared machine this removes most of the drift in host speed from run
to run. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("region_churn", "region_saturated", "fio_datapath",
             "fault_campaign")
ENV_KNOBS = ("REPRO_IDLE_SKIP", "REPRO_QUEUE")
MIN_REPEATS = 2

# -- host-speed calibration --------------------------------------------

CAL_ITERS = 30_000
CAL_REFERENCE_S = 0.05  # the loop's time at reference host speed
_CAL_KEYS = 1 << 17
# Int-only dict: the garbage collector does not track it, so it does
# not slow the workload's collections.
_CAL_TABLE = dict.fromkeys(range(_CAL_KEYS), 1)


class _Cell:
    __slots__ = ("v",)

    def bump(self, x: int) -> int:
        self.v = x
        return x & 7


_CAL_CELLS = [_Cell() for _ in range(64)]


def calibrate() -> float:
    """Seconds one pass of a fixed interpreter-bound loop takes now.

    The loop mixes what the simulator spends its time on: dict lookups
    over a table larger than the core's caches, method calls and a
    binary heap.
    """
    t0 = time.perf_counter()
    heap = []
    total = 0
    idx = 1
    table, cells, mask = _CAL_TABLE, _CAL_CELLS, _CAL_KEYS - 1
    for i in range(CAL_ITERS):
        idx = (idx * 1103515245 + 12345) & mask
        total += table[idx] + cells[idx & 63].bump(i)
        heapq.heappush(heap, (idx, i))
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - t0


# -- fingerprint and reference -----------------------------------------

def fingerprint(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "env": {knob: os.environ.get(knob) for knob in ENV_KNOBS},
    }


def git_commit(root: Path):
    """HEAD's commit read from ``.git`` directly; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_reference(workload: str, seed: int, scale: str):
    path = HERE / "reference.json"
    if scale != "full" or not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


# -- repeats -----------------------------------------------------------

def slowness(cal_a: float, cal_b: float) -> float:
    """Host slowness between two calibrations (1.0 = reference speed)."""
    return (cal_a + cal_b) / (2 * CAL_REFERENCE_S)


_END = object()


def one_repeat(workload, tracer, cal):
    """Set up and run once, calibrating after set-up and after each step.

    ``cal`` is the calibration taken just before. Returns ``(setup_s,
    run_s, raw_run_s, cal, outcome, error)``: set-up and run time in
    reference seconds, the run's raw host seconds, and the last
    calibration.
    """
    from repro.sim import reset_global_stats
    from tracing import null_span

    span = tracer.span if tracer is not None else null_span
    # Each repeat is one job: like repro.parallel's job executor, drop
    # the kernel's process-wide stats registry first (it keeps every
    # earlier simulator's queue alive), then collect the garbage.
    reset_global_stats()
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        with span("bench.setup"):
            state = workload.setup()
        setup_raw = time.perf_counter() - t0
        after = calibrate()
        setup_s = setup_raw / slowness(cal, after)
        cal = after
        run_s = raw = 0.0
        steps = iter(workload.run(state))
        while True:
            t0 = time.perf_counter()
            with span("bench.run"):
                finished = next(steps, _END) is _END
            step = time.perf_counter() - t0
            raw += step
            if finished:
                run_s += step / slowness(cal, cal)
                break
            after = calibrate()
            run_s += step / slowness(cal, after)
            cal = after
    except Exception:  # a failed repeat is reported, not fatal
        return None, None, None, cal, None, traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.remove()
    try:
        return setup_s, run_s, raw, cal, workload.outcome(state), None
    except Exception:
        return None, None, None, cal, None, traceback.format_exc()


def median(values):
    return statistics.median(values) if values else 0.0


class Measurements:
    """Everything the repeats of one run produced."""

    def __init__(self):
        self.setups, self.runs, self.traced_runs = [], [], []
        self.rates, self.layer_rows, self.slowness = [], [], []
        self.digests, self.errors = [], []
        self.attempted = self.failed = 0
        self.last = None
        self.untraced_targets = []
        self.peak_rss_mb = 0.0


def measure(workload, args, reference, tracing) -> Measurements:
    m = Measurements()
    units = dict(tracing.LAYER_METRICS)
    cal = calibrate()
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    n = 0
    while True:
        traced = bool(args.trace) and n % 2 == 1
        tracer = tracing.Tracer() if traced else None
        t0 = time.perf_counter()
        setup_s, run_s, raw_run_s, cal, outcome, error = one_repeat(
            workload, tracer, cal)
        longest = max(longest, time.perf_counter() - t0)
        n += 1
        if n == MIN_REPEATS:
            # High-water mark over a fixed amount of work, so it does
            # not depend on how many repeats fit in the run.
            m.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
        if error is not None:
            m.errors.append(error)
            size = m.last.attempted if m.last else 1
            m.attempted += size
            m.failed += size
        else:
            record(m, outcome, traced, reference, args.seed)
            slow = raw_run_s / run_s
            m.slowness.append(slow)
            if traced:
                m.traced_runs.append(run_s)
                row = tracing.layer_metrics(tracer, workload.self_layer)
                m.untraced_targets = tracer.missing
                m.layer_rows.append({
                    k: v / slow if units[k] == "s" else v
                    for k, v in row.items()})
            else:
                m.setups.append(setup_s)
                m.runs.append(run_s)
                m.rates.append(outcome.ops / run_s)
        if m.errors and n >= MIN_REPEATS:
            break
        # Stop before a repeat that would end past the deadline.
        enough = n >= MIN_REPEATS and (not args.trace or m.traced_runs)
        if enough and time.perf_counter() + longest > deadline:
            break
    return m


def record(m: Measurements, outcome, traced: bool, reference, seed) -> None:
    """Gate one repeat's simulated output; count its operations."""
    m.last = outcome
    m.attempted += outcome.attempted
    problems = list(outcome.failures)
    if m.digests and outcome.digest != m.digests[0]:
        problems.append("simulated output differs from the first repeat"
                        + (" (traced repeat)" if traced else ""))
    if reference is not None and outcome.digest != reference:
        problems.append(f"simulated output differs from the reference "
                        f"for seed {seed}")
    m.digests.append(outcome.digest)
    if problems:
        m.failed += outcome.attempted
        m.errors.extend(problems)


def per_layer(m: Measurements):
    """Per-layer metrics: medians over traced repeats, plus counters."""
    from tracing import LAYER_METRICS

    # median_low keeps deterministic counts whole numbers.
    metrics = {name: statistics.median_low([row[name] for row in m.layer_rows])
               for name in m.layer_rows[0]}
    metrics.update(m.last.counters)
    events = metrics["sim.events"]
    untraced = median(m.runs)
    metrics["sim.host_ns_per_event"] = (
        untraced / events * 1e9 if events else 0.0)
    metrics["trace.overhead_s"] = median(m.traced_runs) - untraced
    metrics["trace.overhead_pct"] = (
        100.0 * metrics["trace.overhead_s"] / untraced if untraced else 0.0)
    metrics["model_err_pct"] = m.last.extra.get("model_err_pct", 0.0)
    units = dict(LAYER_METRICS)
    return {name: metrics.get(name, 0) for name in units}, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for smoke tests; no reference digests")
    parser.add_argument("--out", help="append the result to this JSONL file")
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    # Build step (not timed): byte-compile the sources once per checkout.
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    cal_pre = calibrate()
    t_import = time.perf_counter()
    try:
        import tracing
        import workloads
    except ImportError:
        traceback.print_exc()
        return 2
    import_s = time.perf_counter() - t_import
    import_s /= slowness(cal_pre, calibrate())

    workload = workloads.make(args.workload, args.seed, args.scale)
    reference = load_reference(args.workload, args.seed, args.scale)
    m = measure(workload, args, reference, tracing)

    for error in m.errors:
        print(f"FAILED: {error.rstrip()}", file=sys.stderr)
    correct = not m.errors and m.last is not None
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"{len(m.runs)} untraced + {len(m.traced_runs)} traced repeats in "
          f"{time.perf_counter() - t_start:.1f} s; host slowness median "
          f"{median(m.slowness):.3f} (range {min(m.slowness, default=0):.3f}"
          f"-{max(m.slowness, default=0):.3f})")
    print("fingerprint " + json.dumps(fingerprint(args), sort_keys=True))
    print(f"digest {m.digests[0] if m.digests else None} "
          f"reference {reference or 'none'}")

    metrics, units = {}, {}
    if m.rates and not args.trace:
        metrics = {
            "ops_per_s": median(m.rates),
            "setup_s": import_s + median(m.setups),
            "peak_rss_mb": m.peak_rss_mb,
        }
        units = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"info ops are {workload.op}; run_s median "
              f"{median(m.runs):.4f}, import_s {import_s:.4f} "
              f"(reference seconds)")
    elif m.layer_rows:
        metrics, units = per_layer(m)
        if m.untraced_targets:
            print("info not in the program, so not traced: "
                  + ", ".join(m.untraced_targets))
    extra = dict(m.last.extra) if m.last is not None else {}
    for name, value in sorted({**extra, **metrics}.items()):
        print(f"metric {name} {value!r} {units.get(name, '%')}")
    print(f"metric failed_ratio {m.failed / max(m.attempted, 1)!r} ratio")
    if not metrics:
        print("perfbench: no repeat completed; no result", file=sys.stderr)
        return 1

    result = {
        "correct": correct,
        "attempted": max(m.attempted, 1),
        "failed": m.failed if correct else max(m.failed, 1),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"fingerprint": fingerprint(args),
                                 "digest": m.digests[0],
                                 "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
