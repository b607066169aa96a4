"""Tests of the benchmark itself: contract, smoke runs, span accounting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, seed, trace, cwd=ROOT, seconds="0.2"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_declares_what_the_code_emits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert declared == list(tracing.LAYER_METRICS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    # The traced run uses a second seed: same metric set, nothing failed.
    proc = run_bench(workload, seed=7 * trace, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            assert NAME.fullmatch(line.split()[1])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ("fio_datapath", "fault_campaign",
                                      "region_saturated"))
def test_self_time_within_parent_and_output_unchanged(workload):
    plain = workloads.make(workload, seed=3, scale="tiny")
    state = plain.setup()
    for _ in plain.run(state):
        pass
    untraced = plain.outcome(state)

    traced = workloads.make(workload, seed=3, scale="tiny")
    with tracing.Tracer() as tracer:
        with tracer.span("bench.run"):
            state = traced.setup()
            for _ in traced.run(state):
                pass
    assert traced.outcome(state).digest == untraced.digest

    spans = tracer.spans()
    eps = 1e-9
    assert (spans["self"] >= -eps).all()
    has_parent = spans["parent"] >= 0
    parent_dur = spans["dur"][spans["parent"][has_parent]]
    assert (spans["self"][has_parent] <= parent_dur + eps).all()
    assert (spans["dur"][has_parent] <= parent_dur + eps).all()
    layers = tracer.layer_self_s(spans, traced.self_layer)
    assert all(v >= -eps for v in layers.values())
    root = spans["dur"][~has_parent].sum()
    assert sum(layers.values()) == pytest.approx(root, rel=1e-6)
    assert len(spans["dur"]) > 10


def test_tracer_restores_every_method():
    def attrs():
        return {(m, c, meth): tracing._target(m, c, meth)
                for m, c, meths, _ in tracing.TARGETS for meth in meths}

    before = attrs()
    with tracing.Tracer() as tracer:
        assert attrs() != before
    assert attrs() == before
    assert len(tracer.missing) == sum(v is None for v in before.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("region_churn", seed=0, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def _record(path, seed, env_queue):
    fp = {"workload": "region_churn", "scale": "full", "seed": seed,
          "seconds": 25, "trace": 0, "cpu_count": 2, "machine": "x86_64",
          "python": "3.11", "numpy": "2", "git_commit": f"c{seed}",
          "env": {"REPRO_IDLE_SKIP": None, "REPRO_QUEUE": env_queue}}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"ops_per_s": {"value": 100.0 + seed,
                                        "unit": "1/s"}}}
    with open(path, "a") as fh:
        fh.write(json.dumps({"fingerprint": fp, "digest": "d",
                             "result": result}) + "\n")


def test_compare_refuses_runs_with_different_knobs(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for seed in range(3):
        _record(a, seed, None)
        _record(b, seed + 10, "heap")
    assert compare.main([str(a), str(b)]) == 2
    assert "differ in env" in capsys.readouterr().out
    c = tmp_path / "c.jsonl"
    for seed in range(3):
        _record(c, seed + 1, None)
    assert compare.main([str(a), str(c)]) == 0
