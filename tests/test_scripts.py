"""Smoke tests for the repository scripts and the CLI module entry."""

import importlib.util
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_export_figures_writes_csvs(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "export_figures.py"),
         str(tmp_path / "results")],
        capture_output=True, text=True, timeout=900,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    csvs = list((tmp_path / "results").glob("*.csv"))
    assert len(csvs) >= 20
    fig13 = (tmp_path / "results" / "fig13.csv").read_text()
    assert "read_only_qps" in fig13.splitlines()[0]


def test_module_cli_entry():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "fig9" in result.stdout


class TestExportBench:
    def test_out_path_carries_commit_and_timestamp(self, tmp_path):
        export_bench = _load_script("export_bench")
        out = tmp_path / "bench.json"
        path, failing = export_bench.run(["fig13"], out=str(out))
        assert path == out
        assert failing == []
        report = json.loads(out.read_text())
        assert report["jobs"] == 1
        assert len(report["git_commit"]) == 40
        assert report["timestamp"].endswith("+00:00")
        assert "fig13" in report["experiments"]
        assert report["experiments"]["fig13"]["events"]["events_popped"] > 0

    def test_auto_numbering_claims_slots_exclusively(self, tmp_path):
        export_bench = _load_script("export_bench")
        # Pre-claim slot 0 the way a concurrent run would: the next
        # claim must skip to slot 1 even though slot 0 is still empty
        # (the old exists() scan raced exactly here).
        first = export_bench._claim_bench_path(tmp_path)
        assert first.name == "BENCH_0.json"
        assert first.exists() and first.read_text() == ""
        second = export_bench._claim_bench_path(tmp_path)
        assert second.name == "BENCH_1.json"

    def test_parallel_run_equivalent_to_serial(self, tmp_path):
        export_bench = _load_script("export_bench")
        diff_bench = _load_script("diff_bench")
        serial, _ = export_bench.run(["fig13", "fig14"], jobs=1,
                                     out=str(tmp_path / "serial.json"))
        parallel, _ = export_bench.run(["fig13", "fig14"], jobs=2,
                                       out=str(tmp_path / "parallel.json"))
        assert diff_bench.main([str(serial), str(parallel)]) == 0

    def test_diff_bench_flags_real_differences(self, tmp_path):
        diff_bench = _load_script("diff_bench")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"seed": 0, "timestamp": "t0"}))
        b.write_text(json.dumps({"seed": 1, "timestamp": "t1"}))
        assert diff_bench.main([str(a), str(b)]) == 1

    def test_failed_checks_exit_nonzero(self, tmp_path, monkeypatch):
        """A failing experiment still gets its report written, but the
        run exits 1 so CI cannot pass over it."""
        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.base import Check, ExperimentResult

        def failing_run(seed=0, quick=True):
            return ExperimentResult("fig13", "planted failure",
                                    rows=[{"x": 1}],
                                    checks=[Check("planted", False)])

        monkeypatch.setitem(ALL_EXPERIMENTS, "fig13", failing_run)
        export_bench = _load_script("export_bench")
        out = tmp_path / "bench.json"
        assert export_bench.main(["fig13", "--out", str(out)]) == 1
        assert "fig13" in json.loads(out.read_text())["experiments"]


class TestSweep:
    def test_parse_seed_range(self):
        sweep = _load_script("sweep")
        assert list(sweep.parse_seed_range("3")) == [0, 1, 2]
        assert list(sweep.parse_seed_range("4:7")) == [4, 5, 6]
        for bad in ("0", "5:5", "7:3"):
            try:
                sweep.parse_seed_range(bad)
            except ValueError:
                continue
            raise AssertionError(f"{bad!r} accepted")

    def test_sweep_reports_per_seed_and_aggregate(self, tmp_path):
        sweep = _load_script("sweep")
        out = tmp_path / "sweep.json"
        code = sweep.main(["fig13", "--seeds", "2", "--jobs", "2",
                           "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["experiment"] == "fig13"
        assert [row["seed"] for row in report["per_seed"]] == [0, 1]
        assert report["aggregate"]["all_passed"] is True
        assert report["aggregate"]["n_seeds"] == 2
        assert sweep.sweep("fig13", range(2), jobs=1) == report

    def test_unknown_experiment_rejected(self):
        sweep = _load_script("sweep")
        try:
            sweep.main(["not_an_experiment", "--seeds", "2"])
        except SystemExit as exc:
            assert exc.code == 2
        else:
            raise AssertionError("argparse should have exited")


def test_refresh_perf_golden_is_stable(tmp_path, monkeypatch):
    refresh = _load_script("refresh_perf_golden")
    target = tmp_path / "golden.json"
    monkeypatch.setattr(refresh, "GOLDEN_PATH", target)
    assert refresh.main() == 0
    committed = json.loads(
        (ROOT / "tests" / "perf" / "golden_event_counts.json").read_text())
    assert json.loads(target.read_text()) == committed
