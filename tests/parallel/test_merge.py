"""Deterministic merge layer: ordering, metadata-blind diffs, aggregation."""

import pytest

from repro.parallel import (VOLATILE_KEYS, ChaosCampaignJob, ExperimentJob,
                            JobResult, SeedSweepJob, bench_diff, merge_bench,
                            merge_chaos, merge_sweep)


def _result(key, payload, events=None):
    return JobResult(key=key, payload=payload,
                     events=events or {"events_popped": 10})


class TestBenchDiff:
    def test_equivalent_modulo_volatile(self):
        assert VOLATILE_KEYS == {"timestamp", "git_commit", "jobs"}
        a = {"seed": 0, "timestamp": "t0", "git_commit": "abc", "jobs": 1,
             "experiments": {"f": {"events": {"e": 3}}}}
        b = {"seed": 0, "timestamp": "t1", "git_commit": "def", "jobs": 4,
             "experiments": {"f": {"events": {"e": 3}}}}
        assert bench_diff(a, b) == []

    def test_reports_value_and_key_differences(self):
        a = {"seed": 0, "x": {"e": 3}}
        b = {"seed": 1, "x": {"e": 4}, "extra": True}
        differences = bench_diff(a, b)
        assert any("seed" in d for d in differences)
        assert any("x.e" in d for d in differences)
        assert any("extra" in d for d in differences)

    def test_reports_list_differences(self):
        assert bench_diff({"l": [1, 2]}, {"l": [1, 3]}) == ["l[1]: 2 != 3"]
        assert bench_diff({"l": [1]}, {"l": [1, 2]}) == ["l: length 1 != 2"]


class TestQueueConfigMismatch:
    def _pair(self):
        a = {"queue_config": {"blk_queues": 1, "passthrough": False},
             "experiments": {"f": {"events": {"e": 3}}}}
        b = {"queue_config": {"blk_queues": 4, "passthrough": True},
             "experiments": {"f": {"events": {"e": 99}}}}
        return a, b

    def test_mismatch_short_circuits_the_row_diff(self):
        """Reports from different queue configs are incomparable: the
        single surfaced difference names the config, not the rows."""
        a, b = self._pair()
        differences = bench_diff(a, b)
        assert len(differences) == 1
        assert "queue_config mismatch" in differences[0]
        assert "not comparable" in differences[0]
        assert "blk_queues: 1 vs 4" in differences[0]
        assert not any("experiments" in d for d in differences)

    def test_matching_config_diffs_rows_normally(self):
        a, b = self._pair()
        b["queue_config"] = dict(a["queue_config"])
        assert bench_diff(a, b) == ["experiments.f.events.e: 3 != 99"]

    def test_reports_without_config_diff_normally(self):
        """Older reports (no queue_config header) keep the historical
        row-by-row behavior."""
        a, b = self._pair()
        del a["queue_config"], b["queue_config"]
        assert bench_diff(a, b) == ["experiments.f.events.e: 3 != 99"]


class TestTopologyMismatch:
    def _pair(self):
        a = {"topology": {"n_racks": 0, "n_spines": 1},
             "experiments": {"f": {"events": {"e": 3}}}}
        b = {"topology": {"n_racks": 2, "n_spines": 2},
             "experiments": {"f": {"events": {"e": 99}}}}
        return a, b

    def test_mismatch_short_circuits_the_row_diff(self):
        """Single-hop vs routed-Clos reports are incomparable: the one
        surfaced difference names the topology, not the rows."""
        a, b = self._pair()
        differences = bench_diff(a, b)
        assert len(differences) == 1
        assert "topology mismatch" in differences[0]
        assert "not comparable" in differences[0]
        assert "n_racks: 0 vs 2" in differences[0]
        assert not any("experiments" in d for d in differences)

    def test_matching_topology_diffs_rows_normally(self):
        a, b = self._pair()
        b["topology"] = dict(a["topology"])
        assert bench_diff(a, b) == ["experiments.f.events.e: 3 != 99"]

    def test_reports_without_topology_diff_normally(self):
        """Pre-fabric reports (no topology header) keep the historical
        row-by-row behavior."""
        a, b = self._pair()
        del a["topology"], b["topology"]
        assert bench_diff(a, b) == ["experiments.f.events.e: 3 != 99"]


class TestMergeBench:
    def test_experiment_order_follows_jobs_not_completion(self):
        jobs = [ExperimentJob("b_exp"), ExperimentJob("a_exp")]
        results = {  # dict insertion order is completion order here
            "experiment:a_exp:seed0": _result("experiment:a_exp:seed0", None),
            "experiment:b_exp:seed0": _result("experiment:b_exp:seed0", None),
        }
        report, _ = merge_bench(jobs, results, {"seed": 0})
        assert list(report["experiments"]) == ["b_exp", "a_exp"]
        assert report["seed"] == 0
        assert report["experiments"]["b_exp"] == {
            "events": {"events_popped": 10}}

    def test_events_summed_within_experiment(self):
        # Two ExperimentJobs with distinct seeds group under one name.
        jobs = [ExperimentJob("e", seed=0), ExperimentJob("e", seed=1)]
        results = {
            jobs[0].key: _result(jobs[0].key, None, {"events_popped": 7}),
            jobs[1].key: _result(jobs[1].key, None, {"events_popped": 5}),
        }
        report, _ = merge_bench(jobs, results, {})
        assert report["experiments"]["e"]["events"]["events_popped"] == 12

    def test_queue_len_max_folds_as_high_water_mark(self):
        # queue_len_max is a depth high-water mark, not traffic: two
        # shards with maxima 40 and 25 merge to 40, never 65 (mirrors
        # global_event_totals across simulators).
        jobs = [ExperimentJob("e", seed=0), ExperimentJob("e", seed=1)]
        results = {
            jobs[0].key: _result(jobs[0].key, None,
                                 {"events_popped": 7, "queue_len_max": 40}),
            jobs[1].key: _result(jobs[1].key, None,
                                 {"events_popped": 5, "queue_len_max": 25}),
        }
        report, _ = merge_bench(jobs, results, {})
        assert report["experiments"]["e"]["events"] == {
            "events_popped": 12, "queue_len_max": 40}


class TestMergeChaos:
    def _payload(self, seed, failed=False, plan=None):
        entry = {"failed": failed, "n_faults": 2, "monitor_samples": 5}
        if failed:
            entry["shrink"] = {"minimal_faults": 1}
        return {"seed": seed, "failed": failed, "entry": entry,
                "minimized_plan": plan}

    def test_campaigns_keyed_in_seed_order(self):
        jobs = [ChaosCampaignJob(seed) for seed in (2, 0, 1)]
        results = {job.key: _result(job.key, self._payload(job.seed))
                   for job in jobs}
        report, minimized, failures = merge_chaos(jobs, results, {"x": 1})
        assert list(report["campaigns"]) == ["0", "1", "2"]
        assert report["failures"] == 0 == failures
        assert minimized == {}

    def test_failures_counted_and_plans_collected(self):
        jobs = [ChaosCampaignJob(0), ChaosCampaignJob(1)]
        plan = {"json": "{}\n", "summary": "s", "describe": "d"}
        results = {
            jobs[0].key: _result(jobs[0].key, self._payload(0)),
            jobs[1].key: _result(jobs[1].key,
                                 self._payload(1, failed=True, plan=plan)),
        }
        report, minimized, failures = merge_chaos(jobs, results, {})
        assert failures == 1
        assert report["failures"] == 1
        assert minimized == {1: plan}


class TestMergeSweep:
    def _payload(self, seed, passed=True, digest="d0", qps=100.0):
        return {
            "seed": seed, "experiment": "e", "passed": passed,
            "checks_passed": 3 if passed else 2, "checks_total": 3,
            "failed_checks": [] if passed else ["c"],
            "row_count": 4, "rows_sha256": digest,
            "metrics": {"qps": qps},
        }

    def test_rows_in_seed_order_with_aggregates(self):
        jobs = [SeedSweepJob("e", seed) for seed in (1, 0, 2)]
        results = {
            jobs[0].key: _result(jobs[0].key, self._payload(1, qps=200.0)),
            jobs[1].key: _result(jobs[1].key, self._payload(0, qps=100.0)),
            jobs[2].key: _result(jobs[2].key, self._payload(2, qps=300.0)),
        }
        report = merge_sweep(jobs, results)
        assert [row["seed"] for row in report["per_seed"]] == [0, 1, 2]
        aggregate = report["aggregate"]
        assert aggregate["n_seeds"] == 3
        assert aggregate["all_passed"] is True
        assert aggregate["distinct_row_digests"] == 1
        assert aggregate["metrics"]["qps"]["mean"] == pytest.approx(200.0)
        assert aggregate["metrics"]["qps"]["min"] == 100.0
        assert aggregate["metrics"]["qps"]["max"] == 300.0

    def test_failed_seed_flips_all_passed(self):
        jobs = [SeedSweepJob("e", 0), SeedSweepJob("e", 1)]
        results = {
            jobs[0].key: _result(jobs[0].key, self._payload(0)),
            jobs[1].key: _result(jobs[1].key,
                                 self._payload(1, passed=False, digest="d1")),
        }
        aggregate = merge_sweep(jobs, results)["aggregate"]
        assert aggregate["passed_seeds"] == 1
        assert aggregate["all_passed"] is False
        assert aggregate["distinct_row_digests"] == 2


class TestAbsentVersusZero:
    """A key present on one side only is a difference, whatever its
    value: reports from one code version carry the same keys."""

    def test_zero_block_on_one_side_is_a_difference(self):
        zero = {"experiments": {"cost": {
            "events": {"events_popped": 0}, "rows": []}}}
        absent = {"experiments": {"cost": {}}}
        assert bench_diff(zero, absent) == [
            "experiments.cost.events: only in first",
            "experiments.cost.rows: only in first"]

    def test_nonzero_block_still_diffs(self):
        old = {"experiments": {"f": {"events": {"events_popped": 7}}}}
        new = {"experiments": {"f": {}}}
        assert bench_diff(old, new) == ["experiments.f.events: only in first"]
        assert bench_diff(new, old) == ["experiments.f.events: only in second"]

    def test_false_and_empty_string_are_not_zero_like(self):
        a = {"x": {"flag": False}}
        b = {"x": {}}
        assert bench_diff(a, b) == ["x.flag: only in first"]
        assert bench_diff({"x": {"s": ""}}, b) == ["x.s: only in first"]
