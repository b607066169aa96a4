"""region_scale shard protocol: sharded == serial, rung accounting,
and placement cost counted in scheduler heap operations."""

import pytest

import repro.cloud.scheduler as scheduler_module
from repro.experiments import region_scale
from repro.parallel import (ExperimentShardJob, RegionShardJob, is_shardable,
                            merge_bench, run_suite)


@pytest.fixture(scope="module")
def quick_result():
    return region_scale.run(seed=0, quick=True)


class TestShardProtocol:
    def test_declares_shard_protocol(self):
        assert is_shardable("region_scale")

    def test_plan_covers_rungs_in_order(self):
        plan = region_scale.shard_plan(seed=0, quick=True)
        assert all(isinstance(spec, RegionShardJob) for spec in plan)
        assert [(s.rung, s.shard) for s in plan] == [(0, 0), (1, 0), (1, 1)]
        # Shards of a rung split the racks evenly.
        for rung, (racks, n_shards) in enumerate(region_scale.QUICK_RUNGS):
            shards = [s for s in plan if s.rung == rung]
            assert len(shards) == n_shards
            assert sum(s.racks for s in shards) == racks

    def test_full_plan_reaches_million_guest_scale(self):
        plan = region_scale.shard_plan(seed=0, quick=False)
        top_rung = max(s.rung for s in plan)
        top = [s for s in plan if s.rung == top_rung]
        boards = sum(s.racks * s.servers_per_rack * s.boards_per_server
                     for s in top)
        # occupancy * boards / lifetime * duration ~ expected arrivals
        expected = 0.8 * boards / 2.0 * 11.0
        assert expected >= 1_000_000

    def test_shard_seeds_are_distinct(self):
        plan = region_scale.shard_plan(seed=0, quick=False)
        seeds = [s.shard_seed for s in plan]
        assert len(set(seeds)) == len(seeds)

    def test_merge_equals_serial_run(self, quick_result):
        plan = region_scale.shard_plan(seed=0, quick=True)
        payloads = [region_scale.run_shard(spec) for spec in plan]
        merged = region_scale.merge_shards(seed=0, quick=True,
                                           payloads=payloads)
        assert merged.rows == quick_result.rows
        assert [(c.name, c.passed) for c in merged.checks] \
            == [(c.name, c.passed) for c in quick_result.checks]

    def test_parallel_suite_matches_serial(self, quick_result):
        plan = region_scale.shard_plan(seed=0, quick=True)
        jobs = [ExperimentShardJob(experiment="region_scale", shard=k,
                                   seed=0, quick=True)
                for k in range(len(plan))]
        results = run_suite(jobs, n_jobs=2)
        _, experiment_results = merge_bench(jobs, results, {})
        merged = experiment_results["region_scale"]
        assert merged.rows == quick_result.rows


class TestResultShape:
    def test_checks_pass(self, quick_result):
        failed = [c.name for c in quick_result.failed_checks()]
        assert not failed, failed

    def test_rows_conserve_guests(self, quick_result):
        for row in quick_result.rows:
            assert row["placed"] == row["exits"] + row["running_at_end"]
            assert row["arrivals"] >= row["placed"]

    def test_bench_columns_split_deterministic_and_volatile(self,
                                                            quick_result):
        """Every BENCH column is a simulated counter: no wall-clock
        subtree exists for the diff gate to skip."""
        columns = region_scale.bench_columns(quick_result)
        assert set(columns) == {"rungs", "guest_lifetimes_total"}
        for row in quick_result.rows:
            assert "throughput" not in row
        for rung in columns["rungs"].values():
            assert rung["placements"] > 0
            assert "placements_per_s" not in rung
        assert columns["guest_lifetimes_total"] == sum(
            row["placed"] for row in quick_result.rows)


class TestPlacementCost:
    """Placement is not O(servers): each placement costs one heap pop
    and about one push, at any fleet size. Counted, not timed."""

    @pytest.mark.parametrize("racks", [4, 64])
    def test_heap_operations_per_placement_flat(self, racks, monkeypatch):
        counts = {"pop": 0, "push": 0}
        real_pop = scheduler_module.heappop
        real_push = scheduler_module.heappush

        def counting_pop(heap):
            counts["pop"] += 1
            return real_pop(heap)

        def counting_push(heap, item):
            counts["push"] += 1
            return real_push(heap, item)

        monkeypatch.setattr(scheduler_module, "heappop", counting_pop)
        monkeypatch.setattr(scheduler_module, "heappush", counting_push)
        shape = dict(region_scale.FULL_SHAPE)
        payload = RegionShardJob(seed=0, rung=0, shard=0, racks=racks,
                                 **shape).run()
        placed = payload["placed"]
        assert placed > 1000 * racks
        assert counts["pop"] == placed
        assert counts["push"] <= 1.01 * placed
