"""End-to-end checks: every table/figure reproduction passes its shape checks."""

import pytest

from repro.experiments import ALL_EXPERIMENTS

EXPECTED_IDS = {
    "table1", "table2", "table3",
    "fig1", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16",
    "cost", "nested", "iobond_micro", "security", "ablations",
    "future_work", "fault_isolation", "chaos_campaign", "mq_ablation",
    "cross_rack", "incast", "region_resilience", "region_scale",
    "region_campaign",
}


def test_registry_covers_every_table_and_figure():
    assert set(ALL_EXPERIMENTS) == EXPECTED_IDS


@pytest.mark.parametrize("exp_id", sorted(EXPECTED_IDS))
def test_experiment_passes_its_shape_checks(exp_id, experiment_results):
    result = experiment_results[exp_id]
    failed = result.failed_checks()
    detail = "; ".join(f"{c.name} ({c.detail})" for c in failed)
    assert result.passed, f"{exp_id} failed: {detail}"


@pytest.mark.parametrize("exp_id", sorted(EXPECTED_IDS))
def test_experiment_produces_rows(exp_id, experiment_results):
    result = experiment_results[exp_id]
    assert result.experiment_id == exp_id
    assert result.rows, f"{exp_id} produced no rows"
    assert result.title
    assert result.checks


def test_results_format_as_tables(experiment_results):
    for result in experiment_results.values():
        table = result.format_table()
        assert result.experiment_id in table
        assert "checks: PASS" in table
