"""Reproduction of every table and figure in the paper's evaluation.

Each module exposes ``run(seed=0, quick=True) -> ExperimentResult``.
``ALL_EXPERIMENTS`` maps experiment ids to those runners;
:func:`run_all` executes the whole suite.
"""

from typing import Callable, Dict

from repro.experiments import (
    ablations,
    chaos_campaign,
    cost,
    cross_rack,
    fig1,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fault_isolation,
    future_work,
    incast,
    iobond_micro,
    mq_ablation,
    nested,
    region_campaign,
    region_resilience,
    region_scale,
    security_exp,
    table1,
    table2,
    table3,
)
from repro.experiments.base import Check, ExperimentResult, check, check_between
from repro.experiments.common import Testbed, TestbedBuilder, make_testbed

ALL_EXPERIMENTS: Dict[str, Callable] = {
    module.EXPERIMENT_ID: module.run
    for module in (
        table1, table2, table3,
        fig1, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15, fig16,
        cost, nested, iobond_micro, mq_ablation, security_exp, ablations,
        future_work, fault_isolation, chaos_campaign, cross_rack, incast,
        region_resilience, region_scale, region_campaign,
    )
}


def run_all(seed: int = 0, quick: bool = True) -> Dict[str, ExperimentResult]:
    """Run every experiment; returns results keyed by experiment id."""
    return {exp_id: runner(seed=seed, quick=quick)
            for exp_id, runner in ALL_EXPERIMENTS.items()}


__all__ = [
    "ALL_EXPERIMENTS",
    "run_all",
    "ExperimentResult",
    "Check",
    "check",
    "check_between",
    "Testbed",
    "TestbedBuilder",
    "make_testbed",
]
