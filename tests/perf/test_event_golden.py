"""Deterministic perf-regression gate over kernel event counts.

Wall-clock is too noisy to gate in CI; the DES kernel's counters are
exact. For a fixed seed, ``fig9`` and ``fig11`` pop a deterministic
number of events, and ``fast_path_hits`` records how many went through
the single-waiter fast lane — the optimization PR 1 bought. A change
that silently de-optimizes the hot path (events leaking off the fast
lane, poll loops scheduling extra wakeups) moves these integers and
fails here long before anyone notices a slow benchmark.

Intentional changes are a one-command refresh away::

    PYTHONPATH=src python scripts/refresh_perf_golden.py

The golden file records both idle-skip modes.
"""

import json
import pathlib

import pytest

from repro.parallel import ExperimentJob, execute
from repro.sim import set_idle_skip_default

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_event_counts.json"
REFRESH_HINT = ("counts moved — if intentional, refresh with "
                "`PYTHONPATH=src python scripts/refresh_perf_golden.py`")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["experiments"]


class TestEventCountGolden:
    @pytest.mark.parametrize("experiment", ["fig9", "fig11"])
    @pytest.mark.parametrize("idle_skip", [True, False],
                             ids=["idle_skip_on", "idle_skip_off"])
    def test_counts_match_golden(self, golden, experiment, idle_skip):
        previous = set_idle_skip_default(idle_skip)
        try:
            result = execute(ExperimentJob(experiment, seed=0, quick=True))
        finally:
            set_idle_skip_default(previous)
        assert result.payload.passed
        mode = "idle_skip_on" if idle_skip else "idle_skip_off"
        expected = golden[experiment][mode]
        observed = {counter: result.events[counter] for counter in expected}
        assert observed == expected, f"{experiment} {mode}: {REFRESH_HINT}"

    def test_golden_counts_are_nontrivial(self, golden):
        # Guard against an empty/placeholder golden file silently
        # turning the gate into a no-op.
        for experiment, modes in golden.items():
            for mode, counters in modes.items():
                assert counters["events_popped"] > 10_000, (experiment, mode)
                assert 0 < counters["fast_path_hits"] <= (
                    counters["events_popped"]), (experiment, mode)
