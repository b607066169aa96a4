"""Operational integration tests: the testbed contract, full-scale runs."""

import pytest

from repro.experiments.common import make_testbed


class TestTestbedContract:
    def test_testbed_matches_section_41(self):
        bed = make_testbed(seed=5)
        for guest in (bed.bm, bed.vm):
            assert guest.cpu_spec.model == "Xeon E5-2682 v4"
            assert guest.memory.spec.capacity_gib == 64
        assert bed.vm.pinned  # "exclusive instance and pinned"
        assert bed.physical.sockets == 2
        assert bed.bm.name != bed.bm_peer.name

    def test_guests_share_one_fabric(self):
        bed = make_testbed(seed=5)
        assert bed.hive.fabric is bed.kvm.fabric


class TestFullScaleSpotChecks:
    def test_table2_at_paper_population(self):
        """quick=False runs the census at the paper's 300K VMs."""
        from repro.experiments import table2

        result = table2.run(seed=0, quick=False)
        assert result.passed
        assert result.rows[0]["percent_of_vms"] == pytest.approx(3.82, abs=0.3)

    def test_fig1_at_larger_population(self):
        from repro.experiments import fig1

        result = fig1.run(seed=0, quick=False)
        assert result.passed
