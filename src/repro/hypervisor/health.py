"""Compute-board health signals.

The bm-hypervisor "controls [the guests'] execution via the PCIe
interface" (Section 1) — including noticing when a board stops
responding. :class:`BoardHealth` is the per-board vocabulary for that:
the region's ``correlated_board_hang`` fault marks a board SUSPECT,
and :meth:`repro.cloud.health.FleetHealth.ingest_board_health` folds
the signal into the server health state machine.
"""

from __future__ import annotations

import enum

__all__ = ["BoardHealth"]


class BoardHealth(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    RESET = "reset"
