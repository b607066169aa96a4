"""Hypervisor layer: the KVM baseline and the bm-hypervisor."""

from repro.hypervisor.bm import BmHypervisor, BmHypervisorSpec, GuestState
from repro.hypervisor.health import BoardHealth
from repro.hypervisor.kvm import HostScheduler, HostSchedulerSpec, KvmModel, KvmSpec
from repro.hypervisor.upgrade import HypervisorState, LiveUpgradeRecord, live_upgrade

__all__ = [
    "KvmModel",
    "KvmSpec",
    "HostScheduler",
    "HostSchedulerSpec",
    "BmHypervisor",
    "BmHypervisorSpec",
    "GuestState",
    "live_upgrade",
    "LiveUpgradeRecord",
    "HypervisorState",
    "BoardHealth",
]
