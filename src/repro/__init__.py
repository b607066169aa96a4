"""repro -- a simulation-based reproduction of BM-Hive (ASPLOS 2020).

"High-density Multi-tenant Bare-metal Cloud" describes BM-Hive:
bare-metal guests on dedicated PCIe compute boards, bridged to the
cloud's virtio backends by an FPGA called IO-Bond. This package
reimplements the whole system -- virtqueues, IO-Bond, the
bm-hypervisor, the KVM baseline, the DPDK/SPDK backends, and the
evaluation workloads -- as a deterministic discrete-event simulation.

Quickstart::

    from repro import Simulator, BmHiveServer, VirtServer

    sim = Simulator(seed=42)
    hive = BmHiveServer(sim)
    guest = hive.launch_guest()          # a bm-guest on its own board
    kvm = VirtServer(sim, fabric=hive.fabric)
    vm = kvm.launch_guest()              # the baseline vm-guest

See ``repro.experiments`` for the reproduction of every table and
figure in the paper.
"""

from repro.core import (
    BmGuest,
    BmHiveServer,
    PhysicalMachine,
    VirtServer,
    VmGuest,
)
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "BmHiveServer",
    "VirtServer",
    "BmGuest",
    "VmGuest",
    "PhysicalMachine",
    "__version__",
]
