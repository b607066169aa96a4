"""BM-Hive core: guests, datapaths, servers, and live conversion."""

from repro.core.guests import BmGuest, Guest, PhysicalMachine, VmGuest
from repro.core.live_conversion import (
    ConversionError,
    LiveConversionLayer,
    LiveMigrationRecord,
    live_migrate_bm_guest,
)
from repro.core.paths import BmBlkPath, BmNetPath, VmBlkPath, VmNetPath
from repro.core.server import BmHiveServer, VirtServer
from repro.core.tenant_hypervisor import TenantGuest, TenantHypervisor
from repro.core.vm_datapath import VmBlkService, vm_boot_via_rings

__all__ = [
    "Guest",
    "PhysicalMachine",
    "BmGuest",
    "VmGuest",
    "BmHiveServer",
    "VirtServer",
    "BmNetPath",
    "VmNetPath",
    "BmBlkPath",
    "VmBlkPath",
    "live_migrate_bm_guest",
    "LiveMigrationRecord",
    "LiveConversionLayer",
    "ConversionError",
    "VmBlkService",
    "vm_boot_via_rings",
    "TenantHypervisor",
    "TenantGuest",
]
