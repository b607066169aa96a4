"""Guest-side models: kernel costs, EFI firmware, and VM images."""

from repro.guest.firmware import (
    BootRecord,
    EfiFirmware,
    FirmwareImage,
    SignatureError,
)
from repro.guest.image import BOOTLOADER_SECTOR, KERNEL_SECTOR, VmImage
from repro.guest.kernel import GuestKernel, KernelSpec

__all__ = [
    "GuestKernel",
    "KernelSpec",
    "VmImage",
    "BOOTLOADER_SECTOR",
    "KERNEL_SECTOR",
    "EfiFirmware",
    "FirmwareImage",
    "SignatureError",
    "BootRecord",
]
