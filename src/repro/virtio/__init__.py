"""Virtio substrate: split virtqueues, devices, and the PCI transport."""

from repro.virtio.blk import (
    SECTOR_BYTES,
    VIRTIO_BLK_F_MQ,
    VIRTIO_BLK_S_IOERR,
    VIRTIO_BLK_S_OK,
    VIRTIO_BLK_S_UNSUPP,
    VIRTIO_BLK_T_FLUSH,
    VIRTIO_BLK_T_IN,
    VIRTIO_BLK_T_OUT,
    BlkRequestHeader,
    VirtioBlkDevice,
    blk_queue_for_request,
)
from repro.virtio.device import (
    VIRTIO_ID_BLOCK,
    VIRTIO_ID_NET,
    DeviceStatus,
    Feature,
    VirtioDevice,
    feature_mask,
    full_init,
)
from repro.virtio.memory import GuestMemory
from repro.virtio.net import (
    RX_QUEUE,
    TX_QUEUE,
    VirtioNetDevice,
    VirtioNetHeader,
    ethernet_frame,
)
from repro.virtio.pci import VIRTIO_VENDOR_ID, PciConfigSpace, VirtioPciFunction
from repro.virtio.vring import (
    VRING_DESC_F_INDIRECT,
    VRING_DESC_F_NEXT,
    VRING_DESC_F_WRITE,
    Descriptor,
    DescriptorChain,
    VirtQueue,
)

__all__ = [
    "GuestMemory",
    "VirtQueue",
    "Descriptor",
    "DescriptorChain",
    "VRING_DESC_F_NEXT",
    "VRING_DESC_F_WRITE",
    "VRING_DESC_F_INDIRECT",
    "VirtioDevice",
    "DeviceStatus",
    "Feature",
    "feature_mask",
    "full_init",
    "VIRTIO_ID_NET",
    "VIRTIO_ID_BLOCK",
    "VirtioNetDevice",
    "VirtioNetHeader",
    "ethernet_frame",
    "RX_QUEUE",
    "TX_QUEUE",
    "VirtioBlkDevice",
    "BlkRequestHeader",
    "SECTOR_BYTES",
    "VIRTIO_BLK_F_MQ",
    "blk_queue_for_request",
    "VIRTIO_BLK_T_IN",
    "VIRTIO_BLK_T_OUT",
    "VIRTIO_BLK_T_FLUSH",
    "VIRTIO_BLK_S_OK",
    "VIRTIO_BLK_S_IOERR",
    "VIRTIO_BLK_S_UNSUPP",
    "VirtioPciFunction",
    "PciConfigSpace",
    "VIRTIO_VENDOR_ID",
]
