"""Virtio device model: status handshake and feature negotiation.

Implements the virtio 1.x device initialization state machine
(ACKNOWLEDGE → DRIVER → FEATURES_OK → DRIVER_OK) and feature
negotiation. Device classes (:mod:`repro.virtio.net`,
:mod:`repro.virtio.blk`) subclass :class:`VirtioDevice`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.virtio.memory import GuestMemory
from repro.virtio.vring import VirtQueue

__all__ = [
    "VirtioDevice",
    "DeviceStatus",
    "Feature",
    "VIRTIO_ID_NET",
    "VIRTIO_ID_BLOCK",
]

VIRTIO_ID_NET = 1
VIRTIO_ID_BLOCK = 2


class DeviceStatus:
    """Status register bits (virtio spec 2.1)."""

    ACKNOWLEDGE = 1
    DRIVER = 2
    DRIVER_OK = 4
    FEATURES_OK = 8
    NEEDS_RESET = 64
    FAILED = 128


class Feature:
    """Feature bit numbers used in this reproduction."""

    RING_INDIRECT_DESC = 28
    RING_EVENT_IDX = 29
    VERSION_1 = 32
    # virtio-net
    NET_CSUM = 0
    NET_MAC = 5
    NET_MRG_RXBUF = 15
    NET_CTRL_VQ = 17
    # virtio-blk
    BLK_SEG_MAX = 2
    BLK_BLK_SIZE = 6
    BLK_FLUSH = 9
    BLK_MQ = 12  # VIRTIO_BLK_F_MQ: num_queues request queues


def feature_mask(*bits: int) -> int:
    mask = 0
    for bit in bits:
        mask |= 1 << bit
    return mask


class VirtioDevice:
    """Base virtio device: queues, features, status machine, config space."""

    device_id = 0
    n_queues = 1
    default_queue_size = 256

    def __init__(self, memory: Optional[GuestMemory] = None, queue_size: Optional[int] = None):
        self.memory = memory or GuestMemory()
        self.queue_size = queue_size or self.default_queue_size
        self.device_features = self.offered_features()
        self.driver_features = 0
        self.status = 0
        self.queues: List[VirtQueue] = []
        self.queue_enabled: List[bool] = []
        self.config_generation = 0
        self._config: Dict[str, int] = {}

    # -- features ----------------------------------------------------------
    def offered_features(self) -> int:
        """Feature bits this device offers; subclasses extend."""
        return feature_mask(
            Feature.VERSION_1, Feature.RING_EVENT_IDX, Feature.RING_INDIRECT_DESC
        )

    def negotiate(self, driver_features: int) -> int:
        """Record the driver's accepted feature subset."""
        unknown = driver_features & ~self.device_features
        if unknown:
            raise ValueError(f"driver accepted unoffered features: {unknown:#x}")
        if not driver_features & (1 << Feature.VERSION_1):
            raise ValueError("legacy (pre-1.0) drivers are not supported")
        self.driver_features = driver_features
        return driver_features

    def has_feature(self, bit: int) -> bool:
        return bool(self.driver_features & (1 << bit))

    # -- status machine -----------------------------------------------------
    def set_status(self, status: int) -> None:
        """Drive the initialization state machine; enforces ordering."""
        if status == 0:
            self.reset()
            return
        adding = status & ~self.status
        if adding & DeviceStatus.DRIVER and not self.status & DeviceStatus.ACKNOWLEDGE:
            raise RuntimeError("DRIVER before ACKNOWLEDGE")
        if adding & DeviceStatus.FEATURES_OK and not self.status & DeviceStatus.DRIVER:
            raise RuntimeError("FEATURES_OK before DRIVER")
        if adding & DeviceStatus.DRIVER_OK and not self.status & DeviceStatus.FEATURES_OK:
            raise RuntimeError("DRIVER_OK before FEATURES_OK")
        if adding & DeviceStatus.FEATURES_OK:
            # Freeze negotiation; build the queues with negotiated options.
            self._build_queues()
        self.status = status

    def reset(self) -> None:
        self.status = 0
        self.driver_features = 0
        self.queues = []
        self.queue_enabled = []

    @property
    def is_live(self) -> bool:
        return bool(self.status & DeviceStatus.DRIVER_OK)

    def _build_queues(self) -> None:
        event_idx = self.has_feature(Feature.RING_EVENT_IDX)
        indirect = self.has_feature(Feature.RING_INDIRECT_DESC)
        self.queues = [
            VirtQueue(self.queue_size, memory=self.memory,
                      event_idx=event_idx, indirect=indirect)
            for _ in range(self.n_queues)
        ]
        self.queue_enabled = [False] * self.n_queues

    def enable_queue(self, index: int) -> None:
        if not self.queues:
            raise RuntimeError("queues are built at FEATURES_OK; none exist yet")
        self.queue_enabled[index] = True

    def queue(self, index: int) -> VirtQueue:
        return self.queues[index]

    # -- config space ---------------------------------------------------------
    def read_config(self, name: str) -> int:
        try:
            return self._config[name]
        except KeyError:
            known = ", ".join(sorted(self._config))
            raise KeyError(f"no config field {name!r}; device has: {known}") from None

    def write_config(self, name: str, value: int) -> None:
        if name not in self._config:
            raise KeyError(f"no config field {name!r}")
        self._config[name] = value
        self.config_generation += 1


def full_init(device: VirtioDevice, driver_features: Optional[int] = None) -> VirtioDevice:
    """Run the whole init handshake, as a real guest driver would.

    Convenience used by guests and tests: ACKNOWLEDGE, DRIVER, feature
    negotiation, FEATURES_OK, queue enable, DRIVER_OK.
    """
    device.set_status(DeviceStatus.ACKNOWLEDGE)
    device.set_status(DeviceStatus.ACKNOWLEDGE | DeviceStatus.DRIVER)
    features = device.device_features if driver_features is None else driver_features
    device.negotiate(features)
    device.set_status(
        DeviceStatus.ACKNOWLEDGE | DeviceStatus.DRIVER | DeviceStatus.FEATURES_OK
    )
    for i in range(device.n_queues):
        device.enable_queue(i)
    device.set_status(
        DeviceStatus.ACKNOWLEDGE
        | DeviceStatus.DRIVER
        | DeviceStatus.FEATURES_OK
        | DeviceStatus.DRIVER_OK
    )
    return device


__all__ += ["feature_mask", "full_init"]
