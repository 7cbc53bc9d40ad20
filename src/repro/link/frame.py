"""Link-layer frames and hardware addresses."""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Any

#: Ethertype-style payload discriminators.
ETHERTYPE_IP = 0x0800
ETHERTYPE_ARP = 0x0806

#: Per-frame link-layer framing overhead in bytes (Ethernet II header + FCS).
FRAME_OVERHEAD = 18


@total_ordering
class HWAddress:
    """A 48-bit hardware (MAC-like) address.

    Interfaces take theirs from their simulator's counter via
    :meth:`allocate`; uniqueness within one world is all the protocols
    require.
    """

    # The hash is computed once: media and ARP look addresses up in dicts
    # on every frame.
    __slots__ = ("_value", "_hash")

    BROADCAST_VALUE = (1 << 48) - 1

    def __init__(self, value: int) -> None:
        if not 0 <= value < (1 << 48):
            raise ValueError(f"hardware address out of range: {value!r}")
        self._value = value
        self._hash = hash(("HWAddress", value))

    @classmethod
    def allocate(cls, sim) -> "HWAddress":
        """A fresh locally-administered unicast address in ``sim``'s world."""
        return cls((0x02 << 40) | sim.next_hw())

    @classmethod
    def broadcast(cls) -> "HWAddress":
        """The all-ones address: one shared instance."""
        return _BROADCAST

    @property
    def is_broadcast(self) -> bool:
        return self._value == self.BROADCAST_VALUE

    @property
    def value(self) -> int:
        return self._value

    # Value type: shared, not duplicated, by copy/deepcopy and by
    # session snapshots (``SHARED_TYPES`` in :mod:`repro.scenario.session`).
    def __copy__(self) -> "HWAddress":
        return self

    def __deepcopy__(self, memo: dict) -> "HWAddress":
        return self

    # Pickle the value only: the cached hash is per-process (str hashing
    # is salted), and packets cross partition-worker boundaries pickled.
    def __reduce__(self):
        return (HWAddress, (self._value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HWAddress) and self._value == other._value

    def __lt__(self, other: "HWAddress") -> bool:
        if not isinstance(other, HWAddress):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        octets = self._value.to_bytes(6, "big")
        return ":".join(f"{b:02x}" for b in octets)

    def __repr__(self) -> str:
        return f"HWAddress({str(self)!r})"


_BROADCAST = HWAddress(HWAddress.BROADCAST_VALUE)


@dataclass(slots=True)
class Frame:
    """A link-layer frame.

    ``payload`` is an :class:`~repro.ip.packet.IPPacket` when ``ethertype``
    is :data:`ETHERTYPE_IP`, or an ARP message when :data:`ETHERTYPE_ARP`.
    """

    src: HWAddress
    dst: HWAddress
    ethertype: int
    payload: Any

    @property
    def is_broadcast(self) -> bool:
        return self.dst.is_broadcast

    @property
    def byte_length(self) -> int:
        """Frame size: payload plus link framing overhead."""
        payload_len = getattr(self.payload, "total_length", None)
        if payload_len is None:
            payload_len = getattr(self.payload, "byte_length", 0)
        return payload_len + FRAME_OVERHEAD

    def __repr__(self) -> str:
        kind = {ETHERTYPE_IP: "IP", ETHERTYPE_ARP: "ARP"}.get(
            self.ethertype, hex(self.ethertype)
        )
        return f"<Frame {self.src}->{self.dst} {kind} {self.payload!r}>"
