"""Byte-accurate IPv4 packets.

Packets are Python objects while in flight (fast to route and inspect in
tests), but every packet and payload can serialize itself to the exact
byte layout of the wire format, so the paper's per-packet overhead numbers
(Section 7) are measured from real encodings rather than asserted.

A payload is anything implementing the small :class:`Payload` protocol:
``byte_length`` and ``to_bytes()``.  Transport segments, ICMP messages,
and MHRP-encapsulated payloads all implement it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import PacketError
from repro.ip.address import IPAddress
from repro.ip.checksum import internet_checksum
from repro.ip.options import (
    IPOptionLike,
    LSRROption,
    options_byte_length,
    serialize_options,
)
from repro.ip.protocols import protocol_name

#: Default initial time-to-live, matching 1990s BSD practice.
DEFAULT_TTL = 64

#: Fixed IPv4 header size without options.
BASE_HEADER_LEN = 20

_packet_ids = itertools.count(1)


@runtime_checkable
class Payload(Protocol):
    """Anything that can ride inside an IP packet."""

    @property
    def byte_length(self) -> int:
        """Serialized size in bytes."""
        ...

    def to_bytes(self) -> bytes:
        """Exact wire encoding."""
        ...


@dataclass(frozen=True, slots=True)
class RawPayload:
    """Opaque application bytes.

    For workloads that only care about sizes, construct with
    ``RawPayload.of_size(n)`` which synthesizes deterministic filler.
    """

    data: bytes = b""

    @classmethod
    def of_size(cls, size: int) -> "RawPayload":
        if size < 0:
            raise PacketError(f"payload size cannot be negative: {size}")
        return cls(bytes(itertools.islice(itertools.cycle(b"mhrp"), size)))

    @property
    def byte_length(self) -> int:
        return len(self.data)

    def to_bytes(self) -> bytes:
        return self.data


class PacketStamp:
    """The header fields a packet's text shows, captured when it is traced.

    Packets change in place after they are traced (``forward`` decrements
    the TTL, ``retunnel`` grows the previous-source list, the LSRR agents
    append options), so a trace record holds this immutable stamp rather
    than the packet, and formats it only when read.  ``str()`` is the
    packet's ``repr`` text.  ``repr()`` is *that text's* ``repr``, so a
    detail dict holding a stamp prints, serialises and fingerprints
    exactly as it did when it held the text.
    """

    __slots__ = ("_uid", "_src", "_dst", "_protocol", "_ttl", "_length")

    def __init__(
        self,
        uid: int,
        src: IPAddress,
        dst: IPAddress,
        protocol: int,
        ttl: int,
        length: int,
    ) -> None:
        # Six slots, no inner tuple: smaller than the text it replaces.
        self._uid = uid
        self._src = src
        self._dst = dst
        self._protocol = protocol
        self._ttl = ttl
        self._length = length

    uid = property(lambda self: self._uid)
    src = property(lambda self: self._src)
    dst = property(lambda self: self._dst)
    protocol = property(lambda self: self._protocol)
    ttl = property(lambda self: self._ttl)
    length = property(lambda self: self._length)  # total length, bytes

    def _fields(self) -> tuple:
        return (self._uid, self._src, self._dst, self._protocol, self._ttl, self._length)

    def __str__(self) -> str:
        return (
            f"<IPPacket #{self._uid} {self._src}->{self._dst} "
            f"{protocol_name(self._protocol)} ttl={self._ttl} len={self._length}>"
        )

    def __repr__(self) -> str:
        return repr(str(self))

    def __eq__(self, other: object) -> bool:
        if type(other) is PacketStamp:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    # Immutable value: copies share it, pickling rebuilds it from the fields.
    def __copy__(self) -> "PacketStamp":
        return self

    def __deepcopy__(self, memo: dict) -> "PacketStamp":
        return self

    def __reduce__(self):
        return (PacketStamp, self._fields())


@dataclass(slots=True)
class IPPacket:
    """An IPv4 packet.

    Only the fields the reproduced protocols read or rewrite are modelled
    as attributes; the remaining header fields (version, IHL, total
    length, header checksum) are derived during serialization.

    ``uid`` identifies the *original* packet across tunneling transforms:
    MHRP rewrites headers in place rather than nesting packets, so the uid
    survives every tunnel hop and lets the metrics layer follow one
    logical packet end to end.
    """

    src: IPAddress
    dst: IPAddress
    protocol: int
    payload: Payload = field(default_factory=RawPayload)
    ttl: int = DEFAULT_TTL
    tos: int = 0
    identification: int = 0
    options: List[IPOptionLike] = field(default_factory=list)
    uid: int = field(default_factory=lambda: next(_packet_ids))
    #: ``(len(options) at scan time, result)`` memo for :meth:`find_lsrr`;
    #: keyed on the list length so appending an option (the LSRR agents do
    #: this after a miss) transparently invalidates the memo.
    _lsrr_cache: Optional[Tuple[int, Optional[LSRROption]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.src.__class__ is not IPAddress:
            self.src = IPAddress(self.src)
        if self.dst.__class__ is not IPAddress:
            self.dst = IPAddress(self.dst)
        if not 0 <= self.protocol <= 255:
            raise PacketError(f"protocol number out of range: {self.protocol}")
        if not 0 <= self.ttl <= 255:
            raise PacketError(f"TTL out of range: {self.ttl}")

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def header_length(self) -> int:
        """IP header size in bytes, including padded options."""
        return BASE_HEADER_LEN + options_byte_length(self.options)

    @property
    def total_length(self) -> int:
        """Full packet size in bytes.

        Computed on every read, never stamped: tunneling grows the MHRP
        header's previous-source list in place and the LSRR agents append
        options in place, so a stored length would go stale."""
        if not self.options:
            return BASE_HEADER_LEN + self.payload.byte_length
        return self.header_length + self.payload.byte_length

    def find_lsrr(self) -> Optional[LSRROption]:
        """The packet's LSRR option, if present (memoized single scan).

        LSRR forwarders call this at every hop; the scan result is cached
        against the current option count so repeat lookups on an
        unmodified list are O(1) while an appended option forces a rescan.
        """
        memo = self._lsrr_cache
        count = len(self.options)
        if memo is not None and memo[0] == count:
            return memo[1]
        found = None
        for opt in self.options:
            if isinstance(opt, LSRROption):
                found = opt
                break
        self._lsrr_cache = (count, found)
        return found

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the exact IPv4 wire format."""
        ihl_words = self.header_length // 4
        if ihl_words > 15:
            raise PacketError("options too long for IHL field")
        header = bytearray(BASE_HEADER_LEN)
        header[0] = (4 << 4) | ihl_words
        header[1] = self.tos
        header[2:4] = self.total_length.to_bytes(2, "big")
        header[4:6] = (self.identification & 0xFFFF).to_bytes(2, "big")
        header[6:8] = b"\x00\x00"  # flags + fragment offset (unfragmented)
        header[8] = self.ttl
        header[9] = self.protocol
        # bytes 10-11: checksum, filled below
        header[12:16] = self.src.to_bytes()
        header[16:20] = self.dst.to_bytes()
        full_header = bytes(header) + serialize_options(self.options)
        csum = internet_checksum(full_header)
        full_header = (
            full_header[:10] + csum.to_bytes(2, "big") + full_header[12:]
        )
        return full_header + self.payload.to_bytes()

    def copy(self) -> "IPPacket":
        """A shallow copy sharing the payload but with copied options.

        The copy keeps the same ``uid``: it is the same logical packet
        (used for retransmission buffers and the ICMP-quoted original).
        """
        return IPPacket(
            src=self.src,
            dst=self.dst,
            protocol=self.protocol,
            payload=self.payload,
            ttl=self.ttl,
            tos=self.tos,
            identification=self.identification,
            options=[opt.copy() if hasattr(opt, "copy") else opt for opt in self.options],
            uid=self.uid,
        )

    def stamp(self, length: Optional[int] = None) -> PacketStamp:
        """The packet's traced fields as they are now.  A caller that has
        just computed :attr:`total_length` passes it as ``length``."""
        return PacketStamp(
            self.uid,
            self.src,
            self.dst,
            self.protocol,
            self.ttl,
            self.total_length if length is None else length,
        )

    def __repr__(self) -> str:
        return str(self.stamp())
