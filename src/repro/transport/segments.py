"""Transport-layer segment formats (byte-accurate)."""

from __future__ import annotations

from dataclasses import dataclass

UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20

# TCP flag bits.
FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_ACK = 0x10


@dataclass(frozen=True)
class UDPDatagram:
    """A UDP datagram (RFC 768): 8-byte header plus data.

    ``data`` is normally raw bytes; structured payloads may ride as
    objects implementing ``byte_length`` / ``to_bytes`` and are
    serialized transparently.
    """

    src_port: int
    dst_port: int
    data: object = b""

    @property
    def _data_length(self) -> int:
        inner = getattr(self.data, "byte_length", None)
        return inner if inner is not None else len(self.data)  # type: ignore[arg-type]

    @property
    def byte_length(self) -> int:
        return UDP_HEADER_LEN + self._data_length

    def to_bytes(self) -> bytes:
        header = bytearray(UDP_HEADER_LEN)
        header[0:2] = self.src_port.to_bytes(2, "big")
        header[2:4] = self.dst_port.to_bytes(2, "big")
        header[4:6] = self.byte_length.to_bytes(2, "big")
        body = (
            self.data.to_bytes() if hasattr(self.data, "to_bytes") and not isinstance(self.data, bytes)
            else self.data
        )
        return bytes(header) + body  # type: ignore[operator]

    def __repr__(self) -> str:
        return f"<UDP {self.src_port}->{self.dst_port} len={self._data_length}>"


@dataclass(frozen=True)
class TCPSegment:
    """A TCP segment (RFC 793) with the fields our simplified TCP uses."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    data: bytes = b""

    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def ack_flag(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def seq_span(self) -> int:
        """Sequence space consumed: data bytes plus SYN/FIN phantom bytes."""
        return len(self.data) + (1 if self.syn else 0) + (1 if self.fin else 0)

    @property
    def byte_length(self) -> int:
        return TCP_HEADER_LEN + len(self.data)

    def to_bytes(self) -> bytes:
        header = bytearray(TCP_HEADER_LEN)
        header[0:2] = self.src_port.to_bytes(2, "big")
        header[2:4] = self.dst_port.to_bytes(2, "big")
        header[4:8] = (self.seq & 0xFFFFFFFF).to_bytes(4, "big")
        header[8:12] = (self.ack & 0xFFFFFFFF).to_bytes(4, "big")
        header[12] = (TCP_HEADER_LEN // 4) << 4
        header[13] = self.flags
        header[14:16] = self.window.to_bytes(2, "big")
        return bytes(header) + self.data

    def __repr__(self) -> str:
        names = []
        if self.syn:
            names.append("SYN")
        if self.ack_flag:
            names.append("ACK")
        if self.fin:
            names.append("FIN")
        if self.rst:
            names.append("RST")
        flag_text = "|".join(names) or "-"
        return (
            f"<TCP {self.src_port}->{self.dst_port} {flag_text} "
            f"seq={self.seq} ack={self.ack} len={len(self.data)}>"
        )
