"""UDP: connectionless datagram sockets."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import TransportError
from repro.ip.address import IPAddress
from repro.ip.node import IPNode
from repro.ip.packet import IPPacket
from repro.ip.protocols import UDP as PROTO_UDP
from repro.transport.segments import UDPDatagram

#: First port handed out by the ephemeral allocator.
EPHEMERAL_BASE = 49152

ReceiveCallback = Callable[[bytes, IPAddress, int], None]


class UDPSocket:
    """A bound UDP socket.

    Received datagrams are delivered to ``on_receive(data, src_ip,
    src_port)`` if set, and always appended to :attr:`received` for
    polling-style tests.
    """

    def __init__(self, stack: "UDPStack", port: int) -> None:
        self._stack = stack
        self.port = port
        self.on_receive: Optional[ReceiveCallback] = None
        self.received: list[Tuple[bytes, IPAddress, int]] = []
        self.closed = False

    def send_to(self, data: bytes, dst: IPAddress, dst_port: int) -> None:
        """Send one datagram."""
        if self.closed:
            raise TransportError("socket is closed")
        self._stack.send_datagram(self.port, data, IPAddress(dst), dst_port)

    def deliver(self, data: bytes, src: IPAddress, src_port: int) -> None:
        self.received.append((data, src, src_port))
        if self.on_receive is not None:
            self.on_receive(data, src, src_port)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._stack.release(self.port)

    def __repr__(self) -> str:
        return f"<UDPSocket {self._stack.node.name}:{self.port}>"


class UDPStack:
    """Per-node UDP: port table and datagram dispatch."""

    def __init__(self, node: IPNode) -> None:
        self.node = node
        self._sockets: Dict[int, UDPSocket] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        node.register_protocol(PROTO_UDP, self._handle_packet)

    def bind(self, port: Optional[int] = None) -> UDPSocket:
        """Bind a socket to ``port`` (or an ephemeral port if ``None``)."""
        if port is None:
            port = self._allocate_ephemeral()
        if not 0 < port < 65536:
            raise TransportError(f"port out of range: {port}")
        if port in self._sockets:
            raise TransportError(f"port {port} already bound on {self.node.name}")
        socket = UDPSocket(self, port)
        self._sockets[port] = socket
        return socket

    def release(self, port: int) -> None:
        self._sockets.pop(port, None)

    def send_datagram(
        self, src_port: int, data: bytes, dst: IPAddress, dst_port: int
    ) -> None:
        datagram = UDPDatagram(src_port=src_port, dst_port=dst_port, data=data)
        packet = IPPacket(
            src=self.node.primary_address,
            dst=dst,
            protocol=PROTO_UDP,
            payload=datagram,
            uid=self.node.next_uid(),
        )
        self.node.send(packet)

    def _allocate_ephemeral(self) -> int:
        while self._next_ephemeral in self._sockets:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def _handle_packet(self, packet: IPPacket, iface: object) -> None:
        datagram = packet.payload
        if not isinstance(datagram, UDPDatagram):
            return
        socket = self._sockets.get(datagram.dst_port)
        if socket is None:
            from repro.ip.icmp import CODE_PORT_UNREACHABLE, ICMPError

            self.node.send_icmp(
                packet.src,
                ICMPError.unreachable(packet, code=CODE_PORT_UNREACHABLE),
            )
            return
        socket.deliver(datagram.data, packet.src, datagram.src_port)
