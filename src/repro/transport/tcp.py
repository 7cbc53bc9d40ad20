"""A simplified but faithful reliable TCP.

Implements the three-way handshake, cumulative acknowledgements,
go-back-N retransmission with an exponentially backed-off timer, and
FIN-based close.  Out-of-order segments are discarded (the cumulative ACK
recovers them), which keeps the receiver trivially correct at the cost of
some efficiency — irrelevant here, where TCP exists to demonstrate that
connections survive mobile-host handoffs without the endpoints noticing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import TransportError
from repro.ip.address import IPAddress
from repro.ip.node import IPNode
from repro.ip.packet import IPPacket
from repro.ip.protocols import TCP as PROTO_TCP
from repro.transport.segments import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    TCPSegment,
)

#: Maximum segment size (bytes of data per segment).
MSS = 1460
#: Initial retransmission timeout and its cap.
INITIAL_RTO = 1.0
MAX_RTO = 16.0
#: Give up after this many consecutive retransmissions of one segment.
MAX_RETRIES = 12
#: Send window in segments (go-back-N).
WINDOW_SEGMENTS = 8

# Connection states.
CLOSED = "CLOSED"
LISTEN = "LISTEN"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT = "FIN_WAIT"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"

ConnKey = Tuple[int, IPAddress, int]  # (local port, remote ip, remote port)


class TCPConnection:
    """One end of a TCP connection."""

    def __init__(
        self,
        stack: "TCPStack",
        local_port: int,
        remote: IPAddress,
        remote_port: int,
    ) -> None:
        self.stack = stack
        self.node = stack.node
        self.local_port = local_port
        self.remote = remote
        self.remote_port = remote_port
        self.state = CLOSED
        # Sender state.
        self.snd_una = 0  # oldest unacknowledged sequence number
        self.snd_nxt = 0  # next sequence number to use
        self._send_buffer: bytes = b""  # data accepted but not yet segmented
        self._inflight: list[TCPSegment] = []
        self._fin_queued = False
        # Receiver state.
        self.rcv_nxt = 0
        self.received = bytearray()
        # Callbacks.
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_error: Optional[Callable[[str], None]] = None
        # Stats.
        self.retransmissions = 0
        self.segments_sent = 0
        self._retries = 0
        self._rto = INITIAL_RTO
        self._timer = self.node.sim.timer(self._on_timeout, label=f"tcp-rto-{local_port}")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        return self.state == ESTABLISHED

    @property
    def closed(self) -> bool:
        return self.state == CLOSED

    def send(self, data: bytes) -> None:
        """Queue application data for reliable delivery."""
        if self.state not in (ESTABLISHED, SYN_SENT, SYN_RCVD, CLOSE_WAIT):
            raise TransportError(f"cannot send in state {self.state}")
        self._send_buffer += data
        self._pump()

    def close(self) -> None:
        """Finish sending queued data, then send FIN."""
        if self.state in (CLOSED, FIN_WAIT, LAST_ACK):
            return
        self._fin_queued = True
        self._pump()

    # ------------------------------------------------------------------
    # Active / passive open
    # ------------------------------------------------------------------
    def open_active(self) -> None:
        isn = self.node.sim.rng.randrange(0, 2**16)
        self.snd_una = self.snd_nxt = isn
        self.state = SYN_SENT
        self._transmit(TCPSegment(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=self.snd_nxt, flags=FLAG_SYN,
        ), track=True)
        self.snd_nxt += 1

    def _open_passive(self, syn: TCPSegment) -> None:
        isn = self.node.sim.rng.randrange(0, 2**16)
        self.snd_una = self.snd_nxt = isn
        self.rcv_nxt = syn.seq + 1
        self.state = SYN_RCVD
        self._transmit(TCPSegment(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=self.snd_nxt, ack=self.rcv_nxt, flags=FLAG_SYN | FLAG_ACK,
        ), track=True)
        self.snd_nxt += 1

    # ------------------------------------------------------------------
    # Segment TX
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Segment buffered data into the window and send the FIN when due."""
        while (
            self._send_buffer
            and self.state in (ESTABLISHED, CLOSE_WAIT)
            and len(self._inflight) < WINDOW_SEGMENTS
        ):
            chunk, self._send_buffer = self._send_buffer[:MSS], self._send_buffer[MSS:]
            segment = TCPSegment(
                src_port=self.local_port, dst_port=self.remote_port,
                seq=self.snd_nxt, ack=self.rcv_nxt, flags=FLAG_ACK, data=chunk,
            )
            self.snd_nxt += len(chunk)
            self._transmit(segment, track=True)
        if (
            self._fin_queued
            and not self._send_buffer
            and self.state in (ESTABLISHED, CLOSE_WAIT)
            and len(self._inflight) < WINDOW_SEGMENTS
        ):
            segment = TCPSegment(
                src_port=self.local_port, dst_port=self.remote_port,
                seq=self.snd_nxt, ack=self.rcv_nxt, flags=FLAG_FIN | FLAG_ACK,
            )
            self.snd_nxt += 1
            self._fin_queued = False
            self.state = FIN_WAIT if self.state == ESTABLISHED else LAST_ACK
            self._transmit(segment, track=True)

    def _transmit(self, segment: TCPSegment, track: bool) -> None:
        if track:
            self._inflight.append(segment)
            if not self._timer.pending:
                self._timer.start(self._rto)
        self.segments_sent += 1
        packet = IPPacket(
            src=self.node.primary_address,
            dst=self.remote,
            protocol=PROTO_TCP,
            payload=segment,
            uid=self.node.next_uid(),
        )
        self.node.send(packet)

    def _send_ack(self) -> None:
        self._transmit(TCPSegment(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=self.snd_nxt, ack=self.rcv_nxt, flags=FLAG_ACK,
        ), track=False)

    def _on_timeout(self) -> None:
        if not self._inflight:
            return
        self._retries += 1
        if self._retries > MAX_RETRIES:
            self._fail("retransmission limit reached")
            return
        self._rto = min(self._rto * 2, MAX_RTO)
        # Go-back-N: retransmit everything unacknowledged.
        for segment in self._inflight:
            self.retransmissions += 1
            self._transmit(segment, track=False)
        self._timer.start(self._rto)

    # ------------------------------------------------------------------
    # Segment RX
    # ------------------------------------------------------------------
    def handle_segment(self, segment: TCPSegment) -> None:
        if segment.rst:
            self._fail("connection reset by peer")
            return
        if self.state == SYN_SENT:
            if segment.syn and segment.ack_flag and segment.ack == self.snd_una + 1:
                self.snd_una = segment.ack
                self.rcv_nxt = segment.seq + 1
                self._drop_acked()
                self.state = ESTABLISHED
                self._reset_rto()
                self._send_ack()
                if self.on_established:
                    self.on_established()
                self._pump()
            return
        if segment.syn:
            # Duplicate SYN (our SYN-ACK was lost): re-acknowledge it.
            if self.state == SYN_RCVD:
                self._on_timeout_retransmit_synack()
            return
        if segment.ack_flag:
            self._process_ack(segment.ack)
        if self.state == SYN_RCVD and segment.ack_flag and segment.ack == self.snd_una:
            self.state = ESTABLISHED
            self._reset_rto()
            if self.on_established:
                self.on_established()
            self._pump()
        self._process_payload(segment)

    def _on_timeout_retransmit_synack(self) -> None:
        for segment in self._inflight:
            self._transmit(segment, track=False)

    def _process_ack(self, ack: int) -> None:
        if ack > self.snd_una:
            self.snd_una = ack
            self._drop_acked()
            self._retries = 0
            self._reset_rto()
            if self._inflight:
                self._timer.start(self._rto)
            else:
                self._timer.cancel()
                if self.state == LAST_ACK:
                    self._finish()
                elif self.state == FIN_WAIT and self.snd_una == self.snd_nxt:
                    # Our FIN is acknowledged; wait for the peer's FIN.
                    pass
            self._pump()

    def _drop_acked(self) -> None:
        self._inflight = [
            s for s in self._inflight if s.seq + s.seq_span > self.snd_una
        ]

    def _reset_rto(self) -> None:
        self._rto = INITIAL_RTO

    def _process_payload(self, segment: TCPSegment) -> None:
        if segment.seq != self.rcv_nxt:
            # Out of order or duplicate: re-ACK what we have.
            if segment.data or segment.fin:
                self._send_ack()
            return
        advanced = False
        if segment.data:
            self.received += segment.data
            self.rcv_nxt += len(segment.data)
            advanced = True
            if self.on_data:
                self.on_data(segment.data)
        if segment.fin:
            self.rcv_nxt += 1
            advanced = True
            if self.state == ESTABLISHED:
                self.state = CLOSE_WAIT
            elif self.state == FIN_WAIT:
                self._send_ack()
                self._finish()
                return
            if self.on_close:
                self.on_close()
        if advanced:
            self._send_ack()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _finish(self) -> None:
        self.state = CLOSED
        self._timer.cancel()
        self.stack.forget(self)

    def _fail(self, reason: str) -> None:
        self.state = CLOSED
        self._timer.cancel()
        self.stack.forget(self)
        if self.on_error:
            self.on_error(reason)

    def __repr__(self) -> str:
        return (
            f"<TCPConnection {self.node.name}:{self.local_port} <-> "
            f"{self.remote}:{self.remote_port} {self.state}>"
        )


class TCPStack:
    """Per-node TCP: listener table, connection demux."""

    def __init__(self, node: IPNode) -> None:
        self.node = node
        self._listeners: Dict[int, Callable[[TCPConnection], None]] = {}
        self._connections: Dict[ConnKey, TCPConnection] = {}
        self._next_ephemeral = 49152
        node.register_protocol(PROTO_TCP, self._handle_packet)

    def listen(self, port: int, on_connection: Callable[[TCPConnection], None]) -> None:
        """Accept connections on ``port``; ``on_connection`` receives each
        new connection as soon as its SYN arrives (callbacks may be set
        before the handshake completes)."""
        if port in self._listeners:
            raise TransportError(f"port {port} already listening on {self.node.name}")
        self._listeners[port] = on_connection

    def connect(
        self, remote: IPAddress, remote_port: int, local_port: Optional[int] = None
    ) -> TCPConnection:
        """Open a connection; returns immediately with state SYN_SENT."""
        if local_port is None:
            local_port = self._next_ephemeral
            self._next_ephemeral += 1
        key = (local_port, IPAddress(remote), remote_port)
        if key in self._connections:
            raise TransportError(f"connection {key} already exists")
        conn = TCPConnection(self, local_port, IPAddress(remote), remote_port)
        self._connections[key] = conn
        conn.open_active()
        return conn

    def forget(self, conn: TCPConnection) -> None:
        self._connections.pop((conn.local_port, conn.remote, conn.remote_port), None)

    def _handle_packet(self, packet: IPPacket, iface: object) -> None:
        segment = packet.payload
        if not isinstance(segment, TCPSegment):
            return
        key = (segment.dst_port, packet.src, segment.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle_segment(segment)
            return
        if segment.syn and not segment.ack_flag:
            acceptor = self._listeners.get(segment.dst_port)
            if acceptor is not None:
                conn = TCPConnection(self, segment.dst_port, packet.src, segment.src_port)
                self._connections[key] = conn
                # Open first (SYN_RCVD) so the acceptor may immediately
                # queue data with send().
                conn._open_passive(segment)
                acceptor(conn)
                return
        if not segment.rst:
            # No matching connection: send RST (keeps lost-peer cases clean).
            reset = TCPSegment(
                src_port=segment.dst_port, dst_port=segment.src_port,
                seq=segment.ack, ack=segment.seq + segment.seq_span,
                flags=FLAG_RST | FLAG_ACK,
            )
            self.node.send(IPPacket(
                src=packet.dst if self.node.has_address(packet.dst) else self.node.primary_address,
                dst=packet.src,
                protocol=PROTO_TCP,
                payload=reset,
                uid=self.node.next_uid(),
            ))
