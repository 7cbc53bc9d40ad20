"""Traffic generators.

All generators run over the real transport layer (UDP) so every packet
traverses the full protocol path, including tunnels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

from repro.ip.address import IPAddress
from repro.ip.host import Host

#: numpy, or ``None`` when missing (tests set ``None`` to force the
#: pure-python paths); ``...`` until :func:`optional_numpy` has looked.
_np = ...


def optional_numpy():
    """numpy or ``None`` — optional (bulk generators fall back to pure
    python) and imported on first use: ~100 ms and ~13 MiB that a run
    which never vectorizes does not pay."""
    global _np
    if _np is ...:
        try:
            import numpy as _np
        except ImportError:  # pragma: no cover - numpy ships in the dev image
            _np = None
    return _np


@dataclass
class DeliveryLog:
    """What a receiver observed, for delivery/latency accounting."""

    received: List[Tuple[float, int]] = field(default_factory=list)  # (time, seq)

    @property
    def count(self) -> int:
        return len(self.received)

    def sequence_numbers(self) -> List[int]:
        return [seq for _, seq in self.received]

    def arrival_stats(self) -> dict:
        """Aggregate arrival accounting: count, time span, mean gap, and
        out-of-order count — vectorized over the whole log when numpy is
        available, with a float-identical pure-python fallback (both
        forms use the same left-to-right float64 reductions)."""
        if not self.received:
            return {"count": 0, "first": None, "last": None,
                    "mean_gap": None, "reordered": 0}
        np = optional_numpy() if len(self.received) > 1 else None
        if np is not None:
            arr = np.asarray(self.received, dtype=np.float64)
            times, seqs = arr[:, 0], arr[:, 1]
            gaps = np.diff(times)
            return {
                "count": len(self.received),
                "first": float(times[0]),
                "last": float(times[-1]),
                "mean_gap": float(gaps.sum() / len(gaps)),
                "reordered": int((np.diff(seqs) < 0).sum()),
            }
        times = [t for t, _ in self.received]
        seqs = [s for _, s in self.received]
        gaps = [b - a for a, b in zip(times, times[1:])]
        total = 0.0
        for gap in gaps:
            total += gap
        return {
            "count": len(self.received),
            "first": times[0],
            "last": times[-1],
            "mean_gap": (total / len(gaps)) if gaps else None,
            "reordered": sum(1 for a, b in zip(seqs, seqs[1:]) if b < a),
        }


class CBRStream:
    """A constant-bit-rate UDP stream from one host to another.

    Sequence numbers ride in the payload so the receiver can measure
    loss and reordering across handoffs.  ``receiver=None`` runs the
    sender half alone (the partitioned engine binds its sinks wherever
    the destination host currently lives).
    """

    def __init__(
        self,
        sender: Host,
        receiver: Optional[Host],
        dst_address: IPAddress,
        interval: float,
        payload_size: int = 64,
        port: int = 40000,
        start_at: float = 0.0,
        count: Optional[int] = None,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.dst_address = IPAddress(dst_address)
        self.interval = interval
        self.payload_size = max(payload_size, 8)
        self.port = port
        self.start_at = start_at
        self.count = count
        self.sent = 0
        self.log = DeliveryLog()
        self._sock = sender.udp.bind()
        if receiver is not None:
            receiver.udp.bind(port).on_receive = self._on_receive

    def start(self) -> None:
        self.sender.sim.schedule_at(self.start_at, self._tick, label="cbr-send")

    def _tick(self) -> None:
        if self.count is not None and self.sent >= self.count:
            return
        seq = self.sent
        self.sent += 1
        payload = seq.to_bytes(8, "big") + b"\x00" * (self.payload_size - 8)
        self._sock.send_to(payload, self.dst_address, self.port)
        if self.count is None or self.sent < self.count:
            self.sender.sim.schedule(self.interval, self._tick, label="cbr-send")

    def _on_receive(self, data: bytes, src: IPAddress, src_port: int) -> None:
        seq = int.from_bytes(data[:8], "big")
        self.log.received.append((self.receiver.sim.now, seq))

    @property
    def delivery_ratio(self) -> float:
        return self.log.count / self.sent if self.sent else 0.0

    def lost_sequences(self) -> List[int]:
        got = set(self.log.sequence_numbers())
        return [seq for seq in range(self.sent) if seq not in got]


class VectorCBRStream(CBRStream):
    """A :class:`CBRStream` whose whole send schedule is precomputed and
    bulk-installed up front (``count`` is therefore mandatory).

    Meant for bulk background traffic: N sends cost one
    :meth:`~repro.netsim.simulator.Simulator.schedule_many` call of
    lightweight bulk entries instead of N self-rescheduling events, and
    the send times are generated with ``numpy.cumsum`` when numpy is
    available.  Both the vectorized and the fallback schedule perform
    the identical left-to-right float64 additions the serial stream's
    ``now + interval`` rescheduling performs, so the wire-visible send
    times are bit-equal to a serial :class:`CBRStream` with the same
    parameters.

    Note the *event interleaving* differs from the serial stream (all
    sends are enqueued at start, so they draw earlier sequence numbers
    than protocol events scheduled later) — use the serial stream when a
    pinned trace depends on exact tie-break order against other
    same-instant events.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.count is None:
            raise ValueError("VectorCBRStream needs an explicit count")

    def start(self) -> None:
        times = self._send_times(self.count)
        self.sender.sim.schedule_many(
            (t, partial(self._send_seq, seq)) for seq, t in enumerate(times)
        )

    def _send_times(self, n: int) -> List[float]:
        np = optional_numpy()
        if np is not None:
            steps = np.empty(n, dtype=np.float64)
            steps[0] = self.start_at
            steps[1:] = self.interval
            return np.cumsum(steps).tolist()
        times: List[float] = []
        t = self.start_at
        for _ in range(n):
            times.append(t)
            t = t + self.interval
        return times

    def _send_seq(self, seq: int) -> None:
        self.sent += 1
        payload = seq.to_bytes(8, "big") + b"\x00" * (self.payload_size - 8)
        self._sock.send_to(payload, self.dst_address, self.port)


class PoissonStream(CBRStream):
    """Like :class:`CBRStream` but with exponential inter-send times."""

    def _tick(self) -> None:
        if self.count is not None and self.sent >= self.count:
            return
        seq = self.sent
        self.sent += 1
        payload = seq.to_bytes(8, "big") + b"\x00" * (self.payload_size - 8)
        self._sock.send_to(payload, self.dst_address, self.port)
        if self.count is None or self.sent < self.count:
            gap = self.sender.sim.rng.expovariate(1.0 / self.interval)
            self.sender.sim.schedule(gap, self._tick, label="poisson-send")


class _UDPEcho:
    """Echo handler as a picklable callable (a closure cannot be
    pickled, so it would make the session unforkable)."""

    def __init__(self, sock) -> None:
        self.sock = sock

    def __call__(self, data: bytes, src: IPAddress, src_port: int) -> None:
        self.sock.send_to(data, src, src_port)


class RequestResponseClient:
    """A UDP request/response pair measuring round-trip times.

    The server half echoes requests; the client records RTTs, which the
    E1 bench uses to show the triangle-route penalty disappearing once
    a location is cached.
    """

    def __init__(
        self,
        client: Host,
        server: Host,
        server_address: IPAddress,
        port: int = 41000,
    ) -> None:
        self.client = client
        self.server_address = IPAddress(server_address)
        self.port = port
        self.rtts: List[float] = []
        self._pending: dict[int, float] = {}
        self._next_id = 0
        self._sock = client.udp.bind()
        self._sock.on_receive = self._on_reply
        server_sock = server.udp.bind(port)
        server_sock.on_receive = _UDPEcho(server_sock)

    def send_request(self, size: int = 64) -> None:
        request_id = self._next_id
        self._next_id += 1
        self._pending[request_id] = self.client.sim.now
        payload = request_id.to_bytes(8, "big") + b"\x00" * max(size - 8, 0)
        self._sock.send_to(payload, self.server_address, self.port)

    def _on_reply(self, data: bytes, src: IPAddress, src_port: int) -> None:
        request_id = int.from_bytes(data[:8], "big")
        sent_at = self._pending.pop(request_id, None)
        if sent_at is not None:
            self.rtts.append(self.client.sim.now - sent_at)
