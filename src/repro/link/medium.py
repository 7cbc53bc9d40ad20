"""Transmission media: LANs, point-to-point links, wireless cells.

A medium is a broadcast domain.  Transmitting a frame schedules delivery
to the appropriate attached interfaces after the medium's latency, with
optional random loss.  Frames addressed to a unicast hardware address are
delivered only to the matching interface; broadcast frames reach every
attached interface except the sender.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import LinkError
from repro.link.frame import FRAME_OVERHEAD, Frame, HWAddress
from repro.netsim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.link.interface import NetworkInterface


class Medium:
    """Base class for all transmission media.

    A frame delivery is queued as a bare callable
    (:meth:`~repro.netsim.events.EventQueue.push_one`), not an
    :class:`~repro.netsim.events.Event`: deliveries are never cancelled
    and carry no label, and they take their sequence number from the same
    counter, so the ``(time, sequence)`` order is the one an ``Event``
    would have had.

    Args:
        sim: the owning simulator.
        name: label used in traces.
        latency: one-way propagation + transmission delay in seconds.
        loss_rate: probability in [0, 1] that any single delivery is lost.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency: float = 0.001,
        loss_rate: float = 0.0,
        mtu: int = 1500,
    ) -> None:
        if latency < 0:
            raise LinkError(f"latency cannot be negative: {latency!r}")
        if not 0.0 <= loss_rate <= 1.0:
            raise LinkError(f"loss rate must be in [0,1]: {loss_rate!r}")
        if mtu < 68:
            raise LinkError(f"mtu below the IPv4 minimum of 68: {mtu!r}")
        self.sim = sim
        self.name = name
        self.latency = latency
        self.loss_rate = loss_rate
        #: Maximum IP packet size this medium carries.  The forwarding
        #: engine enforces it (oversize packets draw an ICMP
        #: "fragmentation needed"); tunneling *adds* header bytes, so a
        #: packet that fit its first hop can exceed a later one — the
        #: classic mobile-IP tunnel-MTU interaction.
        self.mtu = mtu
        self._interfaces: Dict[HWAddress, "NetworkInterface"] = {}
        #: Cumulative bytes scheduled for delivery (includes lost frames);
        #: used by congestion measurements in the loop-contraction bench.
        self.bytes_transmitted = 0
        self.frames_transmitted = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    @property
    def interfaces(self) -> tuple:
        """Currently attached interfaces."""
        return tuple(self._interfaces.values())

    def attach(self, interface: "NetworkInterface") -> None:
        """Attach ``interface`` to this medium."""
        if interface.hw_address in self._interfaces:
            raise LinkError(
                f"{interface} already attached to {self.name}"
            )
        self._interfaces[interface.hw_address] = interface

    def detach(self, interface: "NetworkInterface") -> None:
        """Detach ``interface``; in-flight frames to it are lost."""
        if self._interfaces.pop(interface.hw_address, None) is None:
            raise LinkError(f"{interface} is not attached to {self.name}")

    def is_attached(self, interface: "NetworkInterface") -> bool:
        return self._interfaces.get(interface.hw_address) is interface

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(
        self, sender: "NetworkInterface", frame: Frame, size: Optional[int] = None
    ) -> None:
        """Transmit ``frame`` from ``sender`` onto the medium.

        ``size`` is the frame's :attr:`~Frame.byte_length` when the caller
        already knows it (the dataplane's egress does)."""
        if not self.is_attached(sender):
            raise LinkError(f"{sender} transmitting on {self.name} while detached")
        if size is None:
            size = frame.byte_length
        self.frames_transmitted += 1
        self.bytes_transmitted += size
        sim = self.sim
        stamp = None
        if sim.trace_active("link.tx"):
            payload = frame.payload
            stamper = getattr(payload, "stamp", None)
            stamp = repr(payload) if stamper is None else stamper(size - FRAME_OVERHEAD)
            sim.trace(
                "link.tx",
                sender.node_name,
                medium=self.name,
                frame=stamp,
                bytes=size,
                uid=getattr(payload, "uid", None),
            )
        if frame.is_broadcast:
            # Coalesced fan-out: one delivery event carries the whole
            # receiver set instead of one event per receiver.  This is
            # order-preserving: the per-receiver events used to get
            # adjacent sequence numbers from this synchronous loop, so
            # nothing could ever interleave between them — running them
            # back to back inside one event executes the identical
            # global (time, sequence) order.  Loss is still drawn here,
            # per receiver, in attachment order (same rng stream), and
            # the is-attached re-check stays at delivery time, per
            # receiver (see :meth:`_deliver_batch`).
            survivors = []
            for iface in list(self._interfaces.values()):
                if iface is sender:
                    continue
                if self.loss_rate and self.sim.rng.random() < self.loss_rate:
                    self.sim.trace(
                        "link.drop", iface.node_name, medium=self.name, reason="loss"
                    )
                    auditor = self.sim.auditor
                    if auditor is not None:
                        auditor.frame_lost(
                            self.sim.now, iface.node_name, frame.payload, "loss"
                        )
                    continue
                survivors.append(iface)
            if not survivors:
                return
            # No shared stamp: receivers of one broadcast share its packet,
            # and an earlier receiver may change it before a later one's
            # ``link.rx`` record.
            if len(survivors) == 1:
                action = partial(self._deliver, survivors[0], frame)
            else:
                action = partial(self._deliver_batch, survivors, frame)
            sim.queue.push_one(sim.clock.now + self.latency, action)
        else:
            target = self._interfaces.get(frame.dst)
            if target is None or target is sender:
                # No receiver on this segment: the frame vanishes, exactly
                # like Ethernet.  Upper layers see silence, not an error.
                self.sim.trace(
                    "link.drop", sender.node_name, medium=self.name, reason="no-receiver"
                )
                auditor = self.sim.auditor
                if auditor is not None:
                    auditor.frame_lost(
                        self.sim.now, sender.node_name, frame.payload, "no-receiver"
                    )
                return
            if self.loss_rate and sim.rng.random() < self.loss_rate:
                sim.trace("link.drop", target.node_name, medium=self.name, reason="loss")
                auditor = sim.auditor
                if auditor is not None:
                    auditor.frame_lost(sim.now, target.node_name, frame.payload, "loss")
                return
            # A packet in flight is not changed, so the receiver's
            # ``link.rx`` record reuses the stamp ``link.tx`` took.
            sim.queue.push_one(
                sim.clock.now + self.latency, partial(self._deliver, target, frame, stamp)
            )

    def _deliver_batch(self, targets: list, frame: Frame) -> None:
        """Deliver one broadcast frame to every coalesced receiver.

        Runs the same per-receiver pipeline :meth:`_deliver` runs —
        including the at-delivery is-attached re-check, so a receiver
        detached by an *earlier* delivery in this very batch still loses
        the frame exactly as it would have under one-event-per-receiver
        scheduling."""
        deliver = self._deliver
        for target in targets:
            deliver(target, frame)

    def _deliver(
        self, target: "NetworkInterface", frame: Frame, stamp: object = None
    ) -> None:
        """Hand ``frame`` to ``target`` and record ``link.rx``.

        ``stamp`` is the ``link.tx`` stamp of a unicast frame, reused as
        the ``link.rx`` one.  That holds only while no caller changes a
        packet after transmitting it or sends one packet object as two
        unicast frames; none does, and ``tests/link/test_hop_cost.py``
        checks it on every comparison protocol's handoffs."""
        # The target may have detached (mobile host moved) while the frame
        # was in flight; such frames are lost, matching physical reality.
        if not self.is_attached(target):
            self.sim.trace(
                "link.drop", target.node_name, medium=self.name, reason="detached"
            )
            auditor = self.sim.auditor
            if auditor is not None:
                auditor.frame_lost(
                    self.sim.now, target.node_name, frame.payload, "detached"
                )
            return
        sim = self.sim
        if sim.trace_active("link.rx"):
            if stamp is None:
                payload = frame.payload
                stamper = getattr(payload, "stamp", None)
                stamp = repr(payload) if stamper is None else stamper()
            sim.trace("link.rx", target.node_name, medium=self.name, frame=stamp)
        target.receive_frame(frame)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ({len(self._interfaces)} ifaces)>"


class LAN(Medium):
    """A wired broadcast LAN (Ethernet-like)."""


class PointToPointLink(Medium):
    """A two-endpoint link (e.g. a serial backbone link).

    Enforces at most two attached interfaces; unicast frames to the far
    endpoint's address and broadcasts both reach the single peer.
    """

    def attach(self, interface: "NetworkInterface") -> None:
        if len(self._interfaces) >= 2:
            raise LinkError(f"{self.name} already has two endpoints")
        super().attach(interface)

    def peer_of(self, interface: "NetworkInterface") -> Optional["NetworkInterface"]:
        """The other endpoint, if attached."""
        for iface in self._interfaces.values():
            if iface is not interface:
                return iface
        return None


class WirelessCell(Medium):
    """A wireless cell around one transceiver (typically a foreign agent).

    Mobility is modelled as attachment: a mobile host in range is
    attached, and moving out of range detaches it (the movement models in
    :mod:`repro.workloads.mobility` drive this).  Wireless cells default
    to higher latency and support a nonzero loss rate.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency: float = 0.003,
        loss_rate: float = 0.0,
        mtu: int = 1500,
    ) -> None:
        super().__init__(sim, name, latency=latency, loss_rate=loss_rate, mtu=mtu)
