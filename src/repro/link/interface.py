"""Network interfaces: where a node meets a medium."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import LinkError
from repro.ip.address import IPAddress, IPNetwork
from repro.link.frame import Frame, HWAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ip.node import IPNode
    from repro.link.medium import Medium


class NetworkInterface:
    """One attachment point of a node.

    An interface carries a fixed hardware address, an IP address, and the
    IP network of the segment it sits on.  Interfaces can be re-homed to a
    different medium (this is how mobile hosts move): the hardware address
    travels with the interface, while the configured IP address stays the
    mobile host's *home* address, exactly as the paper requires.
    """

    def __init__(
        self,
        node: "IPNode",
        name: str,
        ip_address: IPAddress,
        network: IPNetwork,
        hw_address: Optional[HWAddress] = None,
    ) -> None:
        self.node = node
        self.name = name
        self.ip_address = IPAddress(ip_address)
        self.network = network
        self.hw_address = hw_address or HWAddress.allocate(node.sim)
        self.medium: Optional["Medium"] = None
        self.up = True
        #: Additional addresses this interface answers for (e.g. the
        #: temporary address of a mobile host serving as its own foreign
        #: agent, paper Section 2).
        self.alias_addresses: set[IPAddress] = set()

    @property
    def node_name(self) -> str:
        """The owning node's name, for traces."""
        return self.node.name

    @property
    def attached(self) -> bool:
        return self.medium is not None

    # ------------------------------------------------------------------
    # Medium management
    # ------------------------------------------------------------------
    def attach_to(self, medium: "Medium") -> None:
        """Attach this interface to ``medium`` (detaching first if needed)."""
        if self.medium is not None:
            self.detach()
        medium.attach(self)
        self.medium = medium

    def detach(self) -> None:
        """Detach from the current medium, if any."""
        if self.medium is not None:
            self.medium.detach(self)
            self.medium = None

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def send_frame(self, frame: Frame, size: Optional[int] = None) -> None:
        """Transmit a frame if the interface is up and attached.

        A down or detached interface silently drops outbound frames, the
        same as real hardware; callers relying on delivery must use
        acknowledgement at a higher layer.  ``size`` is the frame's
        :attr:`~Frame.byte_length` when the caller already knows it.
        """
        if not self.up or self.medium is None:
            sim = self.node.sim
            sim.trace(
                "link.drop", self.node_name, iface=self.name, reason="iface-down"
            )
            auditor = sim.auditor
            if auditor is not None:
                auditor.frame_lost(sim.now, self.node_name, frame.payload, "iface-down")
            return
        self.medium.transmit(self, frame, size)

    def send_to(
        self,
        dst_hw: HWAddress,
        ethertype: int,
        payload: object,
        size: Optional[int] = None,
    ) -> None:
        """Convenience: build and transmit a frame to ``dst_hw``."""
        self.send_frame(
            Frame(src=self.hw_address, dst=dst_hw, ethertype=ethertype, payload=payload),
            size,
        )

    def receive_frame(self, frame: Frame) -> None:
        """Called by the medium when a frame arrives for this interface."""
        if not self.up:
            sim = self.node.sim
            auditor = sim.auditor
            if auditor is not None:
                auditor.frame_absorbed(sim.now, self.node_name, frame.payload)
            return
        self.node.frame_received(self, frame)

    def __repr__(self) -> str:
        where = self.medium.name if self.medium else "detached"
        return f"<iface {self.node_name}/{self.name} {self.ip_address} on {where}>"
