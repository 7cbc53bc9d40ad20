"""IP nodes: the forwarding engine shared by hosts, routers, and agents.

A node owns interfaces (each with an :class:`~repro.ip.arp.ARPService`),
a routing table, a protocol-handler registry, and built-in ICMP handling
(echo reply, error generation, and RFC 1122's silent discard of unknown
ICMP types — the property MHRP's location update message relies on for
backwards compatibility).

The per-hop packet path itself lives in one place: the node's
:class:`~repro.ip.dataplane.Dataplane` pipeline
(ingress → extension hooks → local-delivery → ttl/route → arp-resolve →
egress).  Mobility protocols plug in through two seams:

- **protocol handlers** receive packets addressed *to* the node, keyed by
  IP protocol number (this is how tunneled MHRP packets reach an agent);
- **stage hooks** registered on the dataplane (``outbound`` and
  ``transit`` stages) see locally-originated and transit packets before
  normal routing, which is how cache agents divert packets into tunnels
  and how foreign agents short-circuit delivery to visiting mobile
  hosts.  The legacy :class:`NetworkLayerExtension` interface is kept as
  a thin adapter over hook registration (used by the baselines).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Set

from repro.errors import ConfigurationError, LinkError, RoutingError
from repro.ip import icmp as icmp_mod
from repro.ip.address import IPAddress, IPNetwork
from repro.ip.arp import ARPService
from repro.ip.dataplane import CONSUMED, LIMITED_BROADCAST, Dataplane
from repro.ip.icmp import ICMPError, ICMPMessage
from repro.ip.packet import DEFAULT_TTL, IPPacket
from repro.ip.protocols import ICMP as PROTO_ICMP
from repro.ip.routing import RoutingTable
from repro.link.frame import ETHERTYPE_ARP, ETHERTYPE_IP, Frame, HWAddress
from repro.link.interface import NetworkInterface
from repro.netsim.simulator import Simulator

__all__ = [
    "CONSUMED",
    "LIMITED_BROADCAST",
    "NetworkLayerExtension",
    "IPNode",
]


class NetworkLayerExtension:
    """Legacy hook interface for mobility protocols.

    Hooks return ``None`` to let normal processing continue, a (possibly
    rewritten) :class:`IPPacket` to route instead, or :data:`CONSUMED`
    when they have fully handled the packet.

    New code registers callables on the node's dataplane directly
    (``node.dataplane.register("outbound" | "transit", fn)``); this class
    remains as an adapter — :meth:`IPNode.add_extension` registers its
    two methods as stage hooks.
    """

    def handle_outbound(self, packet: IPPacket):  # noqa: ANN201 - tri-state
        """A packet originated by this node, before routing."""
        return None

    def handle_transit(self, packet: IPPacket, in_iface: NetworkInterface):  # noqa: ANN201
        """A packet this node is forwarding, before TTL/route processing."""
        return None


class IPNode:
    """A network node with one or more interfaces.

    Args:
        sim: owning simulator.
        name: unique label used in traces and topology registries.
        forwarding: whether transit packets are forwarded (router behaviour).
    """

    def __init__(self, sim: Simulator, name: str, forwarding: bool = False) -> None:
        self.sim = sim
        self.name = name
        self.forwarding = forwarding
        self.up = True
        self.interfaces: Dict[str, NetworkInterface] = {}
        self.arp: Dict[str, ARPService] = {}
        self.routing_table = RoutingTable()
        #: The per-hop pipeline: stage hooks plus per-stage counters.
        self.dataplane = Dataplane(self)
        #: Extension objects installed via :meth:`add_extension` or by the
        #: ``repro.core`` roles, in attach order (introspection only — the
        #: dataplane holds the actual hook callables).
        self.extensions: List[object] = []
        self._protocol_handlers: Dict[
            int, Callable[[IPPacket, Optional[NetworkInterface]], None]
        ] = {PROTO_ICMP: self._handle_icmp_packet}
        self._icmp_listeners: Dict[
            int, List[Callable[[IPPacket, ICMPMessage], None]]
        ] = {}
        self._error_listeners: List[Callable[[IPPacket, ICMPError], None]] = []
        #: Callbacks run after a reboot, in registration order.  Composed
        #: roles (home agent, foreign agent, ...) use these to clear or
        #: recover their own state without subclassing the node.
        self.reboot_hooks: List[Callable[[], None]] = []
        #: Whether ICMP errors quote the entire offending packet.
        #: RFC 792 requires only the IP header + 8 bytes, which is too
        #: little to reverse an MHRP tunnel (paper Section 4.5); RFC 1812
        #: routers quote as much as fits, which is what we default to.
        self.icmp_quote_full = True

    # ------------------------------------------------------------------
    # Metrics (views onto the dataplane counters)
    # ------------------------------------------------------------------
    @property
    def packets_sent(self) -> int:
        """Locally originated packets (dataplane ``originated``)."""
        return self.dataplane.counters.originated

    @property
    def packets_forwarded(self) -> int:
        return self.dataplane.counters.forwarded

    @property
    def slow_path_packets(self) -> int:
        """Forwarded packets that carried IP options.  Options force a
        router off its optimized "fast path" (every option must be
        examined) — the paper's Section 7 argument against the
        LSRR-based IBM proposals; the E4 bench reports this counter."""
        return self.dataplane.counters.slow_path

    @property
    def packets_delivered(self) -> int:
        return self.dataplane.counters.delivered

    @property
    def packets_dropped(self) -> int:
        return self.dataplane.counters.dropped_total

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_interface(
        self,
        name: str,
        ip_address: IPAddress | str,
        network: IPNetwork | str,
        medium: Optional[object] = None,
    ) -> NetworkInterface:
        """Create an interface, install its connected route, set up ARP."""
        if name in self.interfaces:
            raise ConfigurationError(f"{self.name} already has interface {name!r}")
        net = network if isinstance(network, IPNetwork) else IPNetwork(network)
        addr = IPAddress(ip_address)
        if not net.contains(addr):
            # Mobile hosts keep their home address on foreign media; the
            # caller signals that by passing the *home* network, so a
            # mismatch here is a configuration bug, not a mobility case.
            raise ConfigurationError(f"{addr} is not inside {net}")
        iface = NetworkInterface(self, name, addr, net)
        self.interfaces[name] = iface
        self.arp[name] = ARPService(
            iface,
            on_resolved=partial(self._arp_resolved, iface),
            on_failed=partial(self._arp_failed, iface),
        )
        self.routing_table.add_connected(net, name)
        if medium is not None:
            iface.attach_to(medium)  # type: ignore[arg-type]
        return iface

    @property
    def primary_interface(self) -> NetworkInterface:
        if not self.interfaces:
            raise ConfigurationError(f"{self.name} has no interfaces")
        return next(iter(self.interfaces.values()))

    @property
    def primary_address(self) -> IPAddress:
        return self.primary_interface.ip_address

    def addresses(self) -> Set[IPAddress]:
        return {iface.ip_address for iface in self.interfaces.values()}

    def has_address(self, address: IPAddress) -> bool:
        # Ingress asks this for every packet: compare raw values, and
        # hash into an alias set only when there is one.
        value = address._value
        for iface in self.interfaces.values():
            if iface.ip_address._value == value:
                return True
            aliases = iface.alias_addresses
            if aliases and address in aliases:
                return True
        return False

    def interface_for_address(self, address: IPAddress) -> Optional[NetworkInterface]:
        for iface in self.interfaces.values():
            if iface.ip_address == address:
                return iface
        return None

    # ------------------------------------------------------------------
    # Registries
    # ------------------------------------------------------------------
    def register_protocol(
        self,
        protocol: int,
        handler: Callable[[IPPacket, Optional[NetworkInterface]], None],
    ) -> None:
        """Register the handler for packets addressed here with ``protocol``."""
        if protocol in self._protocol_handlers:
            raise ConfigurationError(
                f"{self.name}: protocol {protocol} already has a handler"
            )
        self._protocol_handlers[protocol] = handler

    def add_extension(self, extension: NetworkLayerExtension) -> None:
        """Install a network-layer extension (consulted in order).

        Adapter over dataplane hook registration: the extension's
        ``handle_outbound``/``handle_transit`` methods become the node's
        next ``outbound``/``transit`` stage hooks.
        """
        self.extensions.append(extension)
        label = type(extension).__name__
        self.dataplane.register(
            "outbound", extension.handle_outbound, name=f"{label}.handle_outbound"
        )
        self.dataplane.register(
            "transit", extension.handle_transit, name=f"{label}.handle_transit"
        )

    def on_icmp(
        self, icmp_type: int, listener: Callable[[IPPacket, ICMPMessage], None]
    ) -> None:
        """Subscribe to inbound ICMP messages of ``icmp_type``."""
        self._icmp_listeners.setdefault(icmp_type, []).append(listener)

    def on_icmp_error(self, listener: Callable[[IPPacket, ICMPError], None]) -> None:
        """Subscribe to inbound ICMP *error* messages (transport layers use
        this to learn of unreachable peers)."""
        self._error_listeners.append(listener)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Stop processing all traffic (power off)."""
        self.up = False

    def reboot(self) -> None:
        """Come back up with volatile state cleared.

        Subclasses clear their own volatile state in :meth:`on_reboot`;
        the foreign agent's visitor list is the paper's Section 5.2 case.
        """
        self.up = True
        for arp in self.arp.values():
            arp.cache.clear()
        self.on_reboot()
        for hook in self.reboot_hooks:
            hook()

    def on_reboot(self) -> None:
        """Subclass hook: reset volatile protocol state after a reboot."""

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def next_uid(self) -> int:
        """A fresh uid for a packet this node builds (from its world)."""
        return self.sim.next_uid()

    def send(self, packet: IPPacket) -> None:
        """Send a locally-originated packet (dataplane ``outbound`` stage)."""
        if not self.up:
            return
        self.dataplane.outbound(packet)

    def send_broadcast(
        self, iface_name: str, protocol: int, payload: object, ttl: int = 1
    ) -> None:
        """Broadcast ``payload`` on one local segment (never forwarded)."""
        iface = self.interfaces[iface_name]
        packet = IPPacket(
            src=iface.ip_address,
            dst=LIMITED_BROADCAST,
            protocol=protocol,
            payload=payload,  # type: ignore[arg-type]
            ttl=ttl,
            uid=self.sim.next_uid(),
        )
        counters = self.dataplane.counters
        counters.originated += 1
        counters.tx += 1
        iface.send_to(HWAddress.broadcast(), ETHERTYPE_IP, packet)

    def send_icmp(
        self, dst: IPAddress, message: ICMPMessage, src: Optional[IPAddress] = None
    ) -> None:
        """Send an ICMP message to ``dst``."""
        packet = IPPacket(
            src=src or self.primary_address,
            dst=dst,
            protocol=PROTO_ICMP,
            payload=message,
            uid=self.sim.next_uid(),
        )
        self.send(packet)

    def forward_injected(self, packet: IPPacket) -> None:
        """Re-inject a packet into the forwarding path (``ttl/route`` stage).

        Used by agents that re-tunnel a packet they received (MHRP's
        Section 4.4): the packet keeps its remaining TTL — re-tunneling
        must *not* refresh it, or the TTL backstop against forwarding
        loops (Section 5.3) would be defeated.
        """
        if not self.up:
            return
        self.dataplane.forward(packet)

    def transmit_on_link(
        self, iface_name: str, dst_ip: IPAddress, packet: IPPacket
    ) -> None:
        """Transmit ``packet`` directly on one segment, bypassing routing
        (``arp-resolve`` → ``egress``, skipping the route lookup).

        Foreign agents use this for the final hop to a visiting mobile
        host, whose home address would otherwise route back toward the
        backbone.
        """
        iface = self.interfaces[iface_name]
        self.dataplane.arp_resolve(iface, dst_ip, packet)

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def frame_received(self, iface: NetworkInterface, frame: Frame) -> None:
        """Entry point from the link layer."""
        if not self.up:
            auditor = self.sim.auditor
            if auditor is not None:
                auditor.frame_absorbed(self.sim.now, self.name, frame.payload)
            return
        if frame.ethertype == ETHERTYPE_ARP:
            self.arp[iface.name].handle(frame)
            return
        if frame.ethertype != ETHERTYPE_IP:
            return
        # Dispatch through the attribute, not the dataplane directly:
        # scenarios may wrap packet_received per instance to observe
        # inbound packets (a real stack's IP input routine).
        self.packet_received(frame.payload, iface)

    def packet_received(self, packet: IPPacket, iface: Optional[NetworkInterface]) -> None:
        """Process an inbound IP packet (dataplane ``ingress`` stage;
        exposed separately for tests)."""
        self.dataplane.ingress(packet, iface)

    def _arp_resolved(
        self,
        iface: NetworkInterface,
        ip: IPAddress,
        hw: HWAddress,
        packets: List[IPPacket],
    ) -> None:
        for packet in packets:
            self.dataplane.egress(iface, hw, packet)

    def _arp_failed(
        self, iface: NetworkInterface, ip: IPAddress, packets: List[IPPacket]
    ) -> None:
        for packet in packets:
            self.dataplane.drop(packet, "arp-failed")
            if not self.has_address(packet.src):
                self._send_error(
                    icmp_mod.ICMPError.unreachable(packet, quote_full=self.icmp_quote_full)
                )

    # ------------------------------------------------------------------
    # ICMP
    # ------------------------------------------------------------------
    def _handle_icmp_packet(
        self, packet: IPPacket, iface: Optional[NetworkInterface]
    ) -> None:
        message = packet.payload
        if not isinstance(message, ICMPMessage):
            self.dataplane.drop(packet, "malformed-icmp")
            return
        if message.icmp_type == icmp_mod.TYPE_ECHO_REQUEST:
            assert isinstance(message, icmp_mod.EchoMessage)
            self.send_icmp(packet.src, icmp_mod.EchoMessage.reply_to(message))
            # Fall through: listeners may also observe requests.
        if isinstance(message, ICMPError):
            for error_listener in list(self._error_listeners):
                error_listener(packet, message)
        listeners = self._icmp_listeners.get(message.icmp_type, ())
        for listener in list(listeners):
            listener(packet, message)
        # Unknown types with no listener are silently discarded (RFC 1122),
        # which is exactly the backwards-compatibility story for the
        # location update message (paper, Section 4.3).

    def _send_error(self, error: ICMPError) -> None:
        """Return an ICMP error to the quoted packet's source, applying the
        standard suppression rules (never about ICMP errors, broadcasts,
        or zero sources).  The quote is capped so the error itself fits
        this node's smallest attached MTU (errors are never fragmented)."""
        quoted = error.quoted
        if quoted is None:
            return
        error.max_quote = self._quote_cap()
        if quoted.protocol == PROTO_ICMP and isinstance(quoted.payload, ICMPError):
            return
        if quoted.src.is_zero or quoted.src == LIMITED_BROADCAST:
            return
        if self.sim.trace_active("icmp.error"):
            self.sim.trace(
                "icmp.error",
                self.name,
                icmp_type=error.icmp_type,
                code=error.code,
                about=quoted.stamp(),
            )
        self.dataplane.counters.icmp_sent += 1
        self.send_icmp(quoted.src, error)

    def _quote_cap(self) -> Optional[int]:
        """Largest ICMP quote that fits every medium this node touches
        (IP header 20 + ICMP header 8 subtracted), capped at the RFC 1812
        maximum of 576 total bytes."""
        mtus = [
            iface.medium.mtu
            for iface in self.interfaces.values()
            if iface.medium is not None
        ]
        smallest = min(mtus) if mtus else 576
        return min(smallest, 576) - 28

    def __repr__(self) -> str:
        kind = "router" if self.forwarding else "host"
        return f"<{type(self).__name__} {self.name} ({kind}, {len(self.interfaces)} ifaces)>"
