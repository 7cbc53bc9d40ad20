"""The Sunshine–Postel forwarder protocol (IEN 135, 1980).

The earliest design the paper compares against (Section 7):

- every mobile host registers its current *forwarder* (a router on the
  network it is visiting) in a **global database**;
- a sender queries the global database, then **source-routes** each
  packet to the forwarder (we use the standard LSRR option), which
  delivers it locally;
- after the host moves, the old forwarder answers arriving packets with
  **"host unreachable"**; the sender must re-query the database and
  retransmit.

The scalability properties MHRP's Section 7 calls out fall straight out
of this structure: the database is a single global choke point (its size
and query load grow with the total number of mobile hosts everywhere),
and every move costs a full query round-trip per corresponding sender
before traffic resumes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.baselines.scenario_base import UDPProbeScenario
from repro.core.registration import (
    RegistrationMessage,
    SeqAllocator,
)
from repro.ip.address import IPAddress
from repro.ip.host import Host
from repro.ip.icmp import ICMPError, TYPE_DEST_UNREACHABLE
from repro.ip.node import CONSUMED, IPNode, NetworkLayerExtension
from repro.ip.options import LSRROption
from repro.ip.packet import IPPacket
from repro.ip.router import Router
from repro.link.medium import Medium
from repro.netsim.simulator import Simulator
from repro.wire.roles import ControlDispatcher, ReliableRegistrar

# Control message kinds (namespaced to coexist with other dispatchers).
SP_REGISTER = "sp-register"   # mobile host -> global registry
SP_QUERY = "sp-query"         # sender -> global registry
SP_ATTACH = "sp-attach"       # mobile host -> forwarder
SP_DETACH = "sp-detach"       # mobile host -> old forwarder


class GlobalRegistry:
    """The global forwarder database, hosted on one node."""

    def __init__(self, node: IPNode) -> None:
        self.node = node
        self.entries: Dict[IPAddress, IPAddress] = {}
        self.queries_served = 0
        self.registrations = 0
        dispatcher = ControlDispatcher.for_node(node)
        dispatcher.on(SP_REGISTER, self._on_register)
        dispatcher.on(SP_QUERY, self._on_query)
        self._dispatcher = dispatcher

    @property
    def address(self) -> IPAddress:
        return self.node.primary_address

    def _on_register(self, packet: IPPacket, message: RegistrationMessage) -> None:
        self.registrations += 1
        self.entries[message.mobile_host] = message.agent
        self.node.sim.trace(
            "baseline", self.node.name, protocol="sp", event="register",
            mobile_host=str(message.mobile_host), forwarder=str(message.agent),
        )
        self._dispatcher.send_ack(packet.src, message)

    def _on_query(self, packet: IPPacket, message: RegistrationMessage) -> None:
        self.queries_served += 1
        forwarder = self.entries.get(message.mobile_host, IPAddress.zero())
        self.node.sim.trace(
            "baseline", self.node.name, protocol="sp", event="query",
            mobile_host=str(message.mobile_host), forwarder=str(forwarder),
        )
        self._dispatcher.send_ack(
            packet.src, message, agent=forwarder, ok=not forwarder.is_zero
        )


class Forwarder(NetworkLayerExtension):
    """A per-network forwarder: delivers to registered local mobiles.

    Packets source-routed here for a host that has left are answered
    with ICMP host-unreachable — the sender's cue to re-query.
    """

    def __init__(
        self,
        node: IPNode,
        local_iface_name: str,
        attach_kind: str = SP_ATTACH,
        detach_kind: str = SP_DETACH,
    ) -> None:
        self.node = node
        self.local_iface_name = local_iface_name
        self.local_mobiles: Set[IPAddress] = set()
        #: Hosts that used to visit here; arrivals for them draw the
        #: IEN 135 "host unreachable" answer.  Transit traffic for
        #: arbitrary destinations (e.g. packets a mobile host sends
        #: *through* us) is forwarded normally.
        self.former_mobiles: Set[IPAddress] = set()
        dispatcher = ControlDispatcher.for_node(node)
        dispatcher.on(attach_kind, self._on_attach)
        dispatcher.on(detach_kind, self._on_detach)
        self._dispatcher = dispatcher
        node.add_extension(self)

    @property
    def address(self) -> IPAddress:
        return self.node.interfaces[self.local_iface_name].ip_address

    def _on_attach(self, packet: IPPacket, message: RegistrationMessage) -> None:
        self.local_mobiles.add(message.mobile_host)
        self.former_mobiles.discard(message.mobile_host)
        if message.hw_value:
            from repro.link.frame import HWAddress

            self.node.arp[self.local_iface_name].learn(
                message.mobile_host, HWAddress(message.hw_value)
            )
        self._dispatcher.send_ack(message.mobile_host, message, agent=self.address)

    def _on_detach(self, packet: IPPacket, message: RegistrationMessage) -> None:
        if message.mobile_host in self.local_mobiles:
            self.local_mobiles.discard(message.mobile_host)
            self.former_mobiles.add(message.mobile_host)
        self._dispatcher.send_ack(packet.src, message, agent=self.address)

    # -- delivery hooks --------------------------------------------------
    def handle_outbound(self, packet: IPPacket):
        return self._maybe_deliver(packet)

    def handle_transit(self, packet: IPPacket, in_iface):
        return self._maybe_deliver(packet)

    def _maybe_deliver(self, packet: IPPacket):
        if packet.dst in self.local_mobiles:
            self.node.transmit_on_link(self.local_iface_name, packet.dst, packet)
            return CONSUMED
        lsrr = packet.find_lsrr()
        if (
            lsrr is not None
            and lsrr.exhausted
            and packet.dst in self.former_mobiles
            and self._was_routed_here(packet)
        ):
            # Source-routed to us for a host that is gone: IEN 135 says
            # return "host unreachable" so the sender re-queries.
            self.node._send_error(ICMPError.unreachable(packet, quote_full=True))
            self.node.sim.trace(
                "baseline", self.node.name, protocol="sp",
                event="unreachable", mobile_host=str(packet.dst),
            )
            return CONSUMED
        return None

    def _was_routed_here(self, packet: IPPacket) -> bool:
        lsrr = packet.find_lsrr()
        return lsrr is not None and any(
            self.node.has_address(addr) for addr in lsrr.route
        )


class SPSender(NetworkLayerExtension):
    """Sender-side logic: query the registry, source-route, recover.

    Attached to a correspondent host; treats every destination in
    ``mobile_destinations`` as a mobile host.
    """

    def __init__(self, node: IPNode, registry_address: IPAddress) -> None:
        self.node = node
        self.registry_address = IPAddress(registry_address)
        self.mobile_destinations: Set[IPAddress] = set()
        self.forwarder_cache: Dict[IPAddress, IPAddress] = {}
        self._waiting: Dict[IPAddress, List[IPPacket]] = {}
        self.queries_sent = 0
        self.registrar = ReliableRegistrar(node)
        self.next_seq = SeqAllocator()
        node.add_extension(self)
        node.on_icmp_error(self._on_error)

    def handle_outbound(self, packet: IPPacket):
        if packet.dst not in self.mobile_destinations:
            return None
        forwarder = self.forwarder_cache.get(packet.dst)
        if forwarder is None:
            self._query_and_queue(packet)
            return CONSUMED
        return self._source_route(packet, forwarder)

    def _source_route(self, packet: IPPacket, forwarder: IPAddress) -> IPPacket:
        mobile = packet.dst
        packet.options.append(LSRROption(route=[mobile]))
        packet.dst = forwarder
        return packet

    def _query_and_queue(self, packet: IPPacket) -> None:
        mobile = packet.dst
        queue = self._waiting.setdefault(mobile, [])
        queue.append(packet)
        if len(queue) > 1:
            return  # query already outstanding
        self._send_query(mobile)

    def _send_query(self, mobile: IPAddress) -> None:
        self.queries_sent += 1
        message = RegistrationMessage(
            kind=SP_QUERY, seq=self.next_seq(), mobile_host=mobile
        )
        self.registrar.send(
            self.registry_address,
            message,
            on_ack=lambda ack: self._on_query_answer(mobile, ack),
            on_fail=lambda: self._waiting.pop(mobile, None),
        )

    def _on_query_answer(self, mobile: IPAddress, ack: RegistrationMessage) -> None:
        if not ack.ok:
            self._waiting.pop(mobile, None)
            return
        self.forwarder_cache[mobile] = ack.agent
        for packet in self._waiting.pop(mobile, []):
            self.node.send(self._source_route(packet, ack.agent))

    def _on_error(self, packet: IPPacket, error: ICMPError) -> None:
        """Host unreachable from a stale forwarder: re-query, retransmit."""
        if error.icmp_type != TYPE_DEST_UNREACHABLE or error.quoted is None:
            return
        quoted = error.quoted
        lsrr = quoted.find_lsrr()
        if lsrr is None:
            return
        mobile = quoted.dst
        if mobile not in self.mobile_destinations:
            return
        self.forwarder_cache.pop(mobile, None)
        # Reconstruct the original (un-source-routed) packet and resend;
        # handle_outbound will query afresh.
        retry = quoted.copy()
        retry.options = [o for o in retry.options if not isinstance(o, LSRROption)]
        self.node.sim.trace(
            "baseline", self.node.name, protocol="sp", event="requery",
            mobile_host=str(mobile),
        )
        self.node.send(retry)


class SPMobileClient:
    """Mobile-host-side logic: attach to forwarders, keep the registry
    current.  The host keeps its permanent address throughout."""

    def __init__(self, host: Host, registry_address: IPAddress) -> None:
        self.host = host
        self.registry_address = IPAddress(registry_address)
        self.current_forwarder: Optional[IPAddress] = None
        self.registrar = ReliableRegistrar(host)
        self.next_seq = SeqAllocator()

    def move_to(self, medium: Medium, forwarder: IPAddress, gateway: IPAddress) -> None:
        old_forwarder = self.current_forwarder
        self.host.primary_interface.attach_to(medium)
        self.host.routing_table.set_default(
            IPAddress(gateway), self.host.primary_interface.name
        )
        self.current_forwarder = IPAddress(forwarder)
        attach = RegistrationMessage(
            kind=SP_ATTACH,
            seq=self.next_seq(),
            mobile_host=self.host.primary_address,
            agent=self.current_forwarder,
            hw_value=self.host.primary_interface.hw_address.value,
        )
        self.registrar.send(self.current_forwarder, attach)
        register = RegistrationMessage(
            kind=SP_REGISTER,
            seq=self.next_seq(),
            mobile_host=self.host.primary_address,
            agent=self.current_forwarder,
        )
        self.registrar.send(self.registry_address, register)
        if old_forwarder is not None and old_forwarder != self.current_forwarder:
            detach = RegistrationMessage(
                kind=SP_DETACH,
                seq=self.next_seq(),
                mobile_host=self.host.primary_address,
            )
            self.registrar.send(old_forwarder, detach)


class SunshinePostelScenario(UDPProbeScenario):
    """IEN 135 on the star topology."""

    protocol_name = "Sunshine-Postel"

    def __init__(
        self, sim: Optional[Simulator] = None, n_cells: int = 3, seed: int = 7
    ) -> None:
        sim = sim or Simulator(seed=seed)
        super().__init__(sim, n_cells)
        # The global registry lives on a dedicated backbone host.
        registry_host = Host(sim, "REGISTRY")
        registry_host.add_interface(
            "bb", self.topo.backbone_net.host(250), self.topo.backbone_net,
            medium=self.topo.backbone,
        )
        registry_host.set_gateway(self.topo.backbone_net.host(1))
        self.registry = GlobalRegistry(registry_host)

        self.forwarders: List[Forwarder] = [
            Forwarder(self.topo.home_router, "lan")
        ] + [Forwarder(router, "cell") for router in self.topo.cell_routers]

        correspondent = self.world.correspondents[0]
        self.sender = SPSender(correspondent, self.registry.address)

        mobile = Host(sim, "M")
        mobile.add_interface(
            "wifi0", self.topo.mobile_home_address, self.topo.home_net
        )
        # While away the home prefix is off-link (same issue as MHRP).
        mobile.routing_table.remove(self.topo.home_net)
        self.client = SPMobileClient(mobile, self.registry.address)
        self.sender.mobile_destinations.add(self.topo.mobile_home_address)
        self._init_probe(correspondent, mobile, self.topo.mobile_home_address)
        sim.tracer.subscribe(self._count_control)

    def _count_control(self, entry) -> None:
        if entry.category == "baseline" and entry.detail.get("protocol") == "sp":
            self.note_control()
        if entry.category == "mhrp.register" and entry.detail.get("event") == "send":
            self.note_control()  # reliable-registrar transmissions

    # ------------------------------------------------------------------
    def move_to_cell(self, index: int) -> None:
        router = self.topo.cell_routers[index]
        self.client.move_to(
            self.topo.cells[index],
            forwarder=router.interfaces["cell"].ip_address,
            gateway=router.interfaces["cell"].ip_address,
        )

    def move_home(self) -> None:
        self.client.move_to(
            self.topo.home_lan,
            forwarder=self.topo.home_router.interfaces["lan"].ip_address,
            gateway=self.topo.home_net.host(254),
        )

    def snapshot_state(self) -> None:
        self.stats.global_state = max(
            self.stats.global_state, len(self.registry.entries)
        )
        sizes = [len(f.local_mobiles) for f in self.forwarders]
        sizes.append(len(self.sender.forwarder_cache))
        self.stats.max_node_state = max(self.stats.max_node_state, max(sizes))
