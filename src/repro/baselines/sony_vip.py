"""The Sony Virtual IP protocol (Teraoka et al., SIGCOMM '91 / ICDCS '92).

Properties reproduced from the published design and Section 7:

- every host has two addresses: a permanent **VIP** and a **physical
  IP** describing where it currently is; *every* packet carries a
  28-byte VIP header in addition to the IP header;
- the sender translates VIP → physical through a cache; on a miss the
  packet is sent with the physical address *equal to* the VIP, which
  routes it toward the VIP's home network, where the **home gateway**
  fills in the current physical address and resends;
- intermediate VIP routers **cache bindings by snooping** the packets
  they forward, and translate untranslated packets themselves when they
  hold a binding;
- a move triggers a **flooding invalidation** that may *miss* some
  routers ("some may remain due to the way in which the flooding is
  propagated") — modelled as a per-router miss probability;
- a packet translated through an obsolete binding reaches the wrong
  place; the error that comes back purges the caches it passes and the
  sender retransmits.

Mobility therefore requires a fresh physical (temporary) address per
visited network — one of the scalability limits Section 7 charges
against this design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.scenario_base import UDPProbeScenario
from repro.core.registration import (
    RegistrationMessage,
    next_seq,
)
from repro.ip.address import IPAddress
from repro.ip.host import Host
from repro.ip.icmp import ICMPError
from repro.ip.node import CONSUMED, IPNode, NetworkLayerExtension
from repro.ip.packet import IPPacket, Payload
from repro.ip.protocols import VIP as PROTO_VIP
from repro.link.medium import Medium
from repro.netsim.simulator import Simulator
from repro.wire.roles import ControlDispatcher, ReliableRegistrar

VIP_REGISTER = "vip-register"      # host -> home gateway (new physical)
VIP_INVALIDATE = "vip-invalidate"  # flood: purge binding for a VIP

#: VIP header size (Section 7: "the overhead added to each packet for
#: the VIP header is 28 bytes").
VIP_HEADER_LEN = 28


@dataclass
class VIPPayload:
    """The VIP header plus the transport payload."""

    src_vip: IPAddress
    dst_vip: IPAddress
    version: float           # binding version (registration timestamp)
    inner: Payload

    @property
    def byte_length(self) -> int:
        return VIP_HEADER_LEN + self.inner.byte_length

    def to_bytes(self) -> bytes:
        head = bytearray(VIP_HEADER_LEN)
        head[0:4] = self.src_vip.to_bytes()
        head[4:8] = self.dst_vip.to_bytes()
        head[8:16] = int(self.version * 1e6).to_bytes(8, "big", signed=False)
        return bytes(head) + self.inner.to_bytes()

    def __repr__(self) -> str:
        return f"<VIP {self.src_vip}->{self.dst_vip} v={self.version:.3f}>"


@dataclass
class Binding:
    physical: IPAddress
    version: float


class BindingCache:
    """VIP → physical translations with version ordering."""

    def __init__(self) -> None:
        self.entries: Dict[IPAddress, Binding] = {}

    def learn(self, vip: IPAddress, physical: IPAddress, version: float) -> None:
        current = self.entries.get(vip)
        if current is None or version >= current.version:
            self.entries[vip] = Binding(physical=physical, version=version)

    def lookup(self, vip: IPAddress) -> Optional[Binding]:
        return self.entries.get(vip)

    def purge(self, vip: IPAddress) -> None:
        self.entries.pop(vip, None)

    def __len__(self) -> int:
        return len(self.entries)


class VIPRouterAgent(NetworkLayerExtension):
    """VIP logic on a transit router: snoop, translate, purge on errors."""

    def __init__(self, node: IPNode) -> None:
        self.node = node
        self.cache = BindingCache()
        self.translations = 0
        node.add_extension(self)

    def handle_transit(self, packet: IPPacket, in_iface):
        payload = packet.payload
        if isinstance(payload, VIPPayload):
            # Snoop the source binding from every forwarded VIP packet.
            self.cache.learn(payload.src_vip, packet.src, payload.version)
            if packet.dst == payload.dst_vip:
                # Still untranslated: translate if we hold a binding.
                binding = self.cache.lookup(payload.dst_vip)
                if binding is not None and binding.physical != packet.dst:
                    self.translations += 1
                    packet.dst = binding.physical
                    self.node.sim.trace(
                        "baseline", self.node.name, protocol="vip",
                        event="translate", vip=str(payload.dst_vip),
                        physical=str(binding.physical),
                    )
                    return packet
            return None
        if isinstance(payload, ICMPError) and payload.quoted is not None:
            quoted_payload = payload.quoted.payload
            if isinstance(quoted_payload, VIPPayload):
                # An error about a VIP packet purges the binding it used.
                self.cache.purge(quoted_payload.dst_vip)
        return None


class VIPHomeGateway(NetworkLayerExtension):
    """The authoritative translator on a VIP's home network."""

    def __init__(self, node: IPNode) -> None:
        self.node = node
        self.table: Dict[IPAddress, Binding] = {}
        self.translations = 0
        dispatcher = ControlDispatcher.for_node(node)
        dispatcher.on(VIP_REGISTER, self._on_register)
        self._dispatcher = dispatcher
        node.add_extension(self)

    def _on_register(self, packet: IPPacket, message: RegistrationMessage) -> None:
        vip = message.mobile_host
        self.table[vip] = Binding(
            physical=message.agent, version=self.node.sim.now
        )
        self.node.sim.trace(
            "baseline", self.node.name, protocol="vip", event="register",
            vip=str(vip), physical=str(message.agent),
        )
        self._dispatcher.send_ack(packet.src, message)

    def handle_transit(self, packet: IPPacket, in_iface):
        payload = packet.payload
        if not isinstance(payload, VIPPayload):
            return None
        if packet.dst != payload.dst_vip:
            return None  # already translated
        binding = self.table.get(payload.dst_vip)
        if binding is None or binding.physical == packet.dst:
            return None  # host is at home (or unknown): deliver as-is
        self.translations += 1
        packet.dst = binding.physical
        self.node.sim.trace(
            "baseline", self.node.name, protocol="vip", event="home-translate",
            vip=str(payload.dst_vip), physical=str(binding.physical),
        )
        return packet


class VIPHostAgent(NetworkLayerExtension):
    """Host-side VIP: wrap every outbound packet, unwrap inbound ones,
    raise errors on misdelivery, retransmit after errors."""

    def __init__(self, host: Host, vip: IPAddress) -> None:
        self.host = host
        self.vip = IPAddress(vip)
        #: The host's current physical address (equals the VIP at home);
        #: used as the IP source of every packet so correspondents and
        #: snooping routers learn the current binding.
        self.physical_address = IPAddress(vip)
        #: Version (timestamp) of our own current binding.
        self.binding_version = 0.0
        self.cache = BindingCache()
        self.misdeliveries = 0
        self.retransmissions = 0
        self._last_sent: Dict[IPAddress, IPPacket] = {}  # dst_vip -> copy
        host.add_extension(self)
        host.register_protocol(PROTO_VIP, self._on_vip_packet)
        host.on_icmp_error(self._on_icmp_error)

    # -- outbound ---------------------------------------------------------
    def handle_outbound(self, packet: IPPacket):
        if isinstance(packet.payload, VIPPayload) or packet.protocol != 17:
            return None  # only wrap application (UDP) traffic
        dst_vip = packet.dst
        binding = self.cache.lookup(dst_vip)
        wrapped = VIPPayload(
            src_vip=self.vip, dst_vip=dst_vip, version=self.binding_version,
            inner=packet.payload,
        )
        packet.payload = wrapped
        packet.protocol = PROTO_VIP
        packet.src = self.physical_address
        if binding is not None:
            packet.dst = binding.physical
        # else: leave dst == VIP; the home gateway will translate.
        self._last_sent[dst_vip] = packet.copy()
        return packet

    # -- inbound ----------------------------------------------------------
    def _on_vip_packet(self, packet: IPPacket, iface) -> None:
        payload = packet.payload
        if not isinstance(payload, VIPPayload):
            return
        if payload.dst_vip != self.vip:
            # "An incorrect receiver discards the packet and returns an
            # error message to the sender."
            self.misdeliveries += 1
            self.host.sim.trace(
                "baseline", self.host.name, protocol="vip", event="misdelivery",
                intended=str(payload.dst_vip),
            )
            self.host._send_error(ICMPError.unreachable(packet, quote_full=True))
            return
        self.cache.learn(payload.src_vip, packet.src, payload.version)
        inner = IPPacket(
            src=payload.src_vip,
            dst=self.vip,
            protocol=17,
            payload=payload.inner,
            uid=packet.uid,
        )
        self.host.packet_received(inner, iface)

    def _on_icmp_error(self, packet: IPPacket, error: ICMPError) -> None:
        quoted = error.quoted
        if quoted is None or not isinstance(quoted.payload, VIPPayload):
            return
        dst_vip = quoted.payload.dst_vip
        self.cache.purge(dst_vip)
        buffered = self._last_sent.get(dst_vip)
        if buffered is not None:
            # Unwrap back to a plain packet and resend (it will be
            # re-wrapped untranslated and take the home path).
            self.retransmissions += 1
            retry = IPPacket(
                src=self.vip,
                dst=dst_vip,
                protocol=17,
                payload=buffered.payload.inner,
                uid=buffered.uid,
            )
            self._last_sent.pop(dst_vip, None)
            self.host.sim.trace(
                "baseline", self.host.name, protocol="vip", event="retransmit",
                vip=str(dst_vip),
            )
            self.host.send(retry)


class VIPMobileClient:
    """Mobility: new temporary physical address per network, register
    home, flood invalidation (which may miss routers)."""

    def __init__(
        self,
        host: Host,
        agent: VIPHostAgent,
        home_gateway: IPAddress,
        routers: List[VIPRouterAgent],
        flood_miss_rate: float = 0.0,
    ) -> None:
        self.host = host
        self.agent = agent
        self.home_gateway = IPAddress(home_gateway)
        self.routers = routers
        self.flood_miss_rate = flood_miss_rate
        self.registrar = ReliableRegistrar(host)
        self.floods_sent = 0

    def move_to(
        self, medium: Medium, temp_address: IPAddress, gateway: IPAddress
    ) -> None:
        self.host.primary_interface.attach_to(medium)
        temp = IPAddress(temp_address)
        self.host.primary_interface.alias_addresses = {temp}
        # Claim the (possibly recycled) temporary address on the local
        # segment, as any DHCP client would; without this, a previous
        # owner's ARP binding would swallow our traffic.
        self.host.arp[self.host.primary_interface.name].announce(temp)
        self.agent.physical_address = temp
        self.agent.binding_version = self.host.sim.now
        self.host.routing_table.set_default(
            IPAddress(gateway), self.host.primary_interface.name
        )
        register = RegistrationMessage(
            kind=VIP_REGISTER,
            seq=next_seq(),
            mobile_host=self.agent.vip,
            agent=temp,
        )
        self.registrar.send(self.home_gateway, register)
        self._flood_invalidate()

    def move_home(self, medium: Medium, gateway: IPAddress) -> None:
        self.host.primary_interface.attach_to(medium)
        self.host.primary_interface.alias_addresses = set()
        self.agent.physical_address = self.agent.vip
        self.agent.binding_version = self.host.sim.now
        self.host.routing_table.set_default(
            IPAddress(gateway), self.host.primary_interface.name
        )
        register = RegistrationMessage(
            kind=VIP_REGISTER,
            seq=next_seq(),
            mobile_host=self.agent.vip,
            agent=self.agent.vip,  # physical == VIP at home
        )
        self.registrar.send(self.home_gateway, register)
        self._flood_invalidate()

    def _flood_invalidate(self) -> None:
        """The paper's caveat verbatim: flooding 'may remain due to the
        way in which the flooding is propagated' — each router is missed
        with probability ``flood_miss_rate``."""
        rng = self.host.sim.rng
        for router_agent in self.routers:
            self.floods_sent += 1
            self.host.sim.trace(
                "baseline", self.host.name, protocol="vip", event="flood",
                target=router_agent.node.name,
            )
            if rng.random() < self.flood_miss_rate:
                continue  # this router never hears the invalidation
            router_agent.cache.purge(self.agent.vip)


class SonyVIPScenario(UDPProbeScenario):
    """Sony VIP on the star topology.

    Each cell hosts a permanent *resident* (a stationary VIP host).
    When the mobile host vacates a cell, its temporary address is
    reassigned to the resident — the limited foreign address space the
    paper's Section 7 points at makes reuse inevitable — so packets sent
    through obsolete bindings reach an **incorrect receiver**, which
    discards them and returns the error that drives VIP's recovery
    ("an obsolete cache entry might cause a packet to be delivered to an
    incorrect host").
    """

    protocol_name = "Sony-VIP"

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        n_cells: int = 3,
        seed: int = 7,
        flood_miss_rate: float = 0.0,
    ) -> None:
        sim = sim or Simulator(seed=seed)
        super().__init__(sim, n_cells)
        self.router_agents: List[VIPRouterAgent] = [
            VIPRouterAgent(router)
            for router in [self.topo.corr_router, *self.topo.cell_routers]
        ]
        self.home_gateway = VIPHomeGateway(self.topo.home_router)

        correspondent = self.world.correspondents[0]
        self.sender_agent = VIPHostAgent(
            correspondent, vip=self.topo.correspondent_address
        )

        # One resident per cell; it reclaims vacated temporary addresses.
        self.residents: List[VIPHostAgent] = []
        for i, cell in enumerate(self.topo.cells):
            resident = Host(sim, f"RES{i}")
            resident.add_interface(
                "eth0", self.topo.cell_nets[i].host(50), self.topo.cell_nets[i],
                medium=cell,
            )
            resident.set_gateway(self.topo.cell_nets[i].host(254))
            self.residents.append(
                VIPHostAgent(resident, vip=self.topo.cell_nets[i].host(50))
            )

        mobile = Host(sim, "M")
        mobile.add_interface("wifi0", self.topo.mobile_home_address, self.topo.home_net)
        mobile.routing_table.remove(self.topo.home_net)
        self.mobile_agent = VIPHostAgent(mobile, vip=self.topo.mobile_home_address)
        self.client = VIPMobileClient(
            mobile,
            self.mobile_agent,
            home_gateway=self.topo.home_net.host(254),
            routers=self.router_agents,
            flood_miss_rate=flood_miss_rate,
        )
        # VIP senders only learn bindings from reverse traffic, so the
        # probe echoes (the real protocol's assumption of bidirectional
        # conversations).
        self._init_probe(
            correspondent, mobile, self.topo.mobile_home_address, echo=True
        )
        sim.tracer.subscribe(self._count_control)

    def _count_control(self, entry) -> None:
        if entry.category == "baseline" and entry.detail.get("protocol") == "vip":
            if entry.detail.get("event") in ("register", "flood"):
                self.note_control()
        if entry.category == "mhrp.register" and entry.detail.get("event") == "send":
            self.note_control()

    # ------------------------------------------------------------------
    def _vacate(self, index: Optional[int]) -> None:
        """Reassign the vacated temporary address to the cell resident."""
        if index is None:
            return
        temp = self.topo.cell_nets[index].host(99)
        resident = self.residents[index]
        resident.host.primary_interface.alias_addresses.add(temp)
        # DHCP-style reassignment: the new owner announces itself so the
        # cell router's ARP cache points at it.
        resident.host.arp["eth0"].announce(temp)

    def _occupy(self, index: int) -> None:
        temp = self.topo.cell_nets[index].host(99)
        self.residents[index].host.primary_interface.alias_addresses.discard(temp)

    def move_to_cell(self, index: int) -> None:
        self._vacate(getattr(self, "_current_cell", None))
        self._occupy(index)
        self._current_cell = index
        self.client.move_to(
            self.topo.cells[index],
            temp_address=self.topo.cell_nets[index].host(99),
            gateway=self.topo.cell_nets[index].host(254),
        )

    def move_home(self) -> None:
        self._vacate(getattr(self, "_current_cell", None))
        self._current_cell = None
        self.client.move_home(self.topo.home_lan, gateway=self.topo.home_net.host(254))

    def snapshot_state(self) -> None:
        sizes = [len(agent.cache) for agent in self.router_agents]
        sizes.append(len(self.home_gateway.table))
        sizes.append(len(self.sender_agent.cache))
        self.stats.max_node_state = max(self.stats.max_node_state, max(sizes))
        self.stats.global_state = 0
