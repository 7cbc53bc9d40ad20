"""The Columbia IPIP / Mobile Support Router protocol
(Ioannidis, Duchamp & Maguire, SIGCOMM '91).

Properties reproduced from the published design and the paper's
Section 7 characterization:

- a campus runs a set of **Mobile Support Routers (MSRs)**, which
  together advertise reachability to a dedicated *mobile subnet*; every
  mobile host's permanent address comes from that subnet;
- packets for a mobile host are routed (by ordinary IP) to the nearest
  MSR, which tunnels them **IP-within-IP** to the MSR currently serving
  the host — **24 bytes** of overhead per packet (a fresh 20-byte IP
  header plus the 4-byte MICP shim we model);
- an MSR that has no cache entry for the target must **multicast a query
  to every other MSR** — the broadcast scaling cost Section 7 calls out;
- when the host leaves the campus it must obtain a **temporary IP
  address**; its home MSRs tunnel everything there, and *no route
  optimization exists for off-campus hosts* — all traffic hairpins
  through the home campus forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.baselines.scenario_base import UDPProbeScenario
from repro.core.registration import (
    RegistrationMessage,
    next_seq,
)
from repro.errors import ProtocolError
from repro.ip.address import IPAddress, IPNetwork
from repro.ip.host import Host
from repro.ip.node import CONSUMED, IPNode, NetworkLayerExtension
from repro.ip.packet import IPPacket, Payload
from repro.ip.protocols import IPIP as PROTO_IPIP
from repro.link.medium import Medium, WirelessCell
from repro.netsim.simulator import Simulator
from repro.wire.roles import ControlDispatcher, ReliableRegistrar

COL_GREET = "col-greet"     # mobile host -> new MSR (carries old MSR)
COL_MOVED = "col-moved"     # new MSR -> old MSR
COL_QUERY = "col-query"     # MSR -> MSR: who serves this host?
COL_REMOTE = "col-remote"   # off-campus host -> home MSR (temp address)

#: The 4-byte control shim the Columbia implementation prepends inside
#: the outer IP header; together with that header the per-packet cost is
#: the 24 bytes Section 7 reports.
MICP_SHIM_LEN = 4


@dataclass
class IPIPPayload:
    """A complete IP packet tunneled inside another (plus the shim)."""

    inner: IPPacket

    @property
    def byte_length(self) -> int:
        return MICP_SHIM_LEN + self.inner.total_length

    def to_bytes(self) -> bytes:
        return b"\x00" * MICP_SHIM_LEN + self.inner.to_bytes()

    @property
    def uid(self) -> int:
        """Expose the inner packet's uid so wire tracking follows it."""
        return self.inner.uid

    def __repr__(self) -> str:
        return f"<IPIP {self.inner!r}>"


def ipip_encapsulate(packet: IPPacket, src: IPAddress, dst: IPAddress) -> IPPacket:
    """Wrap ``packet`` in a new outer IP packet (true IP-in-IP — compare
    MHRP's in-place header rewrite)."""
    outer = IPPacket(
        src=src,
        dst=dst,
        protocol=PROTO_IPIP,
        payload=IPIPPayload(inner=packet),
        uid=packet.uid,
    )
    return outer


class MSR(NetworkLayerExtension):
    """One Mobile Support Router."""

    def __init__(self, node: IPNode, cell_iface: str, mobile_subnet: IPNetwork) -> None:
        self.node = node
        self.cell_iface = cell_iface
        self.mobile_subnet = mobile_subnet
        self.local_mobiles: Set[IPAddress] = set()
        self.cache: Dict[IPAddress, IPAddress] = {}     # mh -> serving MSR
        self.remote_mobiles: Dict[IPAddress, IPAddress] = {}  # mh -> temp addr
        self.peers: List["MSR"] = []
        self._pending_query: Dict[IPAddress, List[IPPacket]] = {}
        self.queries_sent = 0
        self.tunnels_built = 0
        self.registrar = ReliableRegistrar(node)
        dispatcher = ControlDispatcher.for_node(node)
        dispatcher.on(COL_GREET, self._on_greet)
        dispatcher.on(COL_MOVED, self._on_moved)
        dispatcher.on(COL_QUERY, self._on_query)
        dispatcher.on(COL_REMOTE, self._on_remote)
        self._dispatcher = dispatcher
        node.add_extension(self)
        node.register_protocol(PROTO_IPIP, self._on_tunneled)

    @property
    def address(self) -> IPAddress:
        return self.node.interfaces["bb"].ip_address

    # ------------------------------------------------------------------
    # Registration traffic
    # ------------------------------------------------------------------
    def _on_greet(self, packet: IPPacket, message: RegistrationMessage) -> None:
        mobile = message.mobile_host
        self.local_mobiles.add(mobile)
        self.remote_mobiles.pop(mobile, None)
        self.cache.pop(mobile, None)
        if message.hw_value:
            from repro.link.frame import HWAddress

            self.node.arp[self.cell_iface].learn(mobile, HWAddress(message.hw_value))
        old_msr = message.agent
        if not old_msr.is_zero and old_msr != self.address:
            moved = RegistrationMessage(
                kind=COL_MOVED, seq=next_seq(), mobile_host=mobile, agent=self.address
            )
            self.registrar.send(old_msr, moved)
        self.node.sim.trace(
            "baseline", self.node.name, protocol="columbia", event="greet",
            mobile_host=str(mobile),
        )
        self._dispatcher.send_ack(mobile, message, agent=self.address)

    def _on_moved(self, packet: IPPacket, message: RegistrationMessage) -> None:
        mobile = message.mobile_host
        self.local_mobiles.discard(mobile)
        self.cache[mobile] = message.agent
        self._dispatcher.send_ack(packet.src, message, agent=self.address)

    def _on_query(self, packet: IPPacket, message: RegistrationMessage) -> None:
        serving = message.mobile_host in self.local_mobiles
        self.node.sim.trace(
            "baseline", self.node.name, protocol="columbia", event="query-answer",
            mobile_host=str(message.mobile_host), serving=serving,
        )
        self._dispatcher.send_ack(
            packet.src, message,
            agent=self.address if serving else IPAddress.zero(),
            ok=serving,
        )

    def _on_remote(self, packet: IPPacket, message: RegistrationMessage) -> None:
        """An off-campus host registers its temporary address with us."""
        mobile = message.mobile_host
        self.local_mobiles.discard(mobile)
        self.remote_mobiles[mobile] = message.agent
        # Every home MSR must know, or packets landing at another MSR
        # would re-query forever; the Columbia design propagates this
        # among the home MSRs.
        for peer in self.peers:
            peer.remote_mobiles[mobile] = message.agent
            peer.local_mobiles.discard(mobile)
            peer.cache.pop(mobile, None)
            self.note_control_peer()
        self._dispatcher.send_ack(packet.src, message, agent=self.address)

    def note_control_peer(self) -> None:
        self.node.sim.trace(
            "baseline", self.node.name, protocol="columbia", event="remote-sync"
        )

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def handle_outbound(self, packet: IPPacket):
        return self._maybe_handle(packet)

    def handle_transit(self, packet: IPPacket, in_iface):
        return self._maybe_handle(packet)

    def _maybe_handle(self, packet: IPPacket):
        if packet.protocol == PROTO_IPIP:
            return None
        if packet.dst not in self.mobile_subnet:
            return None
        return self._deliver_mobile(packet)

    def _deliver_mobile(self, packet: IPPacket):
        mobile = packet.dst
        if mobile in self.local_mobiles:
            self.node.transmit_on_link(self.cell_iface, mobile, packet)
            return CONSUMED
        temp = self.remote_mobiles.get(mobile)
        if temp is not None:
            self._tunnel(packet, temp)
            return CONSUMED
        serving = self.cache.get(mobile)
        if serving is not None:
            self._tunnel(packet, serving)
            return CONSUMED
        self._query_peers(mobile, packet)
        return CONSUMED

    def _tunnel(self, packet: IPPacket, to: IPAddress) -> None:
        self.tunnels_built += 1
        outer = ipip_encapsulate(packet, src=self.address, dst=to)
        self.node.sim.trace(
            "baseline", self.node.name, protocol="columbia", event="tunnel",
            to=str(to), uid=packet.uid,
        )
        self.node.send(outer)

    def _on_tunneled(self, outer: IPPacket, iface) -> None:
        payload = outer.payload
        if not isinstance(payload, IPIPPayload):
            return
        inner = payload.inner
        mobile = inner.dst
        if mobile in self.local_mobiles:
            self.node.transmit_on_link(self.cell_iface, mobile, inner)
            return
        # Stale tunnel (the host moved on): use our own knowledge, and
        # tell the tunneling MSR where the host went so it stops sending
        # here (the Columbia handoff correction).
        target = self.remote_mobiles.get(mobile) or self.cache.get(mobile)
        if target is not None:
            correction = RegistrationMessage(
                kind=COL_MOVED, seq=next_seq(), mobile_host=mobile,
                agent=self.cache.get(mobile, self.address),
            )
            self.registrar.send(outer.src, correction)
            self._tunnel(inner, target)
            return
        self._query_peers(mobile, inner)

    def _query_peers(self, mobile: IPAddress, packet: IPPacket) -> None:
        """Multicast 'who serves this host?' to every other MSR."""
        queue = self._pending_query.setdefault(mobile, [])
        queue.append(packet)
        if len(queue) > 1:
            return
        self.queries_sent += 1
        self.node.sim.trace(
            "baseline", self.node.name, protocol="columbia", event="query",
            mobile_host=str(mobile), peers=len(self.peers),
        )
        answers = {"negative": 0}
        for peer in self.peers:
            message = RegistrationMessage(
                kind=COL_QUERY, seq=next_seq(), mobile_host=mobile
            )
            self.registrar.send(
                peer.address,
                message,
                on_ack=lambda ack, mh=mobile: self._on_query_reply(mh, ack, answers),
                on_fail=lambda mh=mobile: self._on_query_reply(mh, None, answers),
            )

    def _on_query_reply(
        self,
        mobile: IPAddress,
        ack: Optional[RegistrationMessage],
        answers: Dict[str, int],
    ) -> None:
        if ack is not None and ack.ok:
            self.cache[mobile] = ack.agent
            for packet in self._pending_query.pop(mobile, []):
                self._tunnel(packet, ack.agent)
            return
        answers["negative"] += 1
        if answers["negative"] >= len(self.peers):
            # Nobody on campus serves the host: the queued packets die
            # (Columbia has no further recourse within the campus).
            dropped = self._pending_query.pop(mobile, [])
            if dropped:
                self.node.sim.trace(
                    "baseline", self.node.name, protocol="columbia",
                    event="query-exhausted", mobile_host=str(mobile),
                    dropped=len(dropped),
                )


class ColumbiaMobileClient:
    """Mobile-host side: greetings, off-campus temporary addresses, and
    decapsulation when tunneled to directly (off-campus)."""

    def __init__(self, host: Host, home_msr: IPAddress) -> None:
        self.host = host
        self.home_msr = IPAddress(home_msr)
        self.current_msr: Optional[IPAddress] = None
        self.temp_address: Optional[IPAddress] = None
        self.registrar = ReliableRegistrar(host)
        host.register_protocol(PROTO_IPIP, self._on_tunneled)

    def move_to_cell(self, medium: Medium, msr: "MSR") -> None:
        old = self.current_msr
        self.host.primary_interface.attach_to(medium)
        self.host.primary_interface.alias_addresses = set()
        self.temp_address = None
        gateway = msr.node.interfaces[msr.cell_iface].ip_address
        self.host.routing_table.set_default(gateway, self.host.primary_interface.name)
        self.current_msr = msr.address
        greet = RegistrationMessage(
            kind=COL_GREET,
            seq=next_seq(),
            mobile_host=self.host.primary_address,
            agent=old if old is not None else IPAddress.zero(),
            hw_value=self.host.primary_interface.hw_address.value,
        )
        self.registrar.send(msr.address, greet)

    def move_off_campus(
        self, medium: Medium, temp_address: IPAddress, gateway: IPAddress
    ) -> None:
        """Visit a foreign campus: obtain a temporary address and tell
        the home MSR to tunnel there (no route optimization exists)."""
        self.host.primary_interface.attach_to(medium)
        temp = IPAddress(temp_address)
        self.host.primary_interface.alias_addresses = {temp}
        self.temp_address = temp
        self.current_msr = None
        self.host.routing_table.set_default(
            IPAddress(gateway), self.host.primary_interface.name
        )
        remote = RegistrationMessage(
            kind=COL_REMOTE,
            seq=next_seq(),
            mobile_host=self.host.primary_address,
            agent=temp,
        )
        self.registrar.send(self.home_msr, remote)

    def _on_tunneled(self, outer: IPPacket, iface) -> None:
        payload = outer.payload
        if not isinstance(payload, IPIPPayload):
            return
        inner = payload.inner
        if inner.dst == self.host.primary_address:
            self.host.packet_received(inner, iface)


class ColumbiaScenario(UDPProbeScenario):
    """Columbia IPIP/MSR on the star topology.

    The cell routers are the campus MSRs; the mobile subnet is the home
    network (so ordinary routing already delivers mobile-subnet packets
    toward the campus).  Packets for the mobile subnet reach the home
    router, which we make MSR 0's *first hop*: the home router forwards
    them to MSR 0 (the "nearest MSR" of the published design).
    """

    protocol_name = "Columbia"

    def __init__(
        self, sim: Optional[Simulator] = None, n_cells: int = 3, seed: int = 7
    ) -> None:
        sim = sim or Simulator(seed=seed)
        super().__init__(sim, n_cells)
        correspondent = self.world.correspondents[0]
        mobile_subnet = self.topo.home_net
        self.msrs: List[MSR] = [
            MSR(router, "cell", mobile_subnet) for router in self.topo.cell_routers
        ]
        for msr in self.msrs:
            msr.peers = [m for m in self.msrs if m is not msr]
        # The campus advertises the mobile subnet through MSR 0: the home
        # router hands mobile-subnet packets to it.
        self.topo.home_router.routing_table.remove(mobile_subnet)
        self.topo.home_router.routing_table.add_next_hop(
            mobile_subnet, self.msrs[0].address, "bb"
        )
        mobile = Host(sim, "M")
        mobile.add_interface("wifi0", self.topo.mobile_home_address, mobile_subnet)
        mobile.routing_table.remove(mobile_subnet)
        self.client = ColumbiaMobileClient(mobile, home_msr=self.msrs[0].address)
        self._init_probe(correspondent, mobile, self.topo.mobile_home_address)
        # The foreign campus: one extra cell beyond the MSR cells.
        self.foreign_cell = WirelessCell(sim, "foreign-campus", latency=0.003)
        self.foreign_net = IPNetwork("10.200.0.0/24")
        from repro.ip.router import Router

        self.foreign_router = Router(sim, "XR")
        self.foreign_router.add_interface(
            "bb", self.topo.backbone_net.host(240), self.topo.backbone_net,
            medium=self.topo.backbone,
        )
        self.foreign_router.add_interface(
            "cell", self.foreign_net.host(254), self.foreign_net,
            medium=self.foreign_cell,
        )
        self.foreign_router.routing_table.set_default(
            self.topo.backbone_net.host(1), "bb"
        )
        for router in self.topo.all_routers():
            router.routing_table.add_next_hop(
                self.foreign_net, self.topo.backbone_net.host(240), "bb"
            )
        sim.tracer.subscribe(self._count_control)

    def _count_control(self, entry) -> None:
        if entry.category == "baseline" and entry.detail.get("protocol") == "columbia":
            self.note_control()
        if entry.category == "mhrp.register" and entry.detail.get("event") == "send":
            self.note_control()

    # ------------------------------------------------------------------
    def move_to_cell(self, index: int) -> None:
        self.client.move_to_cell(self.topo.cells[index], self.msrs[index])

    def move_home(self) -> None:
        # Columbia has no "home network" in the MHRP sense; cell 0 is the
        # closest equivalent (the host is always served by an MSR).
        self.move_to_cell(0)

    def move_off_campus(self) -> None:
        self.client.move_off_campus(
            self.foreign_cell,
            temp_address=self.foreign_net.host(99),
            gateway=self.foreign_net.host(254),
        )

    def snapshot_state(self) -> None:
        sizes = [
            len(m.local_mobiles) + len(m.cache) + len(m.remote_mobiles)
            for m in self.msrs
        ]
        self.stats.max_node_state = max(self.stats.max_node_state, max(sizes))
        self.stats.global_state = 0
