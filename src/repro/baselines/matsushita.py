"""The Matsushita Packet Forwarding Server / IPTP protocol
(Wada, Ohnishi & Marsh, 1992 draft).

Properties reproduced from the paper's Section 7 characterization:

- the mobile host obtains a **temporary IP address** on every foreign
  network it visits (as with Columbia and Sony);
- in **forwarding mode** every packet for the host is routed to a
  **Packet Forwarding Server (PFS)** on its home network and tunneled
  with IPTP to the temporary address — "optimization of the routing to
  avoid going through the home network is not possible in forwarding
  mode";
- in **autonomous mode** senders cache the temporary address and tunnel
  their own packets directly;
- either way the tunnel costs **40 bytes** per packet: "a new IP header
  must be added, as well as a separate IPTP header".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines.scenario_base import UDPProbeScenario
from repro.core.registration import (
    RegistrationMessage,
    next_seq,
)
from repro.ip.address import IPAddress
from repro.ip.host import Host
from repro.ip.node import CONSUMED, IPNode, NetworkLayerExtension
from repro.ip.packet import IPPacket
from repro.ip.protocols import IPTP as PROTO_IPTP
from repro.link.medium import Medium
from repro.netsim.simulator import Simulator
from repro.wire.roles import ControlDispatcher, ReliableRegistrar

MAT_REGISTER = "mat-register"  # mobile host -> PFS (current temp address)
MAT_NOTIFY = "mat-notify"      # mobile host -> correspondent (autonomous)

#: The IPTP header that rides inside the new outer IP header; with the
#: fresh 20-byte IP header the per-packet overhead is the 40 bytes
#: Section 7 reports.
IPTP_HEADER_LEN = 20


@dataclass
class IPTPPayload:
    """IPTP header + the complete original packet."""

    inner: IPPacket

    @property
    def byte_length(self) -> int:
        return IPTP_HEADER_LEN + self.inner.total_length

    def to_bytes(self) -> bytes:
        return b"\x00" * IPTP_HEADER_LEN + self.inner.to_bytes()

    @property
    def uid(self) -> int:
        return self.inner.uid

    def __repr__(self) -> str:
        return f"<IPTP {self.inner!r}>"


def iptp_encapsulate(packet: IPPacket, src: IPAddress, dst: IPAddress) -> IPPacket:
    return IPPacket(
        src=src, dst=dst, protocol=PROTO_IPTP,
        payload=IPTPPayload(inner=packet), uid=packet.uid,
    )


class PacketForwardingServer(NetworkLayerExtension):
    """The PFS on the mobile host's home network."""

    def __init__(self, node: IPNode, home_iface: str) -> None:
        self.node = node
        self.home_iface = home_iface
        self.table: Dict[IPAddress, IPAddress] = {}  # mh -> temp address
        self.tunnels_built = 0
        dispatcher = ControlDispatcher.for_node(node)
        dispatcher.on(MAT_REGISTER, self._on_register)
        self._dispatcher = dispatcher
        node.add_extension(self)

    @property
    def address(self) -> IPAddress:
        return self.node.interfaces[self.home_iface].ip_address

    def _on_register(self, packet: IPPacket, message: RegistrationMessage) -> None:
        mobile = message.mobile_host
        if message.agent.is_zero:
            self.table.pop(mobile, None)
        else:
            self.table[mobile] = message.agent
        self.node.sim.trace(
            "baseline", self.node.name, protocol="iptp", event="register",
            mobile_host=str(mobile), temp=str(message.agent),
        )
        self._dispatcher.send_ack(packet.src, message)

    def handle_outbound(self, packet: IPPacket):
        return self._maybe_tunnel(packet)

    def handle_transit(self, packet: IPPacket, in_iface):
        return self._maybe_tunnel(packet)

    def _maybe_tunnel(self, packet: IPPacket):
        if packet.protocol == PROTO_IPTP:
            return None
        temp = self.table.get(packet.dst)
        if temp is None:
            return None
        self.tunnels_built += 1
        self.node.sim.trace(
            "baseline", self.node.name, protocol="iptp", event="pfs-tunnel",
            to=str(temp), uid=packet.uid,
        )
        return iptp_encapsulate(packet, src=self.address, dst=temp)


class MatsushitaSender(NetworkLayerExtension):
    """Autonomous-mode sender: cache the temp address, tunnel directly."""

    def __init__(self, node: IPNode) -> None:
        self.node = node
        self.temp_cache: Dict[IPAddress, IPAddress] = {}
        self.tunnels_built = 0
        dispatcher = ControlDispatcher.for_node(node)
        dispatcher.on(MAT_NOTIFY, self._on_notify)
        self._dispatcher = dispatcher
        node.add_extension(self)

    def _on_notify(self, packet: IPPacket, message: RegistrationMessage) -> None:
        if message.agent.is_zero:
            self.temp_cache.pop(message.mobile_host, None)
        else:
            self.temp_cache[message.mobile_host] = message.agent
        self._dispatcher.send_ack(packet.src, message)

    def handle_outbound(self, packet: IPPacket):
        if packet.protocol == PROTO_IPTP:
            return None
        temp = self.temp_cache.get(packet.dst)
        if temp is None:
            return None  # forwarding mode: normal routing to the PFS
        self.tunnels_built += 1
        self.node.sim.trace(
            "baseline", self.node.name, protocol="iptp", event="direct-tunnel",
            to=str(temp), uid=packet.uid,
        )
        return iptp_encapsulate(packet, src=self.node.primary_address, dst=temp)


class MatsushitaMobileClient:
    """Mobile host side: temp addresses, PFS registration, decapsulation,
    and (autonomous mode) notifying correspondents."""

    def __init__(
        self,
        host: Host,
        pfs_address: IPAddress,
        autonomous: bool = False,
        correspondents: Optional[List[IPAddress]] = None,
    ) -> None:
        self.host = host
        self.pfs_address = IPAddress(pfs_address)
        self.autonomous = autonomous
        self.correspondents = [IPAddress(c) for c in (correspondents or [])]
        self.temp_address: Optional[IPAddress] = None
        self.registrar = ReliableRegistrar(host)
        host.register_protocol(PROTO_IPTP, self._on_tunneled)

    def move_to(
        self, medium: Medium, temp_address: IPAddress, gateway: IPAddress
    ) -> None:
        self.host.primary_interface.attach_to(medium)
        temp = IPAddress(temp_address)
        self.host.primary_interface.alias_addresses = {temp}
        self.temp_address = temp
        self.host.routing_table.set_default(
            IPAddress(gateway), self.host.primary_interface.name
        )
        self._register(temp)

    def move_home(self, medium: Medium, gateway: IPAddress) -> None:
        self.host.primary_interface.attach_to(medium)
        self.host.primary_interface.alias_addresses = set()
        self.temp_address = None
        self.host.routing_table.set_default(
            IPAddress(gateway), self.host.primary_interface.name
        )
        self._register(IPAddress.zero())

    def _register(self, temp: IPAddress) -> None:
        register = RegistrationMessage(
            kind=MAT_REGISTER, seq=next_seq(),
            mobile_host=self.host.primary_address, agent=temp,
        )
        self.registrar.send(self.pfs_address, register)
        if self.autonomous:
            for correspondent in self.correspondents:
                notify = RegistrationMessage(
                    kind=MAT_NOTIFY, seq=next_seq(),
                    mobile_host=self.host.primary_address, agent=temp,
                )
                self.registrar.send(correspondent, notify)

    def _on_tunneled(self, outer: IPPacket, iface) -> None:
        payload = outer.payload
        if not isinstance(payload, IPTPPayload):
            return
        inner = payload.inner
        if inner.dst == self.host.primary_address:
            self.host.packet_received(inner, iface)


class MatsushitaScenario(UDPProbeScenario):
    """Matsushita PFS/IPTP on the star topology.

    ``autonomous=False`` (default) reproduces forwarding mode: every
    packet hairpins through the PFS forever.  ``autonomous=True`` lets
    the sender tunnel directly once notified.
    """

    protocol_name = "Matsushita"

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        n_cells: int = 3,
        seed: int = 7,
        autonomous: bool = False,
    ) -> None:
        sim = sim or Simulator(seed=seed)
        super().__init__(sim, n_cells)
        self.autonomous = autonomous
        self.pfs = PacketForwardingServer(self.topo.home_router, "lan")
        correspondent = self.world.correspondents[0]
        self.sender = MatsushitaSender(correspondent)
        mobile = Host(sim, "M")
        mobile.add_interface("wifi0", self.topo.mobile_home_address, self.topo.home_net)
        mobile.routing_table.remove(self.topo.home_net)
        self.client = MatsushitaMobileClient(
            mobile,
            pfs_address=self.topo.home_net.host(254),
            autonomous=autonomous,
            correspondents=[self.topo.correspondent_address],
        )
        self._init_probe(correspondent, mobile, self.topo.mobile_home_address)
        sim.tracer.subscribe(self._count_control)

    def _count_control(self, entry) -> None:
        if entry.category == "baseline" and entry.detail.get("protocol") == "iptp":
            if entry.detail.get("event") == "register":
                self.note_control()
        if entry.category == "mhrp.register" and entry.detail.get("event") == "send":
            self.note_control()

    # ------------------------------------------------------------------
    def move_to_cell(self, index: int) -> None:
        self.client.move_to(
            self.topo.cells[index],
            temp_address=self.topo.cell_nets[index].host(99),
            gateway=self.topo.cell_nets[index].host(254),
        )

    def move_home(self) -> None:
        self.client.move_home(self.topo.home_lan, gateway=self.topo.home_net.host(254))

    def snapshot_state(self) -> None:
        sizes = [len(self.pfs.table), len(self.sender.temp_cache)]
        self.stats.max_node_state = max(self.stats.max_node_state, max(sizes))
        self.stats.global_state = 0
