"""The IBM loose-source-route proposals (Perkins & Rekhter, 1992/93).

Properties reproduced from the paper's Section 7 characterization:

- the mobile host registers with a **base station** on the visited
  network (the analogue of MHRP's foreign agent);
- every packet the host **sends** goes through the base station carrying
  an **LSRR option**, so the recorded route at the receiver shows the
  path back through the base station — **8 bytes** added each way;
- receivers are "supposed to save and reverse the recorded route for
  use in sending return packets", but "many existing implementations of
  the LSRR option either do not record the route correctly ... or do
  not correctly reverse or save" — modelled by the per-correspondent
  ``reverses_routes`` switch;
- "after moving, packets for a mobile host continue to go to the host's
  old location until some application on that host needs to send a
  normal IP packet to that destination" — stale saved routes are only
  refreshed by fresh traffic *from* the mobile host;
- every optioned packet knocks each forwarding router off its fast path
  (counted by ``IPNode.slow_path_packets``), the load argument
  Section 7 closes on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.scenario_base import UDPProbeScenario
from repro.baselines.sunshine_postel import Forwarder
from repro.core.registration import (
    RegistrationMessage,
    next_seq,
)
from repro.ip.address import IPAddress
from repro.ip.host import Host
from repro.ip.node import IPNode, NetworkLayerExtension
from repro.ip.options import LSRROption
from repro.ip.packet import IPPacket
from repro.link.medium import Medium
from repro.netsim.simulator import Simulator
from repro.wire.roles import ReliableRegistrar

IBM_ATTACH = "ibm-attach"
IBM_DETACH = "ibm-detach"


class BaseStation(Forwarder):
    """A base station: the forwarder role with IBM control kinds."""

    def __init__(self, node: IPNode, local_iface_name: str) -> None:
        super().__init__(
            node, local_iface_name, attach_kind=IBM_ATTACH, detach_kind=IBM_DETACH
        )


class LSRRMobileAgent(NetworkLayerExtension):
    """Mobile-host side: source-route everything through the base station."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.base_station: Optional[IPAddress] = None
        host.add_extension(self)

    def handle_outbound(self, packet: IPPacket):
        if self.base_station is None or packet.find_lsrr() is not None:
            return None
        if packet.dst == self.base_station:
            return None  # control traffic to the base station itself
        # dst becomes the base station; the LSRR lists the true target.
        packet.options.append(LSRROption(route=[packet.dst]))
        packet.dst = self.base_station
        return packet


class LSRRCorrespondentAgent(NetworkLayerExtension):
    """Correspondent side: save + reverse recorded routes (or not).

    ``reverses_routes=False`` models the broken implementations the
    paper highlights: the recorded route is ignored and replies are sent
    plainly to the mobile host's (home) address — where nothing answers.
    """

    def __init__(self, node: IPNode, reverses_routes: bool = True) -> None:
        self.node = node
        self.reverses_routes = reverses_routes
        #: source address -> reversed route to use when replying.
        self.saved_routes: Dict[IPAddress, List[IPAddress]] = {}
        node.add_extension(self)

    def note_received(self, packet: IPPacket) -> None:
        """Called for inbound packets so recorded routes can be saved.

        Wired by the scenario to the probe delivery path; a real stack
        would do this inside its IP input routine.
        """
        lsrr = packet.find_lsrr()
        if lsrr is None or not lsrr.exhausted or not self.reverses_routes:
            return
        self.saved_routes[packet.src] = lsrr.reversed_route()

    def handle_outbound(self, packet: IPPacket):
        if packet.find_lsrr() is not None:
            return None
        route = self.saved_routes.get(packet.dst)
        if not route:
            return None
        # Send via the first recorded hop; remaining hops plus the true
        # destination ride in the option.
        target = packet.dst
        packet.options.append(LSRROption(route=list(route[1:]) + [target]))
        packet.dst = route[0]
        return packet


class LSRRMobileClient:
    """Registration with base stations as the host moves."""

    def __init__(self, host: Host, agent: LSRRMobileAgent) -> None:
        self.host = host
        self.agent = agent
        self.registrar = ReliableRegistrar(host)
        self.current_base: Optional[IPAddress] = None

    def move_to(self, medium: Medium, base: IPAddress, gateway: IPAddress) -> None:
        old_base = self.current_base
        self.host.primary_interface.attach_to(medium)
        self.host.routing_table.set_default(
            IPAddress(gateway), self.host.primary_interface.name
        )
        self.current_base = IPAddress(base)
        self.agent.base_station = self.current_base
        attach = RegistrationMessage(
            kind=IBM_ATTACH, seq=next_seq(),
            mobile_host=self.host.primary_address,
            agent=self.current_base,
            hw_value=self.host.primary_interface.hw_address.value,
        )
        self.registrar.send(self.current_base, attach)
        if old_base is not None and old_base != self.current_base:
            detach = RegistrationMessage(
                kind=IBM_DETACH, seq=next_seq(),
                mobile_host=self.host.primary_address,
            )
            self.registrar.send(old_base, detach)


class IBMLSRRScenario(UDPProbeScenario):
    """IBM LSRR on the star topology.

    The probe echoes: the correspondent can only learn the route to the
    mobile host from traffic *sent by* the mobile host, which is exactly
    how the IBM design works.
    """

    protocol_name = "IBM-LSRR"

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        n_cells: int = 3,
        seed: int = 7,
        correspondent_reverses: bool = True,
    ) -> None:
        sim = sim or Simulator(seed=seed)
        super().__init__(sim, n_cells)
        self.base_stations: List[BaseStation] = [
            BaseStation(self.topo.home_router, "lan")
        ] + [BaseStation(router, "cell") for router in self.topo.cell_routers]

        correspondent = self.world.correspondents[0]
        self.correspondent_agent = LSRRCorrespondentAgent(
            correspondent, reverses_routes=correspondent_reverses
        )

        mobile = Host(sim, "M")
        mobile.add_interface("wifi0", self.topo.mobile_home_address, self.topo.home_net)
        mobile.routing_table.remove(self.topo.home_net)
        self.mobile_agent = LSRRMobileAgent(mobile)
        self.client = LSRRMobileClient(mobile, self.mobile_agent)

        # Correspondent->mobile probes only work once the correspondent
        # saved a route, which requires mobile->correspondent traffic
        # first: the probe's echo plus `prime()` below provide it.
        self._init_probe(
            correspondent, mobile, self.topo.mobile_home_address, echo=True
        )
        self._install_route_saver(correspondent)
        sim.tracer.subscribe(self._count_control)

    def _install_route_saver(self, correspondent: Host) -> None:
        """Observe inbound packets at the correspondent (a real stack's
        IP input routine) so recorded routes are saved."""
        original = correspondent.packet_received

        def wrapped(packet, iface):
            if correspondent.has_address(packet.dst):
                self.correspondent_agent.note_received(packet)
            original(packet, iface)

        correspondent.packet_received = wrapped  # type: ignore[method-assign]

    def _count_control(self, entry) -> None:
        if entry.category == "mhrp.register" and entry.detail.get("event") == "send":
            self.note_control()

    # ------------------------------------------------------------------
    def prime(self) -> None:
        """Have the mobile host send one packet to the correspondent so
        the reverse route gets recorded (the IBM design's requirement)."""
        assert self.mobile_node is not None and self.correspondent is not None
        sock = self.mobile_node.udp.bind()
        sock.send_to(b"hello", self.correspondent.primary_address, 47000)
        sock.close()

    def move_to_cell(self, index: int) -> None:
        router = self.topo.cell_routers[index]
        self.client.move_to(
            self.topo.cells[index],
            base=router.interfaces["cell"].ip_address,
            gateway=router.interfaces["cell"].ip_address,
        )

    def move_home(self) -> None:
        self.client.move_to(
            self.topo.home_lan,
            base=self.topo.home_net.host(254),
            gateway=self.topo.home_net.host(254),
        )

    def snapshot_state(self) -> None:
        sizes = [len(b.local_mobiles) for b in self.base_stations]
        sizes.append(len(self.correspondent_agent.saved_routes))
        self.stats.max_node_state = max(self.stats.max_node_state, max(sizes))
        self.stats.global_state = 0

    def slow_path_total(self) -> int:
        return sum(r.slow_path_packets for r in self.topo.all_routers())
