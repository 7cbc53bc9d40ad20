"""The mobile host (paper Sections 1–3, 6) — simulator adapter.

A mobile host is an ordinary :class:`~repro.ip.host.Host` plus a thin
network-level module — the paper requires "no changes to mobile hosts
above the network level", and indeed the transport stacks and
applications on this class are exactly the ones stationary hosts use.

The protocol behaviour (the Section 3 notification sequence, the agent
silence watchdog, self-delivery of tunneled packets) lives in
:class:`repro.wire.roles.MobileHostRole`, shared with the sans-io
engines; this class supplies the physical side — interface attachment,
ARP, the link-layer hardware address — via
:class:`~repro.wire.roles.SimRolePort`.

The host always uses its permanent *home* address.  Movement is modelled
as re-attaching its interface to a different medium; the host then hears
an agent advertisement and runs the Section 3 notification sequence:

1. notify the **new foreign agent** (connect),
2. notify the **home agent** (register the new foreign agent — or the
   zero address when the host is back home),
3. notify the **old foreign agent** (disconnect, carrying the new
   foreign agent's address so it may keep a forwarding pointer).

Returning home additionally broadcasts a gratuitous ARP to reclaim the
home address from the home agent (Section 2).

Two optional behaviours from the paper are implemented:

- **own foreign agent** (Section 2): when a foreign network has no
  foreign agent, the host can use a temporary address there purely as a
  tunnel endpoint while applications keep using the home address;
- **sender-side caching**: the host runs a cache agent for its own
  traffic to other mobile hosts.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cache_agent import CacheAgent
from repro.core.discovery import AgentDiscovery
from repro.core.home_agent import DISCONNECTED_ADDRESS  # noqa: F401  (re-exported)
from repro.core.registration import SeqAllocator
from repro.ip.address import IPAddress, IPNetwork
from repro.ip.host import Host
from repro.ip.packet import IPPacket
from repro.ip.protocols import MHRP as PROTO_MHRP
from repro.link.interface import NetworkInterface
from repro.link.medium import Medium
from repro.netsim.simulator import Simulator
from repro.wire.roles import MobileHostRole, ReliableRegistrar, SimRolePort

# Connection states (canonical definitions live with the shared logic).
from repro.wire.logic import (  # noqa: F401  (re-exported)
    AT_HOME,
    AWAY,
    AWAY_SELF_AGENT,
    DISCONNECTED,
    mh_reported_location,
    stale_chain,
)


class MobileHost(MobileHostRole, Host):
    """A host that may move between networks at any time.

    Args:
        sim: owning simulator.
        name: node name.
        home_address: the permanent address (used everywhere, always).
        home_network: the home IP network.
        home_agent: the home agent's address on the home network.
        home_gateway: the default router to use while at home; defaults
            to the home agent's address (the common co-located case) —
            pass the real router when the home agent is a separate
            support host (Section 2).
        use_sender_cache: run a cache agent for this host's own sends.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        home_address: IPAddress | str,
        home_network: IPNetwork | str,
        home_agent: IPAddress | str,
        home_gateway: IPAddress | str | None = None,
        use_sender_cache: bool = True,
    ) -> None:
        super().__init__(sim, name)
        self.home_address = IPAddress(home_address)
        self.home_network = (
            home_network if isinstance(home_network, IPNetwork) else IPNetwork(home_network)
        )
        self.home_agent = IPAddress(home_agent)
        self.home_gateway = IPAddress(home_gateway if home_gateway is not None else home_agent)
        self.iface: NetworkInterface = self.add_interface(
            self.WIFI, self.home_address, self.home_network
        )
        self._init_mobile_state(SimRolePort.of(self))
        self.next_seq = SeqAllocator()
        self.registrar = ReliableRegistrar(self)
        self.discovery = AgentDiscovery(self, self._on_agent_heard)
        self.cache_agent: Optional[CacheAgent] = (
            CacheAgent(self) if use_sender_cache else None
        )
        from repro.core.icmp_handling import TunnelErrorHandler

        self.error_handler = TunnelErrorHandler.attach(self, cache_agent=self.cache_agent)
        self.register_protocol(PROTO_MHRP, self._on_mhrp_packet)

    # ------------------------------------------------------------------
    # Substrate hooks for the role
    # ------------------------------------------------------------------
    def _wifi_hw_value(self) -> int:
        return self.iface.hw_address.value

    def _redeliver_local(self, packet: IPPacket, iface) -> None:
        self.packet_received(packet, iface)

    # ------------------------------------------------------------------
    # Movement API (driven by mobility models or directly by tests)
    # ------------------------------------------------------------------
    def attach(self, medium: Medium, solicit: bool = True) -> None:
        """Physically attach to a network (implicitly leaving the old one).

        Registration happens when an agent advertisement is heard; pass
        ``solicit=True`` (the default) to ask for one immediately rather
        than waiting out the advertisement period (Section 3 allows both).
        """
        self._record_move()
        self.iface.attach_to(medium)
        if solicit:
            self._solicit()

    def attach_home(self, medium: Medium, solicit: bool = True) -> None:
        """Attach directly to the home network."""
        self.attach(medium, solicit=solicit)

    def disconnect(self) -> None:
        """Planned disconnection (Section 3): notify the home agent first,
        then the old foreign agent, then detach."""
        self._disconnect_protocol()
        self.iface.detach()

    def connect_as_own_foreign_agent(
        self,
        medium: Medium,
        temp_address: IPAddress | str,
        gateway: IPAddress | str,
    ) -> None:
        """Attach to a foreign network with no foreign agent (Section 2).

        ``temp_address`` is used *only* as the tunnel endpoint registered
        with the home agent; applications continue to see the home
        address.  ``gateway`` is the foreign network's ordinary router.
        """
        old_fa = self.current_foreign_agent
        self._record_move()
        self.iface.attach_to(medium)
        temp = IPAddress(temp_address)
        self.iface.alias_addresses = {temp}
        self.temp_address = temp
        self.state = AWAY_SELF_AGENT
        self.current_foreign_agent = temp
        self._set_away_routing(IPAddress(gateway))
        self._register_with_home_agent(temp)
        if old_fa is not None and old_fa != temp:
            self._notify_old_foreign_agent(old_fa, new_agent=temp)

    def __repr__(self) -> str:
        where = {
            AT_HOME: "home",
            AWAY: f"away via {self.current_foreign_agent}",
            AWAY_SELF_AGENT: f"away self-agent {self.temp_address}",
            DISCONNECTED: "disconnected",
        }[self.state]
        return f"<MobileHost {self.name} {self.home_address} ({where})>"


class StationaryCorrespondent(Host):
    """A stationary host that *does* implement MHRP sender-side caching.

    The paper expects most Internet hosts to eventually run a cache agent
    for their own traffic (Section 2); this class is that deployment.
    Plain :class:`~repro.ip.host.Host` remains the never-modified host.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.cache_agent = CacheAgent(self)
        from repro.core.icmp_handling import TunnelErrorHandler

        self.error_handler = TunnelErrorHandler.attach(self, cache_agent=self.cache_agent)
