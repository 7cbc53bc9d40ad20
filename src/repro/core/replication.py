"""Replicated home agents (paper Section 2).

"If that organization requires increased reliability of service for its
own mobile hosts, it can replicate the home agent function on several
support hosts on its own network, although these hosts must cooperate
to provide a consistent view of the database recording the current
location of each of that home network's mobile hosts."

This module supplies that cooperation:

- a group of **support hosts** on the home LAN each runs the ordinary
  :class:`~repro.core.home_agent.HomeAgent` role;
- one replica is **active**: it owns the group's *service address* (the
  address mobile hosts are configured with) as an interface alias,
  claims it with gratuitous ARP, answers registrations, intercepts
  traffic, and advertises;
- the active replica streams every registration to the standbys
  (primary/backup replication over the reliable control channel) and
  heartbeats them;
- a standby that misses enough heartbeats **takes over**: it claims the
  service address, re-establishes interception for every away host from
  its replica of the database, and starts advertising — mobile hosts
  and correspondents never notice, because the service address and all
  protocol behaviour survive the failover;
- a rebooted ex-active rejoins as a standby and refreshes its replica
  with a snapshot from the current active.

Failover ordering is deterministic: replica *i* waits ``(i+1)`` missed
heartbeat windows before promoting itself, so the lowest-ranked live
standby wins without an election protocol.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.discovery import AgentAdvertiser
from repro.core.home_agent import HomeAgent
from repro.core.persistence import LocationStore, MemoryStore
from repro.core.registration import (
    RegistrationMessage,
    next_seq,
)
from repro.errors import ConfigurationError
from repro.ip.address import IPAddress
from repro.ip.host import Host
from repro.wire.roles import ControlDispatcher, ReliableRegistrar

HA_SYNC = "ha-sync"                  # active -> standby: one db entry
HA_HEARTBEAT = "ha-heartbeat"        # active -> standbys
HA_SNAPSHOT_REQUEST = "ha-snapshot"  # (re)joining standby -> active

#: Heartbeat period and the per-rank takeover multiplier.
HEARTBEAT_PERIOD = 1.0
TAKEOVER_MISSES = 3


def _discard_ack(ack) -> None:
    """Heartbeat acks carry no information; module-level so forked
    sessions never share a closure with their parent."""


class HomeAgentReplica:
    """One member of a replicated home agent group."""

    def __init__(
        self,
        host: Host,
        home_iface: str,
        service_address: IPAddress,
        peers_addresses: List[IPAddress],
        rank: int,
        store: Optional[LocationStore] = None,
    ) -> None:
        self.host = host
        self.home_iface = home_iface
        self.service_address = IPAddress(service_address)
        self.peer_addresses = [IPAddress(a) for a in peers_addresses]
        self.rank = rank
        self.active = False
        self.agent = HomeAgent.attach(
            host, home_iface, store=store or MemoryStore(), advertise=False
        )
        # Replication of everything the agent records.
        self.agent.location_listeners.append(self._replicate)
        self.advertiser = AgentAdvertiser(
            host, home_iface, is_home_agent=True, is_foreign_agent=False,
            advertised_address=self.service_address,
        )
        self.registrar = ReliableRegistrar(host)
        dispatcher = ControlDispatcher.for_node(host)
        dispatcher.on(HA_SYNC, self._on_sync)
        dispatcher.on(HA_HEARTBEAT, self._on_heartbeat)
        dispatcher.on(HA_SNAPSHOT_REQUEST, self._on_snapshot_request)
        self._dispatcher = dispatcher
        self._heartbeat_timer = host.sim.timer(self._send_heartbeats, label="ha-hb")
        self._takeover_timer = host.sim.timer(self._consider_takeover, label="ha-tk")
        self.takeovers = 0
        host.reboot_hooks.append(self._on_reboot)

    # ------------------------------------------------------------------
    @property
    def iface_address(self) -> IPAddress:
        return self.host.interfaces[self.home_iface].ip_address

    def start_active(self) -> None:
        """Assume the active role (initial bring-up or takeover)."""
        self.active = True
        iface = self.host.interfaces[self.home_iface]
        iface.alias_addresses.add(self.service_address)
        # Claim the service address on the LAN (VRRP avant la lettre).
        self.host.arp[self.home_iface].announce(self.service_address)
        # Re-establish interception for every away host we know about.
        for mobile_host in self.agent.database.away_hosts():
            self.agent._start_interception(mobile_host)
        self.advertiser.restart_with_new_boot_id()
        self._send_heartbeats()
        self._takeover_timer.cancel()
        self.host.sim.trace(
            "mhrp.register", self.host.name, event="ha-replica-active",
            rank=self.rank,
        )

    def start_standby(self) -> None:
        self.active = False
        iface = self.host.interfaces[self.home_iface]
        iface.alias_addresses.discard(self.service_address)
        self.advertiser.stop()
        self._heartbeat_timer.cancel()
        self._arm_takeover_timer()

    # ------------------------------------------------------------------
    # Replication (active side)
    # ------------------------------------------------------------------
    def _replicate(self, mobile_host: IPAddress, foreign_agent: IPAddress) -> None:
        if not self.active:
            return
        for peer in self.peer_addresses:
            sync = RegistrationMessage(
                kind=HA_SYNC, seq=next_seq(),
                mobile_host=mobile_host, agent=foreign_agent,
            )
            self.registrar.send(peer, sync)

    def _send_heartbeats(self) -> None:
        if not self.active or not self.host.up:
            return
        for peer in self.peer_addresses:
            beat = RegistrationMessage(
                kind=HA_HEARTBEAT, seq=next_seq(),
                mobile_host=IPAddress.zero(), agent=self.iface_address,
            )
            # Heartbeats are fire-and-forget: a missed one is the signal.
            self._dispatcher.expect_ack(beat.seq, _discard_ack)
            from repro.ip.packet import IPPacket
            from repro.ip.protocols import MOBILE_CONTROL

            self.host.send(IPPacket(
                src=self.host.primary_address, dst=peer,
                protocol=MOBILE_CONTROL, payload=beat,
            ))
        self._heartbeat_timer.start(HEARTBEAT_PERIOD)

    # ------------------------------------------------------------------
    # Standby side
    # ------------------------------------------------------------------
    def _on_sync(self, packet, message: RegistrationMessage) -> None:
        self.agent.database.record(message.mobile_host, message.agent)
        self._dispatcher.send_ack(packet.src, message)

    def _on_heartbeat(self, packet, message: RegistrationMessage) -> None:
        if self.active and message.agent != self.iface_address:
            # Another replica is also active (we both survived a
            # partition, or we rebooted into a takeover): the lower rank
            # keeps the role.  Peer ranks follow peer order; rather than
            # exchange ranks, the deterministic rule is: an active
            # replica hearing a heartbeat steps down unless it has the
            # service alias *and* a lower interface address.
            if self.iface_address.value > message.agent.value:
                self.start_standby()
                self._request_snapshot(message.agent)
                return
        if not self.active:
            self._arm_takeover_timer()  # heartbeat received: reset it

    def _arm_takeover_timer(self) -> None:
        delay = HEARTBEAT_PERIOD * TAKEOVER_MISSES * (self.rank + 1)
        self._takeover_timer.start(delay)

    def _consider_takeover(self) -> None:
        if self.active or not self.host.up:
            return
        self.takeovers += 1
        self.host.sim.trace(
            "mhrp.register", self.host.name, event="ha-replica-takeover",
            rank=self.rank,
        )
        self.start_active()

    # ------------------------------------------------------------------
    # Rejoin after reboot
    # ------------------------------------------------------------------
    def _on_reboot(self) -> None:
        # Come back as a standby and refresh from whoever is active now;
        # if nobody is, the takeover timer will promote us.
        self.start_standby()
        for peer in self.peer_addresses:
            self._request_snapshot(peer)

    def _request_snapshot(self, peer: IPAddress) -> None:
        request = RegistrationMessage(
            kind=HA_SNAPSHOT_REQUEST, seq=next_seq(),
            mobile_host=IPAddress.zero(), agent=self.iface_address,
        )
        self.registrar.send(peer, request)

    def _on_snapshot_request(self, packet, message: RegistrationMessage) -> None:
        self._dispatcher.send_ack(packet.src, message)
        if not self.active:
            return
        requester = message.agent
        for mobile_host, foreign_agent in self.agent.database.away_hosts().items():
            sync = RegistrationMessage(
                kind=HA_SYNC, seq=next_seq(),
                mobile_host=mobile_host, agent=foreign_agent,
            )
            self.registrar.send(requester, sync)


class ReplicatedHomeAgentGroup:
    """Builds and manages a group of home agent replicas.

    Args:
        hosts: support hosts already attached to the home LAN, in
            priority order (index 0 starts active).
        home_iface: interface name (same on every host).
        service_address: the address mobile hosts treat as "the home
            agent"; must be a free host address on the home network.
    """

    def __init__(
        self,
        hosts: List[Host],
        home_iface: str,
        service_address: IPAddress,
    ) -> None:
        if len(hosts) < 2:
            raise ConfigurationError("replication needs at least two hosts")
        self.service_address = IPAddress(service_address)
        addresses = [h.interfaces[home_iface].ip_address for h in hosts]
        self.replicas: List[HomeAgentReplica] = []
        for rank, host in enumerate(hosts):
            peers = [a for a in addresses if a != addresses[rank]]
            self.replicas.append(HomeAgentReplica(
                host, home_iface, self.service_address,
                peers_addresses=peers, rank=rank,
            ))
        self.replicas[0].start_active()
        for replica in self.replicas[1:]:
            replica.start_standby()

    @property
    def active_replica(self) -> Optional[HomeAgentReplica]:
        for replica in self.replicas:
            if replica.active and replica.host.up:
                return replica
        return None

    def databases_consistent(self) -> bool:
        """Whether every live replica agrees on every away host."""
        live = [r for r in self.replicas if r.host.up]
        if not live:
            return True
        reference = live[0].agent.database.away_hosts()
        return all(r.agent.database.away_hosts() == reference for r in live[1:])
