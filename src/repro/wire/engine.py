"""Sans-io MHRP protocol engines.

Each engine is a pure state machine: it consumes ``(now, inbound
datagram bytes | timer fire | local command)`` and emits an
:class:`EngineOutput` — outbound datagrams (already serialized through
:mod:`repro.wire.codec`), timer requests, and protocol events.  Nothing
here touches a socket, a simulator, or a wall clock; drivers own all IO:

- :mod:`repro.wire.driver` executes an :class:`EngineWorld` inside a
  deterministic in-process event loop (the discrete-event backend);
- :mod:`repro.live` executes the same world over real asyncio UDP
  sockets on loopback, one port per interface.

The protocol decisions are literally the *same code* the simulator-bound
agents in :mod:`repro.core` run: every role engine below subclasses its
role from :mod:`repro.wire.roles` over an
:class:`~repro.wire.roles.EngineRolePort`, so the per-message MHRP
behaviour has exactly one implementation.  The trace-event vocabulary is
shared by construction, and the cross-backend conformance harness
(:mod:`repro.wire.conformance`) can diff a live run against a simulator
run event-for-event.

One deliberate difference versus the full simulated link layer,
documented in ``PROTOCOL.md``: there is **no ARP** — drivers map IP
addresses to endpoints directly, home agents rely on being on-path
(their routers sit between the backbone and the home LAN in every
shipped topology), and foreign agents learn visitors from connect
notifications alone.  The Section 5.2 local-query variant
(``believe_home_agent=False``) still works here: the presence query is
an ICMP echo probe instead of an ARP request (see
:meth:`repro.wire.roles.EngineRolePort.probe_neighbor`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.encapsulation import MHRPPayload
from repro.core.header import DEFAULT_MAX_PREVIOUS_SOURCES
from repro.core.persistence import LocationStore
from repro.core.registration import SeqAllocator
from repro.errors import PacketError, RegistrationError
from repro.ip.address import IPAddress, IPNetwork

# The hook-consumed sentinel is the IPNode's own: the roles return it and
# both substrates' dataplanes compare against it by identity.
from repro.ip.node import CONSUMED
from repro.ip.icmp import (
    EchoMessage,
    ICMPError,
    RouterAdvertisement,
    TYPE_ECHO_REPLY,
    TYPE_ECHO_REQUEST,
    TYPE_ROUTER_ADVERTISEMENT,
)
from repro.ip.packet import IPPacket, RawPayload
from repro.ip.protocols import CONVERGENCE_PROBE
from repro.ip.protocols import ICMP as PROTO_ICMP
from repro.ip.protocols import MHRP as PROTO_MHRP
from repro.ip.protocols import UDP as PROTO_UDP
from repro.ip.routing import RoutingTable
from repro.transport.segments import UDPDatagram
from repro.wire.codec import OpaqueICMP, decode_packet, encode_packet
from repro.wire.roles import (
    AgentAdvertisementInfo,
    CacheAgentRole,
    DEFAULT_CACHE_CAPACITY,
    EngineRolePort,
    ForeignAgentRole,
    HomeAgentRole,
    MobileHostRole,
    Registrar,
    UpdateRateLimiter,
)

LIMITED_BROADCAST = IPAddress("255.255.255.255")


# ----------------------------------------------------------------------
# Engine IO vocabulary
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Datagram:
    """One serialized IP datagram the engine wants transmitted.

    ``next_hop`` is the link-layer destination the driver must resolve to
    an endpoint on the interface's medium; for a broadcast the driver
    fans out to every other member instead.
    """

    data: bytes
    iface: str
    next_hop: IPAddress
    broadcast: bool = False


@dataclass(frozen=True, slots=True)
class TimerOp:
    """Arm (``delay`` seconds from now) or cancel (``delay is None``) the
    node-scoped timer named ``key``."""

    key: str
    delay: Optional[float]


@dataclass(slots=True)
class EngineEvent:
    """One protocol event.

    ``category`` uses the simulator tracer's vocabulary (``mhrp.register``,
    ``mhrp.tunnel``, ``mhrp.update``, ``mhrp.loop``) for protocol events,
    ``packet.*`` for packet lifecycle (these carry the decoded packet so a
    driver can feed :class:`~repro.telemetry.health.ProtocolHealth`), and
    ``health.*`` for direct telemetry feeds with no tracer equivalent.
    """

    category: str
    node: str
    detail: Dict[str, object] = field(default_factory=dict)
    packet: Optional[IPPacket] = None


class EngineOutput:
    """Everything one engine turn produced."""

    __slots__ = ("datagrams", "timers", "events")

    def __init__(self) -> None:
        self.datagrams: List[Datagram] = []
        self.timers: List[TimerOp] = []
        self.events: List[EngineEvent] = []

    def extend(self, other: "EngineOutput") -> None:
        self.datagrams.extend(other.datagrams)
        self.timers.extend(other.timers)
        self.events.extend(other.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EngineOutput {len(self.datagrams)} datagrams "
            f"{len(self.timers)} timers {len(self.events)} events>"
        )


@dataclass
class EngineInterface:
    """One attachment point: a name, an address, a prefix."""

    name: str
    ip_address: IPAddress
    network: IPNetwork
    #: Extra addresses accepted as "mine" (the own-foreign-agent
    #: temporary address rides here, mirroring interface aliases).
    alias_addresses: set = field(default_factory=set)


# ----------------------------------------------------------------------
# The node engine
# ----------------------------------------------------------------------

class NodeEngine:
    """The IP layer of one node as a sans-io state machine.

    Mirrors :class:`repro.ip.node.IPNode`'s observable behaviour —
    protocol dispatch, ICMP echo auto-reply (with RFC 1122 silent discard
    of unhandled types), hookable outbound/transit stages, TTL handling,
    ICMP error suppression rules — minus ARP and the link layer, which
    drivers own.

    Entry points (each returns the :class:`EngineOutput` of the turn):

    - :meth:`datagram_received` — bytes arrived on an interface;
    - :meth:`timer_fired` — a previously requested timer expired;
    - :meth:`command` — a local instruction ("ping", "attach", ...).
    """

    def __init__(
        self,
        name: str,
        forwarding: bool = False,
        rng: Optional[random.Random] = None,
        ident_allocator: Optional[Callable[[], int]] = None,
    ) -> None:
        self.name = name
        self.forwarding = forwarding
        self.up = True
        self.now = 0.0
        self.rng = rng or random.Random(0)
        self._ident = ident_allocator or SeqAllocator()
        self.interfaces: Dict[str, EngineInterface] = {}
        self.routing_table = RoutingTable()
        self.counters: Dict[str, int] = {
            "originated": 0, "forwarded": 0, "delivered": 0,
            "dropped": 0, "tunneled": 0, "diverted": 0,
        }
        self._protocol_handlers: Dict[int, Callable] = {
            PROTO_ICMP: self._handle_icmp,
        }
        self._icmp_listeners: Dict[int, List[Callable]] = {}
        self._error_listeners: List[Callable] = []
        #: RFC 1812 routers quote as much of the offending packet as fits
        #: (the sim's IPNode defaults to the same) — required for
        #: Section 4.5 tunnel-error reversal to work over real bytes.
        self.icmp_quote_full = True
        self._timers: Dict[str, Callable[[], None]] = {}
        self._commands: Dict[str, Callable] = {
            "crash": self._cmd_crash,
            "reboot": self._cmd_reboot,
        }
        self.outbound_hooks: List[Callable] = []
        self.transit_hooks: List[Callable] = []
        self.reboot_hooks: List[Callable[[], None]] = []
        #: Run once inside the driver's boot turn (periodic advertisers
        #: start here — the simulator starts them at construction, but an
        #: engine constructor runs outside any turn, so its emissions
        #: would land in an output nobody collects).
        self.start_hooks: List[Callable[[], None]] = []
        #: Role engines attached to this node, in attach order (the
        #: snapshot contract walks this).
        self.roles: Dict[str, object] = {}
        self._out: EngineOutput = EngineOutput()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_interface(
        self, name: str, address: IPAddress | str, network: IPNetwork | str
    ) -> EngineInterface:
        iface = EngineInterface(
            name=name,
            ip_address=IPAddress(address),
            network=network if isinstance(network, IPNetwork) else IPNetwork(network),
        )
        self.interfaces[name] = iface
        self.routing_table.add_connected(iface.network, name)
        return iface

    def set_gateway(self, gateway: IPAddress | str, iface_name: Optional[str] = None) -> None:
        name = iface_name or next(iter(self.interfaces))
        self.routing_table.set_default(IPAddress(gateway), name)

    @property
    def primary_interface(self) -> EngineInterface:
        return next(iter(self.interfaces.values()))

    @property
    def primary_address(self) -> IPAddress:
        return self.primary_interface.ip_address

    def has_address(self, address: IPAddress) -> bool:
        for iface in self.interfaces.values():
            if iface.ip_address == address or address in iface.alias_addresses:
                return True
        return False

    def register_protocol(self, protocol: int, handler: Callable) -> None:
        if protocol in self._protocol_handlers and protocol != PROTO_ICMP:
            raise RegistrationError(
                f"{self.name}: protocol {protocol} already handled"
            )
        self._protocol_handlers[protocol] = handler

    def on_icmp(self, icmp_type: int, listener: Callable) -> None:
        self._icmp_listeners.setdefault(icmp_type, []).append(listener)

    def on_icmp_error(self, listener: Callable) -> None:
        self._error_listeners.append(listener)

    def on_command(self, name: str, handler: Callable) -> None:
        self._commands[name] = handler

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def _begin(self, now: float) -> EngineOutput:
        self.now = now
        self._out = EngineOutput()
        return self._out

    def datagram_received(self, now: float, data: bytes, iface_name: str) -> EngineOutput:
        out = self._begin(now)
        if not self.up or iface_name not in self.interfaces:
            return out
        try:
            packet = decode_packet(data)
        except PacketError as exc:
            self.counters["dropped"] += 1
            self._out.events.append(EngineEvent(
                category="packet.dropped", node=self.name,
                detail={"reason": "decode-error", "error": str(exc)},
            ))
            return out
        self._ingress(packet, iface_name)
        return out

    def timer_fired(self, now: float, key: str) -> EngineOutput:
        out = self._begin(now)
        if not self.up:
            return out
        callback = self._timers.pop(key, None)
        if callback is not None:
            callback()
        return out

    def command(self, now: float, name: str, **kwargs) -> EngineOutput:
        out = self._begin(now)
        handler = self._commands.get(name)
        if handler is None:
            raise RegistrationError(f"{self.name}: unknown command {name!r}")
        handler(**kwargs)
        return out

    def start(self, now: float = 0.0) -> EngineOutput:
        """The boot turn: run everything that the simulator runs at
        construction time (periodic advertisers, initial broadcasts)."""
        out = self._begin(now)
        for hook in list(self.start_hooks):
            hook()
        return out

    # ------------------------------------------------------------------
    # Timers (requested from, and delivered by, the driver)
    # ------------------------------------------------------------------
    def set_timer(self, key: str, delay: float, callback: Callable[[], None]) -> None:
        """Arm a one-shot node timer; re-arm by calling again."""
        self._timers[key] = callback
        self._out.timers.append(TimerOp(key=key, delay=delay))

    def cancel_timer(self, key: str) -> None:
        if self._timers.pop(key, None) is not None:
            self._out.timers.append(TimerOp(key=key, delay=None))

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def trace(self, category: str, **detail) -> None:
        """Emit a protocol event in the simulator tracer's vocabulary."""
        self._out.events.append(
            EngineEvent(category=category, node=self.name, detail=detail)
        )

    def health(self, kind: str, **detail) -> None:
        """Emit a direct telemetry feed (no tracer equivalent)."""
        self._out.events.append(
            EngineEvent(category=f"health.{kind}", node=self.name, detail=detail)
        )

    def _packet_event(self, kind: str, packet: IPPacket, **detail) -> None:
        self._out.events.append(EngineEvent(
            category=f"packet.{kind}", node=self.name,
            detail=detail, packet=packet,
        ))

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _ingress(self, packet: IPPacket, iface_name: str) -> None:
        if packet.dst == LIMITED_BROADCAST or self.has_address(packet.dst):
            self._deliver_local(packet, iface_name)
            return
        if not self.forwarding:
            self.drop(packet, "not-for-me")
            return
        current = packet
        for hook in list(self.transit_hooks):
            result = hook(current, iface_name)
            if result is CONSUMED:
                return
            if result is not None:
                current = result
        self.forward(current)

    def _deliver_local(self, packet: IPPacket, iface_name: Optional[str]) -> None:
        self.counters["delivered"] += 1
        self._packet_event("delivered", packet)
        handler = self._protocol_handlers.get(packet.protocol)
        if handler is not None:
            handler(packet, iface_name)

    def forward(self, packet: IPPacket) -> None:
        """The TTL/route stage (also the re-injection point: a packet
        sent here keeps its remaining TTL, matching
        ``IPNode.forward_injected``)."""
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.drop(packet, "ttl-expired")
            self.send_error(
                ICMPError.time_exceeded(packet, quote_full=self.icmp_quote_full)
            )
            return
        self._route_and_transmit(packet, transit=True)

    # Alias kept for symmetry with the IPNode API the agents use.
    forward_injected = forward

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def next_uid(self) -> int:
        """0: an engine packet takes its uid from the IP identification
        it is stamped with when sent."""
        return 0

    def send(self, packet: IPPacket) -> None:
        """Originate a packet (runs the outbound hook stage)."""
        self._stamp(packet)
        self.counters["originated"] += 1
        self._packet_event("sent", packet)
        current = packet
        for hook in list(self.outbound_hooks):
            result = hook(current)
            if result is CONSUMED:
                return
            if result is not None:
                current = result
        self._route_and_transmit(current, transit=False)

    def send_icmp(self, dst: IPAddress, message) -> None:
        self.send(IPPacket(
            src=self.primary_address, dst=IPAddress(dst),
            protocol=PROTO_ICMP, payload=message,
        ))

    def send_broadcast(self, iface_name: str, protocol: int, payload) -> None:
        """Limited broadcast on one link (TTL 1, bypasses routing and the
        outbound hooks, like ``IPNode.send_broadcast``)."""
        iface = self.interfaces[iface_name]
        packet = IPPacket(
            src=iface.ip_address, dst=LIMITED_BROADCAST,
            protocol=protocol, payload=payload, ttl=1,
        )
        self._stamp(packet)
        self.counters["originated"] += 1
        self._transmit(iface_name, LIMITED_BROADCAST, packet, broadcast=True)

    def transmit_on_link(self, iface_name: str, dst: IPAddress, packet: IPPacket) -> None:
        """Hand a packet straight to one link, bypassing route lookup
        (the foreign agent's last hop to a visitor)."""
        self._packet_event("forwarded", packet)
        self._transmit(iface_name, dst, packet)

    def _route_and_transmit(self, packet: IPPacket, transit: bool) -> None:
        route = self.routing_table.lookup(packet.dst)
        if route is None:
            self.drop(packet, "no-route")
            if transit:
                self.send_error(
                    ICMPError.unreachable(packet, quote_full=self.icmp_quote_full)
                )
            return
        if transit:
            self.counters["forwarded"] += 1
            self._packet_event("forwarded", packet)
        next_hop = route.next_hop if route.next_hop is not None else packet.dst
        self._transmit(route.interface_name, next_hop, packet)

    def _transmit(
        self, iface_name: str, next_hop: IPAddress, packet: IPPacket,
        broadcast: bool = False,
    ) -> None:
        self._out.datagrams.append(Datagram(
            data=encode_packet(packet), iface=iface_name,
            next_hop=next_hop, broadcast=broadcast,
        ))

    def _stamp(self, packet: IPPacket) -> None:
        if not packet.identification:
            packet.identification = self._ident()
        packet.uid = packet.identification

    def drop(self, packet: IPPacket, reason: str) -> None:
        self.counters["dropped"] += 1
        self._packet_event("dropped", packet, reason=reason)

    # ------------------------------------------------------------------
    # ICMP
    # ------------------------------------------------------------------
    def _handle_icmp(self, packet: IPPacket, iface_name: Optional[str]) -> None:
        message = packet.payload
        icmp_type = getattr(message, "icmp_type", None)
        if icmp_type == TYPE_ECHO_REQUEST and self.has_address(packet.dst):
            reply = EchoMessage.reply_to(message)
            self.send(IPPacket(
                src=packet.dst, dst=packet.src,
                protocol=PROTO_ICMP, payload=reply,
            ))
        if isinstance(message, ICMPError) or (
            isinstance(message, OpaqueICMP) and message.is_error
        ):
            for error_listener in list(self._error_listeners):
                error_listener(packet, message)
        for listener in self._icmp_listeners.get(icmp_type, []):
            listener(packet, message)
        # Unknown types without listeners: silent discard (RFC 1122).

    def send_error(self, error: ICMPError) -> None:
        """Send an ICMP error about ``error.quoted``, with the standard
        suppressions (never about ICMP errors, broadcasts, or packets
        without a valid unicast source)."""
        quoted = error.quoted
        if quoted is None:
            return
        # Same cap the sim's _quote_cap computes for 1500-byte media:
        # min(1500, 576) - 28.  The engine has no MTU knowledge, so it
        # assumes the shipped topologies' uniform Ethernet-class links.
        error.max_quote = 548
        if quoted.src.is_zero or quoted.src == LIMITED_BROADCAST:
            return
        if isinstance(quoted.payload, ICMPError):
            return
        if quoted.dst == LIMITED_BROADCAST:
            return
        self.send_icmp(quoted.src, error)

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def _cmd_crash(self) -> None:
        self.up = False
        for key in list(self._timers):
            self.cancel_timer(key)
        self.trace("fault", event="crash")

    def _cmd_reboot(self) -> None:
        self.up = True
        self.trace("fault", event="reboot")
        for hook in list(self.reboot_hooks):
            hook()

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able protocol state: node flags, routes, counters, and
        every attached role (timers are driver state, not engine state —
        a restored engine re-arms them through its roles)."""
        return {
            "up": self.up,
            "now": self.now,
            "counters": dict(self.counters),
            "routing_table": self.routing_table.state_dict(),
            "roles": {
                name: role.state_dict() for name, role in self.roles.items()
            },
        }

    def load_state(self, state: dict) -> None:
        self.up = bool(state["up"])
        self.now = float(state["now"])
        self.counters.update({k: int(v) for k, v in state["counters"].items()})
        self.routing_table.load_state(state["routing_table"])
        for name, role_state in state["roles"].items():
            self.roles[name].load_state(role_state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodeEngine {self.name} {'up' if self.up else 'down'}>"


# ----------------------------------------------------------------------
# Role engines — the repro.wire.roles roles over an EngineRolePort
# ----------------------------------------------------------------------

class CacheAgentEngine(CacheAgentRole):
    """The cache-agent role on a :class:`NodeEngine` — the same
    :class:`~repro.wire.roles.CacheAgentRole` the simulator's
    :class:`repro.core.cache_agent.CacheAgent` runs, over the engine
    port."""

    def __init__(
        self, node: NodeEngine, capacity: int = DEFAULT_CACHE_CAPACITY,
        examine_forwarded: bool = False, enabled: bool = True,
    ) -> None:
        super().__init__(
            EngineRolePort.of(node), node, capacity=capacity,
            examine_forwarded=examine_forwarded, enabled=enabled,
        )


class HomeAgentEngine(HomeAgentRole):
    """The home-agent role on a :class:`NodeEngine`.

    Interception needs no link-layer claim on this substrate: the engine
    home agent is on-path (its router sits between the backbone and the
    home LAN in every shipped topology), so the role's proxy-ARP calls
    land on the port's no-ops.
    """

    def __init__(
        self, node: NodeEngine, home_iface_name: str,
        store: Optional[LocationStore] = None, advertise: bool = True,
        max_previous_sources: int = DEFAULT_MAX_PREVIOUS_SOURCES,
        update_limiter: Optional[UpdateRateLimiter] = None,
    ) -> None:
        super().__init__(
            EngineRolePort.of(node), node, home_iface_name, store=store,
            max_previous_sources=max_previous_sources,
            update_limiter=update_limiter,
        )
        self._wire(advertise=advertise)


class ForeignAgentEngine(ForeignAgentRole):
    """The foreign-agent role on a :class:`NodeEngine`.

    ``believe_home_agent=False`` (the Section 5.2 local-query variant)
    works on this substrate too: the presence query is an ICMP echo
    probe on the local interface — the engine's stand-in for the
    simulator's ARP query, with the same give-up-then-look-again
    schedule.
    """

    def __init__(
        self, node: NodeEngine, local_iface_name: str,
        cache_agent: Optional[CacheAgentEngine] = None,
        keep_forwarding_pointers: bool = True,
        believe_home_agent: bool = True, advertise: bool = True,
        max_previous_sources: int = DEFAULT_MAX_PREVIOUS_SOURCES,
        update_limiter: Optional[UpdateRateLimiter] = None,
    ) -> None:
        super().__init__(
            EngineRolePort.of(node), node, local_iface_name,
            cache_agent=cache_agent,
            keep_forwarding_pointers=keep_forwarding_pointers,
            believe_home_agent=believe_home_agent, advertise=advertise,
            max_previous_sources=max_previous_sources,
            update_limiter=update_limiter,
        )
        self._wire()


class MobileHostEngine(MobileHostRole, NodeEngine):
    """A mobile host as a sans-io engine: the
    :class:`~repro.wire.roles.MobileHostRole` mixin over
    :class:`NodeEngine`, exactly how
    :class:`repro.core.mobile_host.MobileHost` mixes it over the
    simulator's ``Host``.

    Movement is a driver concern (re-pointing the interface at a new
    medium); the engine sees it as the ``attach`` / ``attach_home`` /
    ``disconnect`` commands and reacts exactly like the simulated host:
    solicit, hear an advertisement, run the Section 3 notification
    sequence through its reliable registrar.
    """

    def __init__(
        self,
        name: str,
        home_address: IPAddress | str,
        home_network: IPNetwork | str,
        home_agent: IPAddress | str,
        home_gateway: IPAddress | str | None = None,
        use_sender_cache: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(name, forwarding=False, **kwargs)
        self.home_address = IPAddress(home_address)
        self.home_network = (
            home_network if isinstance(home_network, IPNetwork)
            else IPNetwork(home_network)
        )
        self.home_agent = IPAddress(home_agent)
        self.home_gateway = IPAddress(
            home_gateway if home_gateway is not None else home_agent
        )
        self.iface = self.add_interface(self.WIFI, self.home_address, self.home_network)
        self._init_mobile_state(EngineRolePort.of(self))
        self.next_seq = SeqAllocator()
        self.registrar = Registrar(self.port, self)
        self.cache_agent: Optional[CacheAgentEngine] = (
            CacheAgentEngine(self) if use_sender_cache else None
        )
        self.register_protocol(PROTO_MHRP, self._on_mhrp_packet)
        #: Transport sinks, mirroring the session's per-host receivers:
        #: flow datagrams and convergence probes count as received and
        #: are otherwise discarded (delivery is the signal).
        self.flow_datagrams = 0
        self.probes_received = 0
        self.register_protocol(PROTO_UDP, self._on_flow_datagram)
        self.register_protocol(CONVERGENCE_PROBE, self._on_probe)
        self.on_icmp(TYPE_ROUTER_ADVERTISEMENT, self._on_advertisement)
        self.on_command("attach", self._cmd_attach)
        self.on_command("attach_home", partial(self._cmd_attach, home=True))
        self.on_command("disconnect", self._cmd_disconnect)
        self.on_command("solicit", self._cmd_solicit)
        self.roles["mobile_host"] = _MobileHostRoleState(self)

    # -- substrate hooks for the role ------------------------------------
    def _redeliver_local(self, packet: IPPacket, iface) -> None:
        self._deliver_local(packet, iface)

    # -- transport sinks -------------------------------------------------
    def _on_flow_datagram(self, packet: IPPacket, iface) -> None:
        self.flow_datagrams += 1

    def _on_probe(self, packet: IPPacket, iface) -> None:
        self.probes_received += 1

    # -- movement commands (the driver moved the medium already) ---------
    def _cmd_attach(self, home: bool = False, solicit: bool = True) -> None:
        self._record_move()
        if solicit:
            self._solicit()

    def _cmd_solicit(self) -> None:
        self._solicit()

    def _cmd_disconnect(self) -> None:
        self._disconnect_protocol()

    # -- agent discovery (advertisements arrive as decoded ICMP) ---------
    def _on_advertisement(self, packet: IPPacket, message) -> None:
        if not isinstance(message, RouterAdvertisement):
            return
        info = AgentAdvertisementInfo(
            agent=message.router_address,
            is_home_agent=message.is_home_agent,
            is_foreign_agent=message.is_foreign_agent,
            boot_id=message.boot_id or message.code,
            heard_at=self.now,
            lifetime=message.lifetime,
        )
        self._on_agent_heard(info)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MobileHostEngine {self.name} {self.home_address} ({self.state})>"


class _MobileHostRoleState:
    """Snapshot adapter exposing the mobile host's protocol variables
    through the role state_dict contract."""

    def __init__(self, host: MobileHostEngine) -> None:
        self.host = host

    def state_dict(self) -> dict:
        h = self.host
        return {
            "state": h.state,
            "current_foreign_agent": (
                str(h.current_foreign_agent)
                if h.current_foreign_agent is not None else None
            ),
            "temp_address": str(h.temp_address) if h.temp_address is not None else None,
            "fa_boot_ids": {str(a): b for a, b in h._fa_boot_ids.items()},
            "limiter": h.limiter.state_dict(),
            "last_fa_heard": h._last_fa_heard,
            "fa_lifetime": h._fa_lifetime,
            "moves": h.moves,
            "registrations": h.registrations,
            "silence_disconnects": h.silence_disconnects,
            "seq": h.next_seq.last,
        }

    def load_state(self, state: dict) -> None:
        h = self.host
        h.state = state["state"]
        h.current_foreign_agent = (
            IPAddress(state["current_foreign_agent"])
            if state["current_foreign_agent"] else None
        )
        h.temp_address = (
            IPAddress(state["temp_address"]) if state["temp_address"] else None
        )
        h._fa_boot_ids = {
            IPAddress(a): int(b) for a, b in state["fa_boot_ids"].items()
        }
        h.limiter.load_state(state["limiter"])
        h._last_fa_heard = float(state["last_fa_heard"])
        h._fa_lifetime = float(state["fa_lifetime"])
        h.moves = int(state["moves"])
        h.registrations = int(state["registrations"])
        h.silence_disconnects = int(state["silence_disconnects"])
        h.next_seq.last = int(state["seq"])


class CorrespondentEngine(NodeEngine):
    """A stationary MHRP-capable correspondent: a host plus a sender-side
    cache agent and the transport-side scenario commands — ``ping``,
    constant-bit-rate UDP ``flow``, and cache-convergence ``probe``
    (mirrors :class:`repro.core.mobile_host.StationaryCorrespondent`
    driving :class:`repro.workloads.traffic.CBRStream` and the session's
    probe sender)."""

    #: First source port handed to flows (the simulator's UDP stack
    #: allocates its ephemeral ports from the same base).
    FLOW_PORT_BASE = 49152

    def __init__(self, name: str, use_cache: bool = True, **kwargs) -> None:
        super().__init__(name, forwarding=False, **kwargs)
        self.cache_agent: Optional[CacheAgentEngine] = (
            CacheAgentEngine(self) if use_cache else None
        )
        self._echo_seq = 0
        self.echo_replies = 0
        self.probes_sent = 0
        #: flow id -> mutable flow state (dst/interval/count/port/sent).
        self._flow_state: Dict[int, dict] = {}
        self.on_command("ping", self._cmd_ping)
        self.on_command("flow", self._cmd_flow)
        self.on_command("probe", self._cmd_probe)
        self.on_icmp(TYPE_ECHO_REPLY, self._on_echo_reply)

    def _cmd_ping(self, dst: IPAddress | str, data: bytes = b"") -> None:
        self._echo_seq += 1
        # Deterministic identifier (the simulated Host uses id(self),
        # which never appears in traces or conformance projections).
        identifier = sum(ord(c) for c in self.name) & 0xFFFF
        request = EchoMessage.request(
            identifier=identifier, sequence=self._echo_seq, data=data
        )
        self.send_icmp(IPAddress(dst), request)

    def _on_echo_reply(self, packet: IPPacket, message) -> None:
        self.echo_replies += 1
        self.trace(
            "icmp.echo", event="reply-received",
            src=str(packet.src), sequence=getattr(message, "sequence", None),
        )

    # -- transport flows (scenario ``flow`` entries) ---------------------
    def _cmd_flow(
        self,
        dst: IPAddress | str,
        interval: float,
        count: int,
        port: int = 40000,
        payload_size: int = 64,
        flow_id: int = 0,
    ) -> None:
        """Start a CBR UDP flow: ``count`` datagrams, one every
        ``interval`` seconds, sequence numbers in the payload — the wire
        image of :class:`~repro.workloads.traffic.CBRStream`."""
        self._flow_state[flow_id] = {
            "dst": IPAddress(dst),
            "interval": float(interval),
            "count": int(count),
            "port": int(port),
            "payload_size": max(int(payload_size), 8),
            "sent": 0,
        }
        self._flow_tick(flow_id)

    def _flow_tick(self, flow_id: int) -> None:
        flow = self._flow_state.get(flow_id)
        if flow is None or flow["sent"] >= flow["count"]:
            return
        seq = flow["sent"]
        flow["sent"] += 1
        payload = seq.to_bytes(8, "big") + b"\x00" * (flow["payload_size"] - 8)
        self.send(IPPacket(
            src=self.primary_address,
            dst=flow["dst"],
            protocol=PROTO_UDP,
            payload=UDPDatagram(
                src_port=self.FLOW_PORT_BASE + flow_id,
                dst_port=flow["port"],
                data=payload,
            ),
        ))
        if flow["sent"] < flow["count"]:
            self.set_timer(
                f"flow-{flow_id}", flow["interval"],
                partial(self._flow_tick, flow_id),
            )

    def _cmd_probe(self, dst: IPAddress | str) -> None:
        """One cache-convergence probe (scenario ``probe`` entries):
        delivery is the signal, the payload is discarded."""
        self.probes_sent += 1
        self.send(IPPacket(
            src=self.primary_address,
            dst=IPAddress(dst),
            protocol=CONVERGENCE_PROBE,
            payload=RawPayload(b"convergence-probe"),
        ))


class EngineTunnelErrorHandler:
    """Section 4.5 over real bytes (mirrors
    :class:`repro.core.icmp_handling.TunnelErrorHandler`).

    Unlike the simulator, where the quoted packet is always a full Python
    object and truncation is *modeled*, the live wire genuinely truncates:
    a partial quote decodes as :class:`~repro.wire.codec.OpaqueICMP`, so
    the "too little quoted" branch here reads the mobile-host address
    straight out of the quoted MHRP header bytes — which is exactly all
    the paper says can be salvaged ("little can be done ... beyond
    deleting its cache entry").
    """

    def __init__(
        self, node: NodeEngine, cache_agent: Optional[CacheAgentEngine] = None,
        delete_cache_on_unreachable: bool = True,
    ) -> None:
        self.node = node
        self.cache_agent = cache_agent
        self.delete_cache_on_unreachable = delete_cache_on_unreachable
        self.errors_reversed = 0
        self.errors_unparseable = 0
        node.on_icmp_error(self._on_error)

    def _on_error(self, packet: IPPacket, error) -> None:
        if isinstance(error, OpaqueICMP):
            self._on_opaque_error(error)
            return
        if not isinstance(error, ICMPError):
            return
        quoted = error.quoted
        if quoted is None or quoted.protocol != PROTO_MHRP:
            return
        payload = quoted.payload
        if not isinstance(payload, MHRPPayload):
            return
        header = payload.header
        mobile_host = header.mobile_host
        self._maybe_delete_cache(error.icmp_type, mobile_host)
        if not error.quote_covers_mhrp(header.byte_length):
            self.errors_unparseable += 1
            self.node.trace(
                "mhrp.tunnel", event="error-unparseable",
                mobile_host=str(mobile_host),
            )
            return
        if not header.previous_sources:
            _reverse_encapsulation(quoted, original_sender=quoted.src)
            self.errors_reversed += 1
            return
        popped = header.previous_sources.pop()
        if not header.previous_sources:
            _reverse_encapsulation(quoted, original_sender=popped)
        else:
            quoted.src = popped
            quoted.dst = (
                packet.dst if self.node.has_address(packet.dst)
                else self.node.primary_address
            )
        self.errors_reversed += 1
        self.node.trace(
            "mhrp.tunnel", event="error-reversed",
            to=str(popped), mobile_host=str(mobile_host),
        )
        resend = ICMPError(
            icmp_type=error.icmp_type, code=error.code, quoted=quoted,
            quote_full=error.quote_full, max_quote=error.max_quote,
        )
        self.node.send_icmp(popped, resend)

    def _on_opaque_error(self, error: OpaqueICMP) -> None:
        """A truncated quote: recover the mobile host from the MHRP fixed
        header bytes if the quote reaches that far (IP header 20 + fixed
        MHRP header 8)."""
        if not error.is_error:
            return
        body = error.body
        if len(body) < 28 or (body[0] >> 4) != 4 or body[9] != PROTO_MHRP:
            return
        mobile_host = IPAddress.from_bytes(body[24:28])
        self._maybe_delete_cache(error.icmp_type, mobile_host)
        self.errors_unparseable += 1
        self.node.trace(
            "mhrp.tunnel", event="error-unparseable",
            mobile_host=str(mobile_host),
        )

    def _maybe_delete_cache(self, icmp_type: int, mobile_host: IPAddress) -> None:
        from repro.ip.icmp import TYPE_DEST_UNREACHABLE

        if (
            self.delete_cache_on_unreachable
            and icmp_type == TYPE_DEST_UNREACHABLE
            and self.cache_agent is not None
        ):
            self.cache_agent.cache.delete(mobile_host)


def _reverse_encapsulation(quoted: IPPacket, original_sender: IPAddress) -> None:
    payload = quoted.payload
    assert isinstance(payload, MHRPPayload)
    header = payload.header
    quoted.src = original_sender
    quoted.dst = header.mobile_host
    quoted.protocol = header.orig_protocol
    quoted.payload = payload.inner


# ----------------------------------------------------------------------
# The engine world
# ----------------------------------------------------------------------

class EngineWorld:
    """A set of node engines plus everything a driver needs to connect
    them: media membership, an address directory, and the shared
    allocators that keep identifiers unique across the world."""

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.nodes: Dict[str, NodeEngine] = {}
        #: medium name -> list of (node name, iface name) attachments.
        self.media: Dict[str, List[Tuple[str, str]]] = {}
        self._ident = SeqAllocator()

    # -- allocators shared by every node ---------------------------------
    def ident_allocator(self) -> Callable[[], int]:
        return self._ident

    def node_rng(self, name: str) -> random.Random:
        """A per-node rng derived deterministically from the world seed
        (string seeding is stable across processes, unlike ``hash``)."""
        return random.Random(f"{self.seed}:{name}")

    # -- construction ----------------------------------------------------
    def add_node(self, node: NodeEngine) -> NodeEngine:
        if node.name in self.nodes:
            raise RegistrationError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        return node

    def attach(self, medium: str, node_name: str, iface_name: str) -> None:
        """Join ``node_name``'s interface to ``medium`` (idempotent)."""
        members = self.media.setdefault(medium, [])
        entry = (node_name, iface_name)
        if entry not in members:
            members.append(entry)

    def detach(self, node_name: str, iface_name: str) -> None:
        """Remove the interface from whatever medium it is on."""
        for members in self.media.values():
            if (node_name, iface_name) in members:
                members.remove((node_name, iface_name))

    def medium_of(self, node_name: str, iface_name: str) -> Optional[str]:
        for medium, members in self.media.items():
            if (node_name, iface_name) in members:
                return medium
        return None

    def resolve(
        self, medium: str, address: IPAddress
    ) -> Optional[Tuple[str, str]]:
        """The (node, iface) on ``medium`` that owns ``address``."""
        for node_name, iface_name in self.media.get(medium, []):
            node = self.nodes[node_name]
            iface = node.interfaces.get(iface_name)
            if iface is None:
                continue
            if iface.ip_address == address or address in iface.alias_addresses:
                return node_name, iface_name
        return None

    def state_dict(self) -> dict:
        """JSON-able world state: every node plus medium membership."""
        return {
            "seed": self.seed,
            "media": {m: list(map(list, v)) for m, v in self.media.items()},
            "nodes": {name: node.state_dict() for name, node in self.nodes.items()},
        }

    def load_state(self, state: dict) -> None:
        self.media = {
            m: [tuple(e) for e in v] for m, v in state["media"].items()
        }
        for name, node_state in state["nodes"].items():
            self.nodes[name].load_state(node_state)
