"""The MHRP protocol roles — one implementation for every backend.

This module is the single source of truth for per-message protocol
behaviour: registration dispatch and reliable retransmission (Section 3),
agent advertisement/discovery (Section 3), the cache agent (Sections 2,
4.3), the home agent (Sections 2, 3, 5.1, 5.2), the foreign agent
(Sections 2, 4.4, 5.1, 5.2, 5.3) and the mobile host's notification
sequence (Sections 1–3, 6).

Each role runs unchanged on two node substrates:

- the simulator's :class:`~repro.ip.node.IPNode` (via
  :class:`SimRolePort` — timers become simulator :class:`Timer`\\ s,
  traces go to the :class:`Tracer`, telemetry to ``sim.telemetry``,
  neighbour verification to the simulated ARP service);
- the sans-io :class:`~repro.wire.engine.NodeEngine` (via
  :class:`EngineRolePort` — timers become :class:`TimerOp` requests,
  traces become :class:`EngineEvent`\\ s, neighbour verification uses an
  ICMP echo probe because there is no ARP on the wire backends).

The split is deliberate: everything that *decides* lives here; the two
ports only translate the handful of surfaces where the substrates
genuinely differ.  APIs the substrates share (``send``, ``send_icmp``,
``send_broadcast``, ``register_protocol``, ``on_icmp``, ``interfaces``,
``routing_table``, ``transmit_on_link``, ``forward_injected``, ...) are
called directly on the node.

The simulator-facing classes in :mod:`repro.core` are thin adapters over
these roles; the engine classes in :mod:`repro.wire.engine` subclass
them directly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.core.encapsulation import MHRPPayload, decapsulate, encapsulate, retunnel
from repro.core.header import DEFAULT_MAX_PREVIOUS_SOURCES
from repro.core.persistence import LocationDatabase, LocationStore, MemoryStore
from repro.core.registration import (
    ACK,
    FA_CONNECT,
    FA_DISCONNECT,
    HA_REGISTER,
    REG_MAX_RETRIES,
    REG_RETRY_INTERVAL,
    RegistrationMessage,
    StaleControlFilter,
)
from repro.errors import RegistrationError
from repro.ip.address import IPAddress
from repro.ip.icmp import (
    EchoMessage,
    ICMPError,
    LocationUpdate,
    RouterAdvertisement,
    RouterSolicitation,
    TYPE_ECHO_REPLY,
    TYPE_LOCATION_UPDATE,
    TYPE_ROUTER_SOLICITATION,
)
from repro.ip.node import CONSUMED
from repro.ip.packet import IPPacket
from repro.ip.protocols import ICMP as PROTO_ICMP
from repro.ip.protocols import MHRP as PROTO_MHRP
from repro.ip.protocols import MOBILE_CONTROL
from repro.link.frame import HWAddress
from repro.wire.logic import (
    AT_HOME,
    AWAY,
    DEPARTURE_GRACE,
    DISCONNECTED,
    DISCONNECTED_ADDRESS,
    HOME_DROP_DISCONNECTED,
    HOME_PASS,
    HOME_RECOVER,
    decide_home_tunneled_arrival,
    forwarding_pointer_target,
    is_control_traffic,
    may_send_update,
    mh_reported_location,
    retunnel_target,
    should_recover_visitor,
    stale_chain,
)

#: Default advertisement period in seconds (RFC 1256 allows 3..1800;
#: mobility wants it snappy).
DEFAULT_ADVERT_PERIOD = 2.0
#: Advertised lifetime: a silent agent is presumed gone after this long.
DEFAULT_ADVERT_LIFETIME = 6.0

#: Default cache capacity (entries); the cache is finite by design and
#: any replacement policy is allowed (Section 2) — this one is LRU.
DEFAULT_CACHE_CAPACITY = 256

#: Minimum spacing between location updates to one destination
#: (Section 4.3 requires *some* rate limit, like the ARP request limit).
DEFAULT_UPDATE_MIN_INTERVAL = 1.0

#: How long after an ARP-style presence probe the Section 5.2 local-query
#: variant looks for an answer (the simulated ARP retry schedule gives up
#: just before this).
QUERY_VERIFY_DELAY = 4.0


# ----------------------------------------------------------------------
# Backend ports
# ----------------------------------------------------------------------

class SimRolePort:
    """Role-facing surface of a simulator :class:`~repro.ip.node.IPNode`.

    One port per node (cached on the node), so role timer keys share a
    single per-node namespace exactly like the engine's ``set_timer``.
    """

    __slots__ = ("node", "_timers", "_callbacks")

    _ATTR = "_mhrp_role_port"

    def __init__(self, node) -> None:
        self.node = node
        self._timers: Dict[str, object] = {}
        self._callbacks: Dict[str, Callable[[], None]] = {}

    @classmethod
    def of(cls, node) -> "SimRolePort":
        port = getattr(node, cls._ATTR, None)
        if port is None:
            port = cls(node)
            setattr(node, cls._ATTR, port)
        return port

    # -- time / randomness --------------------------------------------
    @property
    def now(self) -> float:
        return self.node.sim.now

    @property
    def rng(self):
        return self.node.sim.rng

    # -- observability ------------------------------------------------
    def trace(self, category: str, **detail) -> None:
        self.node.sim.trace(category, self.node.name, **detail)

    def drop(self, packet: IPPacket, reason: str) -> None:
        self.node.dataplane.drop(packet, reason)

    def send_error(self, error: ICMPError) -> None:
        self.node._send_error(error)

    def bump(self, counter: str) -> None:
        counters = self.node.dataplane.counters
        setattr(counters, counter, getattr(counters, counter) + 1)

    def health_cache_lookup(self, hit: bool) -> None:
        telemetry = self.node.sim.telemetry
        if telemetry is not None:
            telemetry.cache_lookup(self.node.name, hit)

    def health_tunnel_delivery(self, mobile_host: str, n_previous_sources: int) -> None:
        sim = self.node.sim
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.tunnel_delivery(
                sim.now, self.node.name, mobile_host, n_previous_sources
            )

    def health_moved(self) -> None:
        sim = self.node.sim
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.mh_moved(sim.now, self.node.name)

    def health_registration(self, agent: IPAddress, latency: float) -> None:
        sim = self.node.sim
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.registration_complete(sim.now, self.node.name, agent, latency)

    # -- timers --------------------------------------------------------
    # Keyed one-shot timers with engine ``timer_fired`` semantics: the
    # callback is popped before it runs, so a handler re-arming its own
    # key behaves identically on both substrates.  Callbacks must be
    # bound methods or partials of bound methods (snapshot/fork pickles
    # the graph, and lambdas and closures do not pickle).
    def set_timer(self, key: str, delay: float, callback: Callable[[], None]) -> None:
        self._callbacks[key] = callback
        timer = self._timers.get(key)
        if timer is None:
            timer = self.node.sim.timer(partial(self._fire, key), label=key)
            self._timers[key] = timer
        timer.start(delay)

    def cancel_timer(self, key: str) -> None:
        self._callbacks.pop(key, None)
        timer = self._timers.get(key)
        if timer is not None:
            timer.cancel()

    def _fire(self, key: str) -> None:
        callback = self._callbacks.pop(key, None)
        if callback is not None:
            callback()

    # -- wiring --------------------------------------------------------
    def add_hooks(self, outbound, transit, name: str) -> None:
        self.node.dataplane.register("outbound", outbound, name=name)
        self.node.dataplane.register("transit", transit, name=name)

    def install(self, role_key: str, role) -> None:
        self.node.extensions.append(role)

    def defer_start(self, fn: Callable[[], None]) -> None:
        fn()

    # -- link-layer address claims (simulated ARP) ---------------------
    def claim_address(self, iface_name: str, address: IPAddress) -> None:
        arp = self.node.arp[iface_name]
        arp.add_proxy(address)
        arp.announce(address)  # gratuitous ARP binding address -> our hw

    def release_address(self, iface_name: str, address: IPAddress) -> None:
        self.node.arp[iface_name].remove_proxy(address)

    def announce_address(self, iface_name: str, address: IPAddress) -> None:
        self.node.arp[iface_name].announce(address)

    def learn_neighbor(self, iface_name: str, address: IPAddress, hw_value: int) -> None:
        if hw_value:
            self.node.arp[iface_name].learn(address, HWAddress(hw_value))

    # -- Section 5.2 presence verification ------------------------------
    def neighbor_known(self, iface_name: str, address: IPAddress) -> bool:
        return self.node.arp[iface_name].lookup(address) is not None

    def probe_neighbor(self, iface_name: str, address: IPAddress, my_address: IPAddress) -> None:
        probe = IPPacket(
            src=my_address,
            dst=address,
            protocol=PROTO_MHRP,  # never actually parsed; the ARP matters
            uid=self.node.next_uid(),
        )
        self.node.arp[iface_name].resolve(address, probe)


class EngineRolePort:
    """Role-facing surface of a sans-io :class:`NodeEngine`.

    Address-claim methods are no-ops (there is no ARP on the wire
    backends; drivers resolve addresses to endpoints directly), and
    Section 5.2 presence verification uses an ICMP echo probe instead:
    the candidate visitor auto-answers echo requests, and the reply
    lands in a per-node heard-neighbour set this port maintains.
    """

    __slots__ = ("node", "_heard_neighbors", "_probe_listener_installed", "_probe_seq")

    _ATTR = "_mhrp_role_port"

    def __init__(self, node) -> None:
        self.node = node
        self._heard_neighbors: set = set()
        self._probe_listener_installed = False
        self._probe_seq = 0
        # Presence knowledge is as volatile as an ARP cache: a crash
        # forgets it.
        node.reboot_hooks.append(self._heard_neighbors.clear)

    @classmethod
    def of(cls, node) -> "EngineRolePort":
        port = getattr(node, cls._ATTR, None)
        if port is None:
            port = cls(node)
            setattr(node, cls._ATTR, port)
        return port

    # -- time / randomness --------------------------------------------
    @property
    def now(self) -> float:
        return self.node.now

    @property
    def rng(self):
        return self.node.rng

    # -- observability ------------------------------------------------
    def trace(self, category: str, **detail) -> None:
        self.node.trace(category, **detail)

    def drop(self, packet: IPPacket, reason: str) -> None:
        self.node.drop(packet, reason)

    def send_error(self, error: ICMPError) -> None:
        self.node.send_error(error)

    def bump(self, counter: str) -> None:
        self.node.counters[counter] += 1

    def health_cache_lookup(self, hit: bool) -> None:
        self.node.health("cache_lookup", hit=hit)

    def health_tunnel_delivery(self, mobile_host: str, n_previous_sources: int) -> None:
        self.node.health(
            "tunnel_delivery",
            mobile_host=mobile_host,
            n_previous_sources=n_previous_sources,
        )

    def health_moved(self) -> None:
        self.node.health("mh_moved")

    def health_registration(self, agent: IPAddress, latency: float) -> None:
        self.node.health("registration_complete", agent=str(agent), latency=latency)

    # -- timers --------------------------------------------------------
    def set_timer(self, key: str, delay: float, callback: Callable[[], None]) -> None:
        self.node.set_timer(key, delay, callback)

    def cancel_timer(self, key: str) -> None:
        self.node.cancel_timer(key)

    # -- wiring --------------------------------------------------------
    def add_hooks(self, outbound, transit, name: str) -> None:
        self.node.outbound_hooks.append(outbound)
        self.node.transit_hooks.append(transit)

    def install(self, role_key: str, role) -> None:
        self.node.roles[role_key] = role

    def defer_start(self, fn: Callable[[], None]) -> None:
        self.node.start_hooks.append(fn)

    # -- link-layer address claims: no ARP on the wire backends ---------
    def claim_address(self, iface_name: str, address: IPAddress) -> None:
        pass

    def release_address(self, iface_name: str, address: IPAddress) -> None:
        pass

    def announce_address(self, iface_name: str, address: IPAddress) -> None:
        pass

    def learn_neighbor(self, iface_name: str, address: IPAddress, hw_value: int) -> None:
        pass

    # -- Section 5.2 presence verification ------------------------------
    def neighbor_known(self, iface_name: str, address: IPAddress) -> bool:
        return address in self._heard_neighbors

    def probe_neighbor(self, iface_name: str, address: IPAddress, my_address: IPAddress) -> None:
        if not self._probe_listener_installed:
            self.node.on_icmp(TYPE_ECHO_REPLY, self._on_probe_reply)
            self._probe_listener_installed = True
        self._probe_seq += 1
        request = EchoMessage.request(
            identifier=sum(ord(c) for c in self.node.name) & 0xFFFF,
            sequence=self._probe_seq,
        )
        probe = IPPacket(
            src=my_address, dst=address, protocol=PROTO_ICMP, payload=request
        )
        self.node._stamp(probe)
        self.node.transmit_on_link(iface_name, address, probe)

    def _on_probe_reply(self, packet: IPPacket, message) -> None:
        self._heard_neighbors.add(packet.src)


# ----------------------------------------------------------------------
# Registration dispatch + reliable retransmission (Section 3)
# ----------------------------------------------------------------------

class ControlDispatcher:
    """Per-node demultiplexer for :data:`MOBILE_CONTROL` packets.

    Works unchanged on both substrates: protocol registration, ``send``
    and ``primary_address`` are shared node APIs.
    """

    _ATTR = "_mhrp_control_dispatcher"

    def __init__(self, node) -> None:
        self.node = node
        self._handlers: Dict[str, Callable[[IPPacket, RegistrationMessage], None]] = {}
        self._ack_waiters: Dict[int, Callable[[RegistrationMessage], None]] = {}
        node.register_protocol(MOBILE_CONTROL, self._handle)

    @classmethod
    def for_node(cls, node) -> "ControlDispatcher":
        """The node's dispatcher, created on first use."""
        dispatcher = getattr(node, cls._ATTR, None)
        if dispatcher is None:
            dispatcher = cls(node)
            setattr(node, cls._ATTR, dispatcher)
        return dispatcher

    def on(self, kind: str, handler: Callable[[IPPacket, RegistrationMessage], None]) -> None:
        if kind in self._handlers:
            raise RegistrationError(
                f"{self.node.name}: control kind {kind!r} already handled"
            )
        self._handlers[kind] = handler

    def expect_ack(self, seq: int, callback: Callable[[RegistrationMessage], None]) -> None:
        self._ack_waiters[seq] = callback

    def cancel_ack(self, seq: int) -> None:
        self._ack_waiters.pop(seq, None)

    def _handle(self, packet: IPPacket, iface: object) -> None:
        message = packet.payload
        if not isinstance(message, RegistrationMessage):
            return
        if message.kind == ACK:
            waiter = self._ack_waiters.pop(message.seq, None)
            if waiter is not None:
                waiter(message)
            return
        handler = self._handlers.get(message.kind)
        if handler is not None:
            handler(packet, message)

    def send_ack(
        self,
        to: IPAddress,
        request: RegistrationMessage,
        agent: Optional[IPAddress] = None,
        ok: bool = True,
    ) -> None:
        """Acknowledge ``request`` back to ``to``."""
        ack = RegistrationMessage(
            kind=ACK,
            seq=request.seq,
            mobile_host=request.mobile_host,
            agent=agent if agent is not None else IPAddress.zero(),
            ok=ok,
        )
        self.node.send(IPPacket(
            src=self.node.primary_address,
            dst=to,
            protocol=MOBILE_CONTROL,
            payload=ack,
            uid=self.node.next_uid(),
        ))


class Registrar:
    """Retransmits registrations until acknowledged or given up.

    Registrations cross wireless links and possibly half the
    internetwork, so each message is retried every
    :data:`REG_RETRY_INTERVAL` seconds, up to :data:`REG_MAX_RETRIES`
    attempts, keyed by the message's sequence number.
    """

    def __init__(self, port, node) -> None:
        self.port = port
        self.node = node
        self.dispatcher = ControlDispatcher.for_node(node)
        self._pending: Dict[int, dict] = {}

    def send(
        self,
        destination: IPAddress,
        message: RegistrationMessage,
        on_ack: Optional[Callable[[RegistrationMessage], None]] = None,
        on_fail: Optional[Callable[[], None]] = None,
    ) -> None:
        """Send ``message`` to ``destination`` reliably."""
        seq = message.seq
        self._pending[seq] = {
            "destination": destination,
            "message": message,
            "on_ack": on_ack,
            "on_fail": on_fail,
            "attempts": 0,
        }
        self.dispatcher.expect_ack(seq, partial(self._acked, seq))
        self._transmit(seq)
        self.port.set_timer(
            f"reg-retry-{seq}", REG_RETRY_INTERVAL, partial(self._retry, seq)
        )

    def _transmit(self, seq: int) -> None:
        entry = self._pending[seq]
        self.port.trace(
            "mhrp.register",
            event="send",
            kind=entry["message"].kind,
            to=str(entry["destination"]),
            attempt=entry["attempts"],
        )
        self.node.send(IPPacket(
            src=self.node.primary_address,
            dst=entry["destination"],
            protocol=MOBILE_CONTROL,
            payload=entry["message"],
            uid=self.node.next_uid(),
        ))

    def _retry(self, seq: int) -> None:
        entry = self._pending.get(seq)
        if entry is None:
            return
        entry["attempts"] += 1
        if entry["attempts"] > REG_MAX_RETRIES:
            self._pending.pop(seq, None)
            self.dispatcher.cancel_ack(seq)
            self.port.trace(
                "mhrp.register",
                event="gave-up",
                kind=entry["message"].kind,
                to=str(entry["destination"]),
            )
            if entry["on_fail"] is not None:
                entry["on_fail"]()
            return
        self._transmit(seq)
        self.port.set_timer(
            f"reg-retry-{seq}", REG_RETRY_INTERVAL, partial(self._retry, seq)
        )

    def _acked(self, seq: int, ack: RegistrationMessage) -> None:
        entry = self._pending.pop(seq, None)
        if entry is None:
            return
        self.port.cancel_timer(f"reg-retry-{seq}")
        if entry["on_ack"] is not None:
            entry["on_ack"](ack)

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Sequence numbers still awaiting an acknowledgement."""
        return {"pending": sorted(self._pending)}


class ReliableRegistrar(Registrar):
    """The simulator-facing registrar: same behaviour, port derived from
    the node (kept as the public :mod:`repro.core.registration` API)."""

    def __init__(self, node) -> None:
        super().__init__(SimRolePort.of(node), node)


# ----------------------------------------------------------------------
# Agent advertisement (Section 3)
# ----------------------------------------------------------------------

@dataclass(slots=True)
class AgentAdvertisementInfo:
    """What a mobile host learned from one advertisement.

    A value record: holders replace it wholesale, never mutate fields,
    so session snapshots share it instead of duplicating it."""

    agent: IPAddress
    is_home_agent: bool
    is_foreign_agent: bool
    boot_id: int
    heard_at: float
    lifetime: float = DEFAULT_ADVERT_LIFETIME

    def __deepcopy__(self, memo: dict) -> "AgentAdvertisementInfo":
        return self


class Advertiser:
    """Periodically broadcasts agent advertisements on one interface."""

    def __init__(
        self,
        port,
        node,
        iface_name: str,
        is_home_agent: bool,
        is_foreign_agent: bool,
        period: float = DEFAULT_ADVERT_PERIOD,
        lifetime: float = DEFAULT_ADVERT_LIFETIME,
        advertised_address=None,
    ) -> None:
        self.port = port
        self.node = node
        self.iface_name = iface_name
        #: Address put into the advertisement; defaults to the interface
        #: address.  A replicated home agent group advertises its shared
        #: *service* address instead, whichever replica is active.
        self.advertised_address = advertised_address
        self.is_home_agent = is_home_agent
        self.is_foreign_agent = is_foreign_agent
        self.period = period
        self.lifetime = lifetime
        self.boot_id = port.rng.randrange(1, 2**31)
        self._timer_key = f"advert-{iface_name}"
        self.running = False
        # Answer solicitations immediately rather than waiting a period.
        node.on_icmp(TYPE_ROUTER_SOLICITATION, self._on_solicitation)

    def start(self) -> None:
        """Begin periodic advertising (first advert goes out immediately)."""
        if self.running:
            return
        self.running = True
        self._advertise()

    def stop(self) -> None:
        self.running = False
        self.port.cancel_timer(self._timer_key)

    def restart_with_new_boot_id(self) -> None:
        """Called after a reboot so mobile hosts notice and re-register."""
        self.boot_id = self.port.rng.randrange(1, 2**31)
        self.running = False
        self.start()

    def _advertise(self) -> None:
        if not self.running or not self.node.up:
            return
        self._broadcast()
        # Small jitter decorrelates advertisers that started together.
        jitter = self.port.rng.uniform(0, self.period * 0.05)
        self.port.set_timer(self._timer_key, self.period + jitter, self._advertise)

    def _on_solicitation(self, packet: IPPacket, message: object) -> None:
        if self.running and self.node.up:
            self._broadcast()

    def _broadcast(self) -> None:
        iface = self.node.interfaces[self.iface_name]
        advert = RouterAdvertisement(
            router_address=self.advertised_address or iface.ip_address,
            lifetime=self.lifetime,
            is_home_agent=self.is_home_agent,
            is_foreign_agent=self.is_foreign_agent,
            boot_id=self.boot_id,
        )
        # The low byte also rides in the reserved code field, mirroring
        # how an extension-less RFC 1256 implementation would smuggle it.
        advert.code = self.boot_id & 0xFF
        self.node.send_broadcast(self.iface_name, PROTO_ICMP, advert)

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {"boot_id": self.boot_id, "running": self.running}

    def load_state(self, state: dict) -> None:
        self.boot_id = int(state["boot_id"])
        self.running = bool(state["running"])


class AgentAdvertiser(Advertiser):
    """The simulator-facing advertiser: same behaviour, port derived
    from the node (kept as the public :mod:`repro.core.discovery` API)."""

    def __init__(
        self,
        node,
        iface_name: str,
        is_home_agent: bool,
        is_foreign_agent: bool,
        period: float = DEFAULT_ADVERT_PERIOD,
        lifetime: float = DEFAULT_ADVERT_LIFETIME,
        advertised_address=None,
    ) -> None:
        super().__init__(
            SimRolePort.of(node),
            node,
            iface_name,
            is_home_agent=is_home_agent,
            is_foreign_agent=is_foreign_agent,
            period=period,
            lifetime=lifetime,
            advertised_address=advertised_address,
        )


# ----------------------------------------------------------------------
# Location caching structures + updates (Sections 2, 4.3)
# ----------------------------------------------------------------------

@dataclass(slots=True)
class CacheEntry:
    """A value record (see :class:`AgentAdvertisementInfo`): replaced,
    never mutated, so snapshots share it."""

    foreign_agent: IPAddress
    cached_at: float

    def __deepcopy__(self, memo: dict) -> "CacheEntry":
        return self


class LocationCache:
    """A finite LRU cache of mobile-host locations."""

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[IPAddress, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, mobile_host: IPAddress) -> Optional[IPAddress]:
        entry = self._entries.get(mobile_host)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(mobile_host)
        self.hits += 1
        return entry.foreign_agent

    def put(self, mobile_host: IPAddress, foreign_agent: IPAddress, now: float = 0.0) -> None:
        if mobile_host in self._entries:
            self._entries.move_to_end(mobile_host)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[mobile_host] = CacheEntry(
            foreign_agent=IPAddress(foreign_agent), cached_at=now
        )

    def delete(self, mobile_host: IPAddress) -> bool:
        return self._entries.pop(mobile_host, None) is not None

    def peek(self, mobile_host: IPAddress) -> Optional[IPAddress]:
        """Like :meth:`get` but with no LRU/stat side effects (for tests)."""
        entry = self._entries.get(mobile_host)
        return entry.foreign_agent if entry else None

    def __contains__(self, mobile_host: IPAddress) -> bool:
        return mobile_host in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Dict[IPAddress, IPAddress]:
        return {mh: e.foreign_agent for mh, e in self._entries.items()}

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able cache contents (LRU order preserved) + statistics."""
        return {
            "capacity": self.capacity,
            "entries": {
                str(mh): {"foreign_agent": str(e.foreign_agent), "cached_at": e.cached_at}
                for mh, e in self._entries.items()
            },
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def load_state(self, state: dict) -> None:
        """Restore contents and statistics from :meth:`state_dict`.

        Entry iteration order in the dict *is* the LRU order (oldest
        first), matching how :meth:`state_dict` emits it.
        """
        self.capacity = int(state["capacity"])
        self._entries = OrderedDict(
            (
                IPAddress(mh),
                CacheEntry(
                    foreign_agent=IPAddress(rec["foreign_agent"]),
                    cached_at=rec["cached_at"],
                ),
            )
            for mh, rec in state["entries"].items()
        )
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.evictions = int(state["evictions"])


class UpdateRateLimiter:
    """Per-destination rate limit on location update messages.

    Section 4.3: "any host or router that sends location update messages
    must provide some mechanism for limiting the rate at which it sends
    these messages to any single IP address", with LRU replacement of the
    tracking entries — mirrored here.
    """

    def __init__(
        self,
        min_interval: float = DEFAULT_UPDATE_MIN_INTERVAL,
        capacity: int = 1024,
    ) -> None:
        self.min_interval = min_interval
        self.capacity = capacity
        self._last_sent: "OrderedDict[IPAddress, float]" = OrderedDict()
        self.suppressed = 0

    def allow(self, destination: IPAddress, now: float) -> bool:
        """Whether an update to ``destination`` may be sent at ``now``."""
        last = self._last_sent.get(destination)
        if last is not None and now - last < self.min_interval:
            self.suppressed += 1
            return False
        if destination in self._last_sent:
            self._last_sent.move_to_end(destination)
        elif len(self._last_sent) >= self.capacity:
            self._last_sent.popitem(last=False)
        self._last_sent[destination] = now
        return True

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able limiter state (LRU order preserved)."""
        return {
            "min_interval": self.min_interval,
            "capacity": self.capacity,
            "last_sent": {str(dst): t for dst, t in self._last_sent.items()},
            "suppressed": self.suppressed,
        }

    def load_state(self, state: dict) -> None:
        """Restore from :meth:`state_dict` (dict order = LRU order)."""
        self.min_interval = state["min_interval"]
        self.capacity = int(state["capacity"])
        self._last_sent = OrderedDict(
            (IPAddress(dst), t) for dst, t in state["last_sent"].items()
        )
        self.suppressed = int(state["suppressed"])


def send_location_update(
    port,
    node,
    destination: IPAddress,
    mobile_host: IPAddress,
    foreign_agent: IPAddress,
    limiter: Optional[UpdateRateLimiter] = None,
    purge: bool = False,
) -> bool:
    """Send one location update message, honouring the rate limit.

    Returns whether the update was actually sent.  Updates are never sent
    to ourselves, to the zero address, or to the mobile host itself.
    """
    if not may_send_update(destination, mobile_host, node.has_address(destination)):
        return False
    if limiter is not None and not limiter.allow(destination, port.now):
        return False
    message = LocationUpdate(
        mobile_host=mobile_host, foreign_agent=foreign_agent, purge=purge
    )
    port.trace(
        "mhrp.update",
        event="sent",
        to=str(destination),
        mobile_host=str(mobile_host),
        foreign_agent=str(foreign_agent),
        purge=purge,
    )
    node.send_icmp(destination, message)
    return True


# ----------------------------------------------------------------------
# The cache-agent role (Sections 2, 4.3)
# ----------------------------------------------------------------------

class CacheAgentRole:
    """The cache-agent role, attachable to any host or router.

    Registers itself as ``outbound`` and ``transit`` stage hooks:

    - On *outbound* packets (this node is the original sender): a cache
      hit builds a sender-style MHRP header (empty previous-source list,
      8 bytes — Section 4.2).
    - On *transit* packets (this node is a router): a cache hit builds an
      agent-style header (the original source moves onto the list,
      12 bytes).
    - Inbound location updates install or delete entries; with
      ``examine_forwarded`` a router also snoops updates it forwards.
    """

    ROLE_KEY = "cache_agent"
    HOOK_NAME = "CacheAgent"

    def __init__(
        self,
        port,
        node,
        capacity: int = DEFAULT_CACHE_CAPACITY,
        examine_forwarded: bool = False,
        enabled: bool = True,
    ) -> None:
        self.port = port
        self.node = node
        self.cache = LocationCache(capacity)
        self.examine_forwarded = examine_forwarded
        self.enabled = enabled
        self.tunnels_built = 0
        port.install(self.ROLE_KEY, self)
        port.add_hooks(self.outbound_hook, self.transit_hook, self.HOOK_NAME)
        node.on_icmp(TYPE_LOCATION_UPDATE, self._on_location_update)
        # The cache is soft state in RAM: a reboot loses it (consistency
        # is then re-established lazily by the Section 5.1 machinery).
        node.reboot_hooks.append(self.cache.clear)

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able role state for the session snapshot/diff contract."""
        return {
            "cache": self.cache.state_dict(),
            "enabled": self.enabled,
            "examine_forwarded": self.examine_forwarded,
            "tunnels_built": self.tunnels_built,
        }

    def load_state(self, state: dict) -> None:
        """Restore role state from :meth:`state_dict`."""
        self.cache.load_state(state["cache"])
        self.enabled = bool(state["enabled"])
        self.examine_forwarded = bool(state["examine_forwarded"])
        self.tunnels_built = int(state["tunnels_built"])

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def learn(self, mobile_host: IPAddress, foreign_agent: IPAddress) -> None:
        """Install a location (used by updates and by agents directly)."""
        if foreign_agent.is_zero:
            self.cache.delete(mobile_host)
            return
        self.cache.put(mobile_host, foreign_agent, now=self.port.now)

    def _on_location_update(self, packet: IPPacket, message) -> None:
        if not isinstance(message, LocationUpdate) or not self.enabled:
            return
        self.port.trace(
            "mhrp.update",
            event="received",
            mobile_host=str(message.mobile_host),
            foreign_agent=str(message.foreign_agent),
            purge=message.purge,
        )
        self._apply_update(message)

    def _apply_update(self, message: LocationUpdate) -> None:
        if message.clears_entry:
            self.cache.delete(message.mobile_host)
        elif not self.node.has_address(message.foreign_agent):
            # An update naming this node carries nothing a cache can use
            # (neither hook tunnels to ourselves); caching it would only
            # overwrite the forwarding pointer a fresher fa-disconnect
            # installed, and the home agent, whose database still names
            # us, would then tunnel our retunnelled packets straight back.
            self.learn(message.mobile_host, message.foreign_agent)

    # ------------------------------------------------------------------
    # Dataplane stage hooks
    # ------------------------------------------------------------------
    def outbound_hook(self, packet: IPPacket):
        if not self.enabled or is_control_traffic(packet.protocol, packet.payload):
            return None  # never tunnel the control traffic itself
        foreign_agent = self.cache.get(packet.dst)
        self.port.health_cache_lookup(foreign_agent is not None)
        if foreign_agent is None:
            return None
        if self.node.has_address(foreign_agent):
            # The cache points at *this* node (e.g. we were the foreign
            # agent and the visitor left): handing the packet to the
            # MHRP handler is the agents' job, not the cache's.
            return None
        self.tunnels_built += 1
        self.port.bump("diverted")
        self.port.trace(
            "mhrp.tunnel",
            event="sender-encapsulate",
            mobile_host=str(packet.dst),
            foreign_agent=str(foreign_agent),
            uid=packet.uid,
        )
        return encapsulate(packet, foreign_agent, agent_address=None)

    def transit_hook(self, packet: IPPacket, in_iface):
        if not self.enabled:
            return None
        if (
            self.examine_forwarded
            and packet.protocol == PROTO_ICMP
            and isinstance(packet.payload, LocationUpdate)
        ):
            self._apply_update(packet.payload)
            return None  # keep forwarding the update itself
        if is_control_traffic(packet.protocol, packet.payload):
            return None  # the control traffic itself is never tunneled
        foreign_agent = self.cache.get(packet.dst)
        self.port.health_cache_lookup(foreign_agent is not None)
        if foreign_agent is None or self.node.has_address(foreign_agent):
            return None
        self.tunnels_built += 1
        self.port.bump("diverted")
        self.port.trace(
            "mhrp.tunnel",
            event="agent-encapsulate",
            mobile_host=str(packet.dst),
            foreign_agent=str(foreign_agent),
            uid=packet.uid,
        )
        agent_address = self.node.primary_address
        return encapsulate(packet, foreign_agent, agent_address=agent_address)


# ----------------------------------------------------------------------
# The home-agent role (Sections 2, 3, 5.1, 5.2)
# ----------------------------------------------------------------------

class HomeAgentRole:
    """The home-agent role for one home network.

    Keeps the location database, intercepts packets for away hosts on
    the home network, tunnels them to the current foreign agent, and
    fixes up packets tunneled back by stale agents (Section 5.1) or
    rebooted ones (Section 5.2).
    """

    ROLE_KEY = "home_agent"
    HOOK_NAME = "HomeAgent"

    def __init__(
        self,
        port,
        node,
        home_iface_name: str,
        store: Optional[LocationStore] = None,
        max_previous_sources: int = DEFAULT_MAX_PREVIOUS_SOURCES,
        update_limiter: Optional[UpdateRateLimiter] = None,
    ) -> None:
        if home_iface_name not in node.interfaces:
            raise RegistrationError(
                f"{node.name} has no interface {home_iface_name!r}"
            )
        self.port = port
        self.node = node
        self.home_iface_name = home_iface_name
        self.database = LocationDatabase(store)
        self._store = store
        self.max_previous_sources = max_previous_sources
        self.limiter = update_limiter or UpdateRateLimiter()
        self.advertiser: Optional[Advertiser] = None
        self._dispatcher: Optional[ControlDispatcher] = None
        #: Callbacks invoked as ``f(mobile_host, foreign_agent)`` whenever
        #: a registration changes the database; the host-route variant
        #: (Section 3) subscribes here.
        self.location_listeners: list = []
        #: Rejects registrations older than the newest processed per
        #: host — a delayed ``ha-register`` retransmission must not
        #: revert the database to a previous foreign agent.
        self.stale_filter = StaleControlFilter()
        # Stats for the benches.
        self.packets_intercepted = 0
        self.packets_retunneled = 0
        self.recoveries = 0

    def _wire(self, advertise: bool = True) -> None:
        """Wire the role into its node (hooks, dispatcher, advertiser)."""
        node = self.node
        self.port.install(self.ROLE_KEY, self)
        self.port.add_hooks(self.outbound_hook, self.transit_hook, self.HOOK_NAME)
        dispatcher = ControlDispatcher.for_node(node)
        dispatcher.on(HA_REGISTER, self._on_register)
        self._dispatcher = dispatcher
        if advertise:
            self.advertiser = Advertiser(
                self.port, node, self.home_iface_name,
                is_home_agent=True, is_foreign_agent=False,
            )
            self.port.defer_start(self.advertiser.start)
        node.reboot_hooks.append(self._on_node_reboot)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def address(self) -> IPAddress:
        """The agent's own address (head of tunnels it builds)."""
        return self.node.interfaces[self.home_iface_name].ip_address

    @property
    def home_network(self):
        return self.node.interfaces[self.home_iface_name].network

    # ------------------------------------------------------------------
    # Registration (Section 3)
    # ------------------------------------------------------------------
    def _on_register(self, packet: IPPacket, message: RegistrationMessage) -> None:
        mobile_host = message.mobile_host
        if not self.home_network.contains(mobile_host):
            # Not one of ours: refuse, so a misconfigured host finds out.
            self._dispatcher.send_ack(packet.src, message, ok=False)
            return
        if self.stale_filter.is_stale(message):
            # A late retransmission of an older registration: reverting
            # the database would re-point tunnels at a previous foreign
            # agent.  Negative-ack so the sender stops retrying.
            self.port.trace(
                "mhrp.register",
                event="stale-ignored",
                kind=message.kind,
                mobile_host=str(mobile_host),
                seq=message.seq,
            )
            self._dispatcher.send_ack(mobile_host, message, ok=False)
            return
        foreign_agent = message.agent
        self.port.trace(
            "mhrp.register",
            event="ha-register",
            mobile_host=str(mobile_host),
            foreign_agent=str(foreign_agent),
        )
        self.database.record(mobile_host, foreign_agent)
        for listener in list(self.location_listeners):
            listener(mobile_host, foreign_agent)
        if foreign_agent.is_zero:
            self._stop_interception(mobile_host)
        else:
            self._start_interception(mobile_host)
        # The ack to an away host is itself intercepted below and tunneled
        # to the (just recorded) foreign agent.
        self._dispatcher.send_ack(mobile_host, message, agent=self.address)

    def _start_interception(self, mobile_host: IPAddress) -> None:
        """Claim the mobile host's address on the home LAN (Section 2)."""
        self.port.claim_address(self.home_iface_name, mobile_host)

    def _stop_interception(self, mobile_host: IPAddress) -> None:
        self.port.release_address(self.home_iface_name, mobile_host)
        # The returning host broadcasts its own gratuitous ARP to reclaim
        # the address (Section 2); nothing more for us to do.

    # ------------------------------------------------------------------
    # Interception hooks (outbound/transit stage hooks)
    # ------------------------------------------------------------------
    def outbound_hook(self, packet: IPPacket):
        return self._maybe_intercept(packet)

    def transit_hook(self, packet: IPPacket, in_iface):
        return self._maybe_intercept(packet)

    def _maybe_intercept(self, packet: IPPacket):
        mobile_host = packet.dst
        if not self.database.is_away(mobile_host):
            return None
        if packet.protocol == PROTO_MHRP:
            return self._tunneled_arrival(packet)
        return self._intercept_plain(packet)

    def _intercept_plain(self, packet: IPPacket):
        """A normal packet for an away host: tunnel it (Section 6.1)."""
        mobile_host = packet.dst
        foreign_agent = self.database.foreign_agent_of(mobile_host)
        assert foreign_agent is not None  # guarded by is_away above
        if foreign_agent == DISCONNECTED_ADDRESS:
            # Planned disconnection: the host told us it is unreachable.
            # Route the discard through the drop path so the packet gets
            # a counted, attributed terminal (conservation invariant).
            self.port.drop(packet, "mh-disconnected")
            self.port.send_error(ICMPError.unreachable(packet))
            return CONSUMED
        self.packets_intercepted += 1
        self.port.bump("tunneled")
        original_sender = packet.src
        self.port.trace(
            "mhrp.tunnel",
            event="home-intercept",
            mobile_host=str(mobile_host),
            foreign_agent=str(foreign_agent),
            uid=packet.uid,
        )
        tunneled = encapsulate(packet, foreign_agent, agent_address=self.address)
        # Tell the sender where the host is, so its own cache agent (if
        # any) tunnels future packets directly.
        send_location_update(
            self.port, self.node, original_sender, mobile_host, foreign_agent,
            self.limiter,
        )
        return tunneled

    # ------------------------------------------------------------------
    # Packets tunneled back to the home network (Sections 5.1, 5.2)
    # ------------------------------------------------------------------
    def _tunneled_arrival(self, packet: IPPacket):
        payload = packet.payload
        if not isinstance(payload, MHRPPayload):
            return None
        header = payload.header
        mobile_host = header.mobile_host
        decision = decide_home_tunneled_arrival(
            self.database.foreign_agent_of(mobile_host),
            header.previous_sources,
            packet.src,
        )
        if decision.action == HOME_PASS:
            # Raced with a return home; let normal forwarding deliver the
            # still-encapsulated packet to the host itself (Section 6.3).
            return None
        if decision.action == HOME_DROP_DISCONNECTED:
            # Planned disconnection: purge the stale caches and report
            # the host unreachable to the original sender.
            for address in decision.stale:
                send_location_update(
                    self.port, self.node, address, mobile_host, decision.report,
                    self.limiter, purge=True,
                )
            self.port.drop(packet, "mh-disconnected")
            self.port.send_error(ICMPError.unreachable(packet))
            return CONSUMED
        current_fa = decision.report
        if decision.action == HOME_RECOVER:
            # Section 5.2: the "stale" agent *is* the current one — it
            # rebooted and forgot the host.  Update everyone (the foreign
            # agent re-learns its own visitor from the update) and discard
            # the packet; end-to-end retransmission recovers the data.
            self.recoveries += 1
            self.port.trace(
                "mhrp.tunnel",
                event="fa-recovery",
                mobile_host=str(mobile_host),
                foreign_agent=str(current_fa),
                uid=packet.uid,
            )
            for address in decision.stale:
                send_location_update(
                    self.port, self.node, address, mobile_host, current_fa,
                    self.limiter,
                )
            self.port.drop(packet, "mhrp-recovery")
            return CONSUMED
        for address in decision.stale:
            send_location_update(
                self.port, self.node, address, mobile_host, current_fa,
                self.limiter,
            )
        result = retunnel(
            packet,
            new_destination=current_fa,
            my_address=self.address,
            max_previous_sources=self.max_previous_sources,
        )
        if result.loop_detected:
            # A loop that runs through the home agent itself; dissolve it
            # (Section 5.3) and drop the packet.
            self._dissolve_loop(list(decision.stale), mobile_host, uid=packet.uid)
            self.port.drop(packet, "mhrp-loop-dissolved")
            return CONSUMED
        for address in result.flushed:
            send_location_update(
                self.port, self.node, address, mobile_host, current_fa,
                self.limiter,
            )
        self.packets_retunneled += 1
        self.port.bump("tunneled")
        self.port.trace(
            "mhrp.tunnel",
            event="home-retunnel",
            mobile_host=str(mobile_host),
            foreign_agent=str(current_fa),
            uid=packet.uid,
        )
        return packet

    def _dissolve_loop(
        self,
        members: List[IPAddress],
        mobile_host: IPAddress,
        uid: Optional[int] = None,
    ) -> None:
        self.port.trace(
            "mhrp.loop",
            event="dissolve",
            mobile_host=str(mobile_host),
            members=[str(a) for a in members],
            uid=uid,
        )
        for address in members:
            send_location_update(
                self.port, self.node, address, mobile_host, IPAddress.zero(),
                limiter=None, purge=True,
            )

    # ------------------------------------------------------------------
    # Reboot recovery (Section 2: database on disk)
    # ------------------------------------------------------------------
    def _on_node_reboot(self) -> None:
        # Sequence memory is RAM-resident, unlike the database.
        self.stale_filter.reset()
        if self._store is not None:
            self.database.reload()
        else:
            self.database.clear_memory()
        # Re-establish interception for everything the disk remembers.
        for mobile_host in self.database.away_hosts():
            self._start_interception(mobile_host)
        if self.advertiser is not None:
            self.advertiser.restart_with_new_boot_id()

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able role state for the session snapshot/diff contract."""
        return {
            "database": self.database.state_dict(),
            "stale_filter": self.stale_filter.state_dict(),
            "limiter": self.limiter.state_dict(),
            "packets_intercepted": self.packets_intercepted,
            "packets_retunneled": self.packets_retunneled,
            "recoveries": self.recoveries,
        }

    def load_state(self, state: dict) -> None:
        """Restore role state from :meth:`state_dict` (interception proxy
        entries are not rebuilt here; they live in the ARP service and
        are restored by its own contract)."""
        self.database.load_state(state["database"])
        self.stale_filter.load_state(state["stale_filter"])
        self.limiter.load_state(state["limiter"])
        self.packets_intercepted = int(state["packets_intercepted"])
        self.packets_retunneled = int(state["packets_retunneled"])
        self.recoveries = int(state["recoveries"])


# ----------------------------------------------------------------------
# The foreign-agent role (Sections 2, 4.4, 5.1, 5.2, 5.3)
# ----------------------------------------------------------------------

@dataclass(slots=True)
class VisitorRecord:
    """One entry in the visitor list — a value record (see
    :class:`AgentAdvertisementInfo`): replaced, never mutated, so
    snapshots share it."""

    mobile_host: IPAddress
    hw_value: int
    registered_at: float

    def __deepcopy__(self, memo: dict) -> "VisitorRecord":
        return self


class ForeignAgentRole:
    """The foreign-agent role for one local network.

    Args:
        port, node: backend port + the node providing the service.
        local_iface_name: the interface visitors attach through.
        cache_agent: the node's cache agent, used for forwarding pointers
            (Section 2); ``None`` disables them.
        keep_forwarding_pointers: cache the new foreign agent when a
            visitor moves away (optional per the paper; E6 measures it).
        believe_home_agent: Section 5.2 gives the rebooted agent a
            choice — re-add a visitor on the home agent's word (True), or
            first verify with a local query (False).
    """

    ROLE_KEY = "foreign_agent"
    HOOK_NAME = "ForeignAgent"

    def __init__(
        self,
        port,
        node,
        local_iface_name: str,
        cache_agent: Optional[CacheAgentRole] = None,
        keep_forwarding_pointers: bool = True,
        believe_home_agent: bool = True,
        advertise: bool = True,
        max_previous_sources: int = DEFAULT_MAX_PREVIOUS_SOURCES,
        update_limiter: Optional[UpdateRateLimiter] = None,
    ) -> None:
        if local_iface_name not in node.interfaces:
            raise RegistrationError(f"{node.name} has no interface {local_iface_name!r}")
        self.port = port
        self.node = node
        self.local_iface_name = local_iface_name
        self.cache_agent = cache_agent
        self.keep_forwarding_pointers = keep_forwarding_pointers
        self.believe_home_agent = believe_home_agent
        self.max_previous_sources = max_previous_sources
        self.limiter = update_limiter or UpdateRateLimiter()
        self.visitors: Dict[IPAddress, VisitorRecord] = {}
        #: Hosts that explicitly disconnected recently, with the time.
        #: A location update claiming such a host is *here* is stale
        #: information racing with the handoff (the home agent tunneled
        #: and advertised before it processed the new registration) and
        #: must not resurrect the visitor entry.
        self.recent_departures: Dict[IPAddress, float] = {}
        #: Callbacks invoked as ``f(mobile_host, present)`` when a visitor
        #: is added (True) or removed (False); the host-route variant
        #: (Section 3) subscribes here.
        self.visitor_listeners: list = []
        #: Rejects connect/disconnect notifications older than the
        #: newest one processed per host (late retransmissions).
        self.stale_filter = StaleControlFilter()
        self.advertiser: Optional[Advertiser] = None
        self._dispatcher: Optional[ControlDispatcher] = None
        self._advertise = advertise
        # Stats for the benches.
        self.delivered_to_visitors = 0
        self.retunneled_forward = 0
        self.retunneled_home = 0
        self.loops_detected = 0
        self.recoveries = 0

    def _wire(self) -> None:
        """Wire the role into its node (hooks, MHRP handler, dispatcher,
        location-update listener, advertiser)."""
        node = self.node
        self.port.install(self.ROLE_KEY, self)
        self.port.add_hooks(self.outbound_hook, self.transit_hook, self.HOOK_NAME)
        node.register_protocol(PROTO_MHRP, self._on_mhrp_packet)
        dispatcher = ControlDispatcher.for_node(node)
        dispatcher.on(FA_CONNECT, self._on_connect)
        dispatcher.on(FA_DISCONNECT, self._on_disconnect)
        self._dispatcher = dispatcher
        node.on_icmp(TYPE_LOCATION_UPDATE, self._on_location_update)
        if self._advertise:
            self.advertiser = Advertiser(
                self.port, node, self.local_iface_name,
                is_home_agent=False, is_foreign_agent=True,
            )
            self.port.defer_start(self.advertiser.start)
        node.reboot_hooks.append(self._on_node_reboot)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def address(self) -> IPAddress:
        """The agent's own address — the tunnel endpoint mobile hosts
        register with their home agents."""
        return self.node.interfaces[self.local_iface_name].ip_address

    def is_serving(self, mobile_host: IPAddress) -> bool:
        return mobile_host in self.visitors

    # ------------------------------------------------------------------
    # Registration (Section 3)
    # ------------------------------------------------------------------
    def _on_connect(self, packet: IPPacket, message: RegistrationMessage) -> None:
        mobile_host = message.mobile_host
        if self._ignore_stale(message):
            return
        self.recent_departures.pop(mobile_host, None)
        self.visitors[mobile_host] = VisitorRecord(
            mobile_host=mobile_host,
            hw_value=message.hw_value,
            registered_at=self.port.now,
        )
        for listener in list(self.visitor_listeners):
            listener(mobile_host, True)
        if message.hw_value:
            # Section 2: "the physical network address may be saved from
            # the connection notification message".
            self.port.learn_neighbor(
                self.local_iface_name, mobile_host, message.hw_value
            )
        self.port.trace(
            "mhrp.register",
            event="fa-connect",
            mobile_host=str(mobile_host),
        )
        self._dispatcher.send_ack(mobile_host, message, agent=self.address)

    def _on_disconnect(self, packet: IPPacket, message: RegistrationMessage) -> None:
        mobile_host = message.mobile_host
        if self._ignore_stale(message):
            return
        if self.visitors.pop(mobile_host, None) is not None:
            for listener in list(self.visitor_listeners):
                listener(mobile_host, False)
        self.recent_departures[mobile_host] = self.port.now
        new_foreign_agent = message.agent
        pointer = forwarding_pointer_target(
            self.keep_forwarding_pointers,
            self.cache_agent is not None,
            new_foreign_agent,
            self.address,
        )
        if pointer is not None:
            # Section 2: the cache entry becomes a "forwarding pointer";
            # it is an ordinary cache entry from here on.
            self.cache_agent.learn(mobile_host, pointer)
        self.port.trace(
            "mhrp.register",
            event="fa-disconnect",
            mobile_host=str(mobile_host),
            new_foreign_agent=str(new_foreign_agent),
        )
        self._dispatcher.send_ack(mobile_host, message, agent=self.address)

    def _ignore_stale(self, message: RegistrationMessage) -> bool:
        """Drop a late retransmission of an *older* notification — a
        delayed ``fa-disconnect`` from move *k* must not de-register the
        visitor that move *k+1* just connected.  The negative ack stops
        the sender's retransmit timer without acting on the message."""
        if not self.stale_filter.is_stale(message):
            return False
        self.port.trace(
            "mhrp.register",
            event="stale-ignored",
            kind=message.kind,
            mobile_host=str(message.mobile_host),
            seq=message.seq,
        )
        self._dispatcher.send_ack(message.mobile_host, message, ok=False)
        return True

    # ------------------------------------------------------------------
    # Tunneled packets addressed to this agent (Sections 4.4, 5.1, 5.3)
    # ------------------------------------------------------------------
    def _on_mhrp_packet(self, packet: IPPacket, iface=None) -> None:
        payload = packet.payload
        if not isinstance(payload, MHRPPayload):
            # Route the discard through the drop path so it is counted
            # and attributed, not just traced.
            self.port.drop(packet, "malformed-mhrp")
            return
        header = payload.header
        mobile_host = header.mobile_host
        if mobile_host in self.visitors:
            self._deliver_to_visitor(packet, header.previous_sources)
            return
        self._retunnel_elsewhere(packet)

    def _deliver_to_visitor(self, packet: IPPacket, previous_sources) -> None:
        """Correct delivery: update stale caches, reconstruct, last hop."""
        mobile_host = packet.payload.header.mobile_host
        # Section 5.1: every address on the list is an out-of-date cache
        # (the IP source — the last tunnel head — already points here).
        for address in list(previous_sources):
            send_location_update(
                self.port, self.node, address, mobile_host, self.address,
                self.limiter,
            )
        self.port.health_tunnel_delivery(str(mobile_host), len(previous_sources))
        decapsulate(packet)
        self.delivered_to_visitors += 1
        self.port.trace(
            "mhrp.tunnel",
            event="fa-deliver",
            mobile_host=str(mobile_host),
            uid=packet.uid,
        )
        self.node.transmit_on_link(self.local_iface_name, mobile_host, packet)

    def _retunnel_elsewhere(self, packet: IPPacket) -> None:
        """The visitor left (Section 4.4): forward along, or send home."""
        header = packet.payload.header
        mobile_host = header.mobile_host
        cached: Optional[IPAddress] = None
        if self.cache_agent is not None:
            cached = self.cache_agent.cache.get(mobile_host)
        # No usable forwarding pointer: tunnel to the mobile host's home
        # address; the home agent intercepts it there.
        target, going_home = retunnel_target(cached, self.address, mobile_host)
        result = retunnel(
            packet,
            new_destination=target,
            my_address=self.address,
            max_previous_sources=self.max_previous_sources,
        )
        if result.loop_detected:
            self._dissolve_loop(packet)
            return
        for address in result.flushed:
            # Section 4.4 overflow: point every flushed cache at the
            # destination we are about to use ourselves.
            send_location_update(
                self.port, self.node, address, mobile_host, target, self.limiter
            )
        if going_home:
            self.retunneled_home += 1
        else:
            self.retunneled_forward += 1
        self.port.bump("tunneled")
        self.port.trace(
            "mhrp.tunnel",
            event="fa-retunnel",
            mobile_host=str(mobile_host),
            target=str(target),
            going_home=going_home,
            uid=packet.uid,
        )
        self.node.forward_injected(packet)

    def _dissolve_loop(self, packet: IPPacket) -> None:
        """Section 5.3: purge every cache on the list, then send the
        packet to the mobile host's home (keeping only the original
        sender on the list, which decapsulation needs)."""
        header = packet.payload.header
        mobile_host = header.mobile_host
        self.loops_detected += 1
        # The list names every head the packet passed through except the
        # most recent one, which sits in the IP source field — include it
        # so the *whole* loop is dissolved in one step.
        members = stale_chain(header.previous_sources, packet.src)
        self.port.trace(
            "mhrp.loop",
            event="dissolve",
            mobile_host=str(mobile_host),
            members=[str(a) for a in members],
            uid=packet.uid,
        )
        for address in members:
            send_location_update(
                self.port, self.node, address, mobile_host, IPAddress.zero(),
                limiter=None, purge=True,
            )
        if self.cache_agent is not None:
            self.cache_agent.cache.delete(mobile_host)
        # Keep the original sender (first entry) so the foreign agent or
        # mobile host can still reconstruct the original IP header.
        del header.previous_sources[1:]
        packet.src = self.address
        packet.dst = mobile_host
        self.node.forward_injected(packet)

    # ------------------------------------------------------------------
    # Local delivery shortcuts (outbound/transit stage hooks)
    # ------------------------------------------------------------------
    def outbound_hook(self, packet: IPPacket):
        return self._maybe_deliver_plain(packet)

    def transit_hook(self, packet: IPPacket, in_iface):
        return self._maybe_deliver_plain(packet)

    def _maybe_deliver_plain(self, packet: IPPacket):
        """A non-tunneled packet addressed to a visitor's home address
        (from a host on this network, or via a host-specific route) is
        transmitted locally — the foreign agent "recognize[s] that a
        packet that it is routing must be transmitted locally to a
        visiting mobile host" (Section 4.3)."""
        if packet.protocol == PROTO_MHRP:
            return None
        if packet.dst not in self.visitors:
            return None
        self.port.bump("diverted")
        self.port.trace(
            "mhrp.tunnel",
            event="fa-local-delivery",
            mobile_host=str(packet.dst),
            uid=packet.uid,
        )
        self.node.transmit_on_link(self.local_iface_name, packet.dst, packet)
        return CONSUMED

    # ------------------------------------------------------------------
    # State recovery (Section 5.2)
    # ------------------------------------------------------------------
    def _on_location_update(self, packet: IPPacket, message) -> None:
        if not isinstance(message, LocationUpdate):
            return
        mobile_host = message.mobile_host
        if not should_recover_visitor(
            message.clears_entry,
            message.foreign_agent,
            self.address,
            mobile_host in self.visitors,
            self.recent_departures.get(mobile_host),
            self.port.now,
            DEPARTURE_GRACE,
        ):
            # Among the refusals: the host told us it *left* more
            # recently than whatever this update is based on; re-adding
            # it would black-hole traffic until the handoff notifications
            # land everywhere.
            return
        if self.believe_home_agent:
            self._readd_visitor(mobile_host)
        else:
            self._verify_with_query(mobile_host)

    def _readd_visitor(self, mobile_host: IPAddress) -> None:
        self.recoveries += 1
        self.visitors[mobile_host] = VisitorRecord(
            mobile_host=mobile_host,
            hw_value=0,  # re-learned via ARP on the next delivery
            registered_at=self.port.now,
        )
        for listener in list(self.visitor_listeners):
            listener(mobile_host, True)
        self.port.trace(
            "mhrp.register",
            event="fa-recover-visitor",
            mobile_host=str(mobile_host),
        )

    def _verify_with_query(self, mobile_host: IPAddress) -> None:
        """Section 5.2's alternative: "send a 'query' message onto its
        local network to verify that the mobile host is actually
        connected" — a presence probe whose answer proves the host is on
        this segment (ARP on the simulator, an ICMP echo on the wire
        backends)."""
        if self.port.neighbor_known(self.local_iface_name, mobile_host):
            # Presence already proven: the host answered a query on this
            # segment recently; trust it.
            self._readd_visitor(mobile_host)
            return
        self.port.probe_neighbor(self.local_iface_name, mobile_host, self.address)
        # The probe gives up after its retry schedule; look again just
        # after.
        self.port.set_timer(
            f"fa-verify-{mobile_host}",
            QUERY_VERIFY_DELAY,
            partial(self._check_query_result, mobile_host),
        )

    def _check_query_result(self, mobile_host: IPAddress) -> None:
        if self.port.neighbor_known(self.local_iface_name, mobile_host):
            self._readd_visitor(mobile_host)

    # ------------------------------------------------------------------
    # Reboot (Section 5.2: the visitor list is volatile)
    # ------------------------------------------------------------------
    def _on_node_reboot(self) -> None:
        for mobile_host in list(self.visitors):
            for listener in list(self.visitor_listeners):
                listener(mobile_host, False)
        self.visitors.clear()
        # Departure memory is volatile too; after a reboot the Section
        # 5.2 recovery must be able to re-add anyone.
        self.recent_departures.clear()
        self.stale_filter.reset()
        if self.advertiser is not None:
            # "To speed the state recovery ... broadcast over its local
            # network a query for all mobile hosts to initiate
            # reconnection": a fresh boot id makes every visitor that
            # hears the next advertisement re-register.
            self.advertiser.restart_with_new_boot_id()

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able role state for the session snapshot/diff contract."""
        return {
            "visitors": {
                str(mh): {"hw": rec.hw_value, "registered_at": rec.registered_at}
                for mh, rec in sorted(
                    self.visitors.items(), key=lambda kv: kv[0].value
                )
            },
            "recent_departures": {
                str(mh): t
                for mh, t in sorted(
                    self.recent_departures.items(), key=lambda kv: kv[0].value
                )
            },
            "stale_filter": self.stale_filter.state_dict(),
            "limiter": self.limiter.state_dict(),
            "delivered_to_visitors": self.delivered_to_visitors,
            "retunneled_forward": self.retunneled_forward,
            "retunneled_home": self.retunneled_home,
            "loops_detected": self.loops_detected,
            "recoveries": self.recoveries,
        }

    def load_state(self, state: dict) -> None:
        """Restore role state from :meth:`state_dict` (visitor listeners
        are not re-notified; restoring is not a membership change)."""
        self.visitors = {
            IPAddress(mh): VisitorRecord(
                mobile_host=IPAddress(mh),
                hw_value=int(rec.get("hw", 0)),
                registered_at=rec["registered_at"],
            )
            for mh, rec in state["visitors"].items()
        }
        self.recent_departures = {
            IPAddress(mh): t for mh, t in state["recent_departures"].items()
        }
        self.stale_filter.load_state(state["stale_filter"])
        self.limiter.load_state(state["limiter"])
        self.delivered_to_visitors = int(state["delivered_to_visitors"])
        self.retunneled_forward = int(state["retunneled_forward"])
        self.retunneled_home = int(state["retunneled_home"])
        self.loops_detected = int(state["loops_detected"])
        self.recoveries = int(state["recoveries"])


# ----------------------------------------------------------------------
# The mobile-host role (Sections 1–3, 6) — a mixin over the node class
# ----------------------------------------------------------------------

class MobileHostRole:
    """The mobile host's network-level module as a mixin.

    Unlike the agent roles (which compose onto a node), the mobile host
    *is* its node — :class:`~repro.core.mobile_host.MobileHost` mixes
    this over :class:`~repro.ip.host.Host` and
    :class:`~repro.wire.engine.MobileHostEngine` over
    :class:`~repro.wire.engine.NodeEngine`.  The concrete class supplies
    construction, movement/attachment (physical on the simulator, driven
    by schedule commands on the engines) and three small overridables:
    ``_wifi_hw_value``, ``_solicit`` delivery, and ``_redeliver_local``.
    """

    WIFI = "wifi0"
    WATCHDOG_KEY = "mh-watchdog"

    def _init_mobile_state(self, port) -> None:
        """Initialize the protocol-state attributes shared by both
        substrates (the concrete ctor sets home addresses, the interface,
        the registrar and the ``next_seq`` allocator itself)."""
        self.port = port
        self.state = DISCONNECTED
        self.current_foreign_agent: Optional[IPAddress] = None
        self.temp_address: Optional[IPAddress] = None
        self._fa_boot_ids: Dict[IPAddress, int] = {}
        self._registering_with: Optional[IPAddress] = None
        self.limiter = UpdateRateLimiter()
        # Advertisement-lifetime watchdog (Section 3's implicit-move
        # detection turned inward): while away, if the serving foreign
        # agent falls silent past its advertised lifetime, solicit; past
        # twice the lifetime, consider the connection gone.
        self._last_fa_heard = 0.0
        self._fa_lifetime = 0.0
        # Stats for the benches.
        self.moves = 0
        self.registrations = 0
        self.silence_disconnects = 0

    # -- substrate-specific hooks --------------------------------------
    def _wifi_hw_value(self) -> int:
        """Hardware address carried in connect notifications (Section 2);
        zero where the substrate has no link layer."""
        return 0

    def _redeliver_local(self, packet: IPPacket, iface) -> None:
        """Hand a decapsulated packet back to local protocol dispatch."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared movement plumbing
    # ------------------------------------------------------------------
    @property
    def at_home(self) -> bool:
        return self.state == AT_HOME

    def _record_move(self) -> None:
        self.moves += 1
        self.port.health_moved()

    def _solicit(self) -> None:
        """Multicast a solicitation instead of waiting for the period."""
        self.send_broadcast(self.WIFI, PROTO_ICMP, RouterSolicitation())

    def _disconnect_protocol(self) -> None:
        """Planned disconnection (Section 3): notify the home agent
        first, then the old foreign agent."""
        old_fa = self.current_foreign_agent
        if self.state != AT_HOME:
            self._register_with_home_agent(DISCONNECTED_ADDRESS)
        if old_fa is not None:
            self._notify_old_foreign_agent(old_fa, new_agent=IPAddress.zero())
        self.current_foreign_agent = None
        self.temp_address = None
        self.state = DISCONNECTED
        self.port.cancel_timer(self.WATCHDOG_KEY)

    # ------------------------------------------------------------------
    # Routing while away vs at home
    # ------------------------------------------------------------------
    def _set_away_routing(self, gateway: IPAddress) -> None:
        """Route everything via the foreign agent (or foreign gateway).

        The connected route for the home network must be withdrawn: the
        home prefix is *not* on-link while visiting a foreign network,
        and leaving the route in place would resolve home-network
        addresses (the home agent included) on the foreign medium.
        """
        self.routing_table.remove(self.home_network)
        self.set_gateway(gateway, self.WIFI)

    def _set_home_routing(self) -> None:
        self.routing_table.add_connected(self.home_network, self.WIFI)
        self.set_gateway(self.home_gateway, self.WIFI)

    # ------------------------------------------------------------------
    # Agent discovery reactions (Section 3)
    # ------------------------------------------------------------------
    def _on_agent_heard(self, info: AgentAdvertisementInfo) -> None:
        if info.agent == self.home_agent:
            # Hearing our own home agent on-link means we are on the home
            # network, whichever role bits this particular advertisement
            # carries (a combined router advertises both roles and may
            # emit them in separate messages).
            self._heard_home_agent(info)
            return
        if info.is_foreign_agent:
            self._heard_foreign_agent(info)

    def _heard_home_agent(self, info: AgentAdvertisementInfo) -> None:
        """We are (back) on the home network."""
        if self.state == AT_HOME:
            return
        old_fa = self.current_foreign_agent
        self.state = AT_HOME
        self.port.cancel_timer(self.WATCHDOG_KEY)
        self.current_foreign_agent = None
        self.temp_address = None
        self.iface.alias_addresses = set()
        self._set_home_routing()
        # Reclaim the home address on the home LAN (Section 2): other
        # hosts' ARP caches still bind it to the home agent.
        self.port.announce_address(self.WIFI, self.home_address)
        # "The mobile host registers a special foreign agent address of
        # zero with its home agent when reconnecting to its home network."
        self._register_with_home_agent(IPAddress.zero())
        if old_fa is not None:
            # Section 6.3: the old foreign agent deletes the visitor and
            # does NOT create a forwarding pointer (zero new agent).
            self._notify_old_foreign_agent(old_fa, new_agent=IPAddress.zero())

    def _heard_foreign_agent(self, info: AgentAdvertisementInfo) -> None:
        agent = info.agent
        previous_boot = self._fa_boot_ids.get(agent)
        self._fa_boot_ids[agent] = info.boot_id
        if agent == self.current_foreign_agent and self.state == AWAY:
            self._last_fa_heard = self.port.now
            self._fa_lifetime = info.lifetime
            if previous_boot is not None and previous_boot != info.boot_id:
                # Our agent rebooted and lost its visitor list
                # (Section 5.2): re-register proactively.
                self._connect_to_foreign_agent(agent, rebind_only=True)
            return
        if agent == self._registering_with:
            return  # registration already in flight
        self._connect_to_foreign_agent(agent)

    # ------------------------------------------------------------------
    # Registration sequence (Section 3 ordering)
    # ------------------------------------------------------------------
    def _connect_to_foreign_agent(self, agent: IPAddress, rebind_only: bool = False) -> None:
        old_fa = self.current_foreign_agent if not rebind_only else None
        was_home = self.state == AT_HOME
        self._registering_with = agent
        # Route our own traffic via the new agent immediately; the
        # registration itself (and everything after it) needs this.
        self._set_away_routing(agent)
        message = RegistrationMessage(
            kind=FA_CONNECT,
            seq=self.next_seq(),
            mobile_host=self.home_address,
            agent=agent,
            hw_value=self._wifi_hw_value(),
        )
        registration_started = self.port.now
        self.registrar.send(
            agent,
            message,
            on_ack=partial(
                self._fa_connect_acked, agent, old_fa, was_home, registration_started
            ),
            on_fail=self._fa_connect_failed,
        )

    def _fa_connect_acked(
        self,
        agent: IPAddress,
        old_fa: Optional[IPAddress],
        was_home: bool,
        registration_started: float,
        ack: RegistrationMessage,
    ) -> None:
        self._registering_with = None
        if not ack.ok:
            return
        self.state = AWAY
        self.current_foreign_agent = agent
        self.temp_address = None
        self.iface.alias_addresses = set()
        self.registrations += 1
        self.port.health_registration(agent, self.port.now - registration_started)
        self._last_fa_heard = self.port.now
        if self._fa_lifetime <= 0:
            self._fa_lifetime = DEFAULT_ADVERT_LIFETIME
        self.port.set_timer(
            self.WATCHDOG_KEY, self._fa_lifetime, self._check_agent_silence
        )
        # Step 2: the home agent.
        self._register_with_home_agent(agent)
        # Step 3: the old foreign agent (unless we came from home or
        # already disconnected explicitly).
        if old_fa is not None and old_fa != agent and not was_home:
            self._notify_old_foreign_agent(old_fa, new_agent=agent)

    def _fa_connect_failed(self) -> None:
        self._registering_with = None

    def _register_with_home_agent(self, foreign_agent: IPAddress) -> None:
        message = RegistrationMessage(
            kind=HA_REGISTER,
            seq=self.next_seq(),
            mobile_host=self.home_address,
            agent=foreign_agent,
        )
        self.registrar.send(self.home_agent, message)

    def _notify_old_foreign_agent(self, old_fa: IPAddress, new_agent: IPAddress) -> None:
        message = RegistrationMessage(
            kind=FA_DISCONNECT,
            seq=self.next_seq(),
            mobile_host=self.home_address,
            agent=new_agent,
        )
        self.registrar.send(old_fa, message)

    # ------------------------------------------------------------------
    # Foreign agent silence watchdog
    # ------------------------------------------------------------------
    def _check_agent_silence(self) -> None:
        if self.state != AWAY or self._fa_lifetime <= 0:
            return
        silent_for = self.port.now - self._last_fa_heard
        if silent_for >= 2 * self._fa_lifetime:
            # The agent is gone (crashed, or we drifted out of range
            # without hearing anyone new): the connection is dead.
            self.port.trace(
                "mhrp.register", event="mh-silence-disconnect",
                agent=str(self.current_foreign_agent),
            )
            self.silence_disconnects += 1
            self.current_foreign_agent = None
            self.state = DISCONNECTED
            return
        if silent_for >= self._fa_lifetime:
            # Past the advertised lifetime: ask before giving up.
            self._solicit()
        self.port.set_timer(
            self.WATCHDOG_KEY, self._fa_lifetime / 2, self._check_agent_silence
        )

    # ------------------------------------------------------------------
    # MHRP packets addressed to this host
    # ------------------------------------------------------------------
    def _on_mhrp_packet(self, packet: IPPacket, iface=None) -> None:
        """A tunneled packet reached the host itself.

        Two legitimate cases: the host is at home and a stale chain
        re-tunneled the packet to the home address (Section 6.3), or the
        host is its own foreign agent and this is a normal tunnel
        delivery (Section 2).  Either way the host updates the stale
        caches recorded in the packet and delivers the payload to itself.
        """
        payload = packet.payload
        if not isinstance(payload, MHRPPayload):
            return
        header = payload.header
        if header.mobile_host != self.home_address:
            return  # tunneled to us by mistake; nothing useful to do
        # Section 6.3: while at home (or disconnected) the reported
        # location is zero — "indicating that it is currently connected
        # to its home network and that S's cache entry ... should be
        # deleted".
        location = mh_reported_location(
            self.state, self.temp_address, self.current_foreign_agent
        )
        stale = stale_chain(header.previous_sources, packet.src)
        for address in stale:
            send_location_update(
                self.port, self, address, self.home_address, location, self.limiter
            )
        self.port.health_tunnel_delivery(
            str(header.mobile_host), len(header.previous_sources)
        )
        decapsulate(packet)
        self.port.trace(
            "mhrp.tunnel",
            event="mh-self-deliver",
            uid=packet.uid,
        )
        self._redeliver_local(packet, iface)

    # ------------------------------------------------------------------
    # Snapshot contract (PR 5) — also the cross-partition migration format
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able protocol state of the mobile host module.

        This is what travels when a host crosses a partition boundary in
        :mod:`repro.partition`: the destination partition materializes a
        visitor host and :meth:`load_state`\\ s this record before
        re-attaching it.  Pending registrar retransmissions are captured
        as their sequence numbers only — their timers belong to the old
        partition's event queue and are *not* migrated; the re-attach at
        the destination starts a fresh Section 3 notification sequence.
        """
        return {
            "state": self.state,
            "current_foreign_agent": (
                str(self.current_foreign_agent)
                if self.current_foreign_agent is not None else None
            ),
            "temp_address": (
                str(self.temp_address) if self.temp_address is not None else None
            ),
            "fa_boot_ids": {
                str(agent): boot_id
                for agent, boot_id in sorted(
                    self._fa_boot_ids.items(), key=lambda kv: str(kv[0])
                )
            },
            "last_fa_heard": self._last_fa_heard,
            "fa_lifetime": self._fa_lifetime,
            "moves": self.moves,
            "registrations": self.registrations,
            "silence_disconnects": self.silence_disconnects,
            "seq": self.next_seq.last,
            "limiter": self.limiter.state_dict(),
            "registrar": self.registrar.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` protocol state onto this host.

        ``registrar`` pending entries are informational — retransmission
        timers are not recreated (see :meth:`state_dict`)."""
        self.state = state["state"]
        cfa = state["current_foreign_agent"]
        self.current_foreign_agent = IPAddress(cfa) if cfa is not None else None
        temp = state["temp_address"]
        self.temp_address = IPAddress(temp) if temp is not None else None
        self._fa_boot_ids = {
            IPAddress(agent): int(boot_id)
            for agent, boot_id in state["fa_boot_ids"].items()
        }
        self._registering_with = None
        self._last_fa_heard = float(state["last_fa_heard"])
        self._fa_lifetime = float(state["fa_lifetime"])
        self.moves = int(state["moves"])
        self.registrations = int(state["registrations"])
        self.silence_disconnects = int(state["silence_disconnects"])
        self.next_seq.last = int(state["seq"])
        self.limiter.load_state(state["limiter"])


# ----------------------------------------------------------------------
# Role composition (Section 2) — written once, for both substrates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RoleClasses:
    """One substrate's role constructors; each wires its role into the
    node it is given."""

    foreign_agent: Callable  # (node, iface_name, **kwargs)
    home_agent: Callable     # (node, iface_name, store=..., **kwargs)
    cache_agent: Callable    # (node, examine_forwarded=...)
    tunnel_errors: Callable  # (node, cache_agent=...)


@dataclass
class AgentRouter:
    """The composed roles living on one node."""

    node: object
    cache_agent: Optional[CacheAgentRole]
    foreign_agent: Optional[ForeignAgentRole]
    home_agent: Optional[HomeAgentRole]


#: Options only the foreign agent understands.
_FOREIGN_AGENT_ONLY = frozenset({"keep_forwarding_pointers", "believe_home_agent"})


def compose_agent_roles(
    classes: RoleClasses,
    node,
    home_iface: Optional[str] = None,
    foreign_iface: Optional[str] = None,
    cache: bool = True,
    examine_forwarded: bool = False,
    store: Optional[LocationStore] = None,
    durable_database: bool = True,
    **agent_kwargs,
) -> AgentRouter:
    """Attach agent roles to ``node``.

    Section 2: "The functionality of a foreign agent, home agent, and
    cache agent may be provided by separate hosts or routers on a
    network, or may be combined in different ways on one or more hosts
    or routers ... any node functioning as a home agent, foreign agent,
    or mobile host should generally also function as a cache agent."

    The attach order is what the roles require: the **foreign agent**
    first (packets for locally visiting hosts are delivered on-link
    before anything else looks at them), the **home agent** second
    (interception of away hosts' traffic), the **cache agent** last
    (tunneling is an optimization applied only to packets the agents
    above did not claim), then the Section 4.5 tunnel-error handler —
    every agent is a tunnel head, so every agent reverses returned ICMP
    errors.

    Args:
        classes: the substrate's role constructors.
        node: the router (or support host) to equip.
        home_iface: interface of the home network to serve as home agent
            for (``None`` = no home-agent role).
        foreign_iface: interface visitors attach through (``None`` = no
            foreign-agent role).
        cache: also run a cache agent (recommended by the paper).
        examine_forwarded: the cache agent also snoops location updates
            it forwards — a first-hop router caching on behalf of a
            network of unmodified hosts (Section 6.2).
        store: durable store for the home agent database; when ``None``
            and ``durable_database`` is true, a fresh
            :class:`~repro.core.persistence.MemoryStore` plays the disk.
        agent_kwargs: forwarded to both agent constructors where
            applicable (e.g. ``max_previous_sources``).
    """
    cache_agent = foreign_agent = home_agent = None
    if foreign_iface is not None:
        foreign_agent = classes.foreign_agent(node, foreign_iface, **agent_kwargs)
    if home_iface is not None:
        if store is None and durable_database:
            store = MemoryStore()
        home_agent = classes.home_agent(
            node, home_iface, store=store,
            **{k: v for k, v in agent_kwargs.items() if k not in _FOREIGN_AGENT_ONLY},
        )
    if cache:
        cache_agent = classes.cache_agent(node, examine_forwarded=examine_forwarded)
        if foreign_agent is not None:
            foreign_agent.cache_agent = cache_agent
        if home_agent is not None:
            # The co-located cache must never contradict the home
            # agent's authoritative database about its *own* mobile
            # hosts: every registration refreshes (or clears, for a
            # return home) the cache entry.
            home_agent.location_listeners.append(cache_agent.learn)
    classes.tunnel_errors(node, cache_agent=cache_agent)
    return AgentRouter(node, cache_agent, foreign_agent, home_agent)
