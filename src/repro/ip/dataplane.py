"""The per-hop dataplane pipeline.

Every packet a node touches — locally originated, transit, or inbound —
flows through one explicit pipeline of named stages:

::

    ingress ──► extension hooks ──► local-delivery
       │          (outbound /           ▲
       │           transit)             │ self-pointing route
       │              │                 │
       └──────────────┴──────► ttl/route ──► arp-resolve ──► egress

- **ingress** — entry point for packets received from the link layer
  (or injected by tests): broadcast and local-address classification,
  RFC 791 loose-source-route advancement.
- **extension hooks** — the mobility protocols' seam.  Hooks are
  registered per stage (``outbound`` for locally originated packets,
  ``transit`` for packets being forwarded) and keep the historical
  tri-state contract: return ``None`` to pass, a rewritten
  :class:`~repro.ip.packet.IPPacket` to route instead, or
  :data:`CONSUMED` when the packet was fully handled.
- **local-delivery** — protocol-handler dispatch for packets addressed
  to this node.
- **ttl/route** — TTL decrement/expiry and the longest-prefix-match
  lookup.
- **arp-resolve** — next-hop hardware address resolution (may queue the
  packet inside the ARP service).
- **egress** — MTU enforcement and hand-off to the interface.

The pipeline also owns the node's :class:`DataplaneCounters`; the
``python -m repro netstat`` CLI renders them per node and per stage.

:class:`~repro.ip.node.IPNode` drives the pipeline; the mobility roles
in ``repro.core`` register themselves as stage hooks instead of being
scanned through a bespoke extension interface.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import RoutingError
from repro.ip import icmp as icmp_mod
from repro.ip.address import IPAddress
from repro.ip.packet import IPPacket
from repro.link.frame import ETHERTYPE_IP, FRAME_OVERHEAD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ip.node import IPNode
    from repro.link.frame import HWAddress
    from repro.link.interface import NetworkInterface

#: Sentinel returned by extension hooks to say "I consumed this packet".
CONSUMED = object()

#: The IPv4 limited broadcast address.
LIMITED_BROADCAST = IPAddress("255.255.255.255")
_LIMITED_BROADCAST_VALUE = LIMITED_BROADCAST.value

#: The pipeline's stage names, in traversal order.
STAGES = (
    "ingress",
    "outbound",
    "transit",
    "local-delivery",
    "ttl-route",
    "arp-resolve",
    "egress",
)

#: A hook for locally originated packets: ``fn(packet)`` tri-state.
OutboundHook = Callable[[IPPacket], object]
#: A hook for transit packets: ``fn(packet, in_iface)`` tri-state.
TransitHook = Callable[[IPPacket, "NetworkInterface"], object]


class DataplaneCounters:
    """Per-node packet counters, one attribute per pipeline event.

    Counter → stage mapping (what :func:`stage_of` reports):

    ==============  ==============  =======================================
    counter         stage           meaning
    ==============  ==============  =======================================
    ``rx``          ingress         packets entering from the link layer
    ``originated``  outbound        packets this node created and sent
    ``tunneled``    hooks           packets a home/foreign agent tunneled
    ``diverted``    hooks           packets a cache agent (or a foreign
                                    agent's local shortcut) pulled off the
                                    normal route
    ``delivered``   local-delivery  packets handed to a protocol handler
    ``forwarded``   ttl-route       transit packets passed to routing
    ``slow_path``   ttl-route       forwarded packets carrying IP options
    ``dropped``     (any)           per-reason drop counts
    ``icmp_sent``   (any)           ICMP errors this node generated
    ``tx``          egress          packets handed to an interface
    ==============  ==============  =======================================

    The mobility roles bump counters by name (``RolePort.bump`` in
    :mod:`repro.wire.roles` uses ``setattr``), so a grep for ``+=``
    misses them — ``tunneled`` is only ever incremented that way.
    """

    __slots__ = (
        "rx",
        "tx",
        "originated",
        "forwarded",
        "delivered",
        "tunneled",
        "diverted",
        "slow_path",
        "icmp_sent",
        "dropped",
        "dropped_total",
    )

    #: counter name -> pipeline stage, for per-stage reporting.
    STAGE_OF = {
        "rx": "ingress",
        "originated": "outbound",
        "tunneled": "hooks",
        "diverted": "hooks",
        "delivered": "local-delivery",
        "forwarded": "ttl-route",
        "slow_path": "ttl-route",
        "dropped": "*",
        "icmp_sent": "*",
        "tx": "egress",
    }

    def __init__(self) -> None:
        self.rx = 0
        self.tx = 0
        self.originated = 0
        self.forwarded = 0
        self.delivered = 0
        self.tunneled = 0
        self.diverted = 0
        self.slow_path = 0
        self.icmp_sent = 0
        #: drop reason -> count (e.g. ``ttl-expired``, ``no-route``).
        self.dropped: Dict[str, int] = {}
        self.dropped_total = 0

    def note_drop(self, reason: str) -> None:
        self.dropped_total += 1
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    def snapshot(self) -> Dict[str, int]:
        """Flat dict of every counter (drop reasons as ``dropped[...]``)."""
        out = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("dropped", "dropped_total")
        }
        out["dropped_total"] = self.dropped_total
        for reason in sorted(self.dropped):
            out[f"dropped[{reason}]"] = self.dropped[reason]
        return out

    def clear(self) -> None:
        for name in self.__slots__:
            if name == "dropped":
                self.dropped = {}
            else:
                setattr(self, name, 0)

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-able counter values for the session snapshot/diff contract."""
        out: Dict[str, object] = {
            name: getattr(self, name) for name in self.__slots__ if name != "dropped"
        }
        out["dropped"] = dict(sorted(self.dropped.items()))
        return out

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore every counter from :meth:`state_dict`."""
        for name in self.__slots__:
            if name == "dropped":
                self.dropped = dict(state["dropped"])  # type: ignore[arg-type]
            else:
                setattr(self, name, int(state[name]))  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = " ".join(f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"<DataplaneCounters {parts or 'idle'}>"


class Dataplane:
    """One node's packet pipeline: stage hooks, counters, and the stage
    driver methods themselves.

    Hook registration replaces the historical
    ``NetworkLayerExtension`` scan: a role registers the callables it
    wants run at the ``outbound`` and/or ``transit`` stage, in the order
    registration happens (which is the order the paper's role
    composition requires — see :mod:`repro.core.agent_router`).
    """

    __slots__ = (
        "node",
        "counters",
        "_outbound_hooks",
        "_transit_hooks",
        "_hook_names",
    )

    def __init__(self, node: "IPNode") -> None:
        self.node = node
        self.counters = DataplaneCounters()
        self._outbound_hooks: List[OutboundHook] = []
        self._transit_hooks: List[TransitHook] = []
        self._hook_names: Dict[str, List[str]] = {"outbound": [], "transit": []}

    # ------------------------------------------------------------------
    # Hook registration
    # ------------------------------------------------------------------
    def register(self, stage: str, hook: Callable, name: str = "") -> None:
        """Register ``hook`` at ``stage`` (``"outbound"`` or ``"transit"``).

        Outbound hooks are called ``hook(packet)``; transit hooks
        ``hook(packet, in_iface)``.  Both follow the tri-state contract
        (``None`` / rewritten packet / :data:`CONSUMED`).
        """
        if stage == "outbound":
            self._outbound_hooks.append(hook)
        elif stage == "transit":
            self._transit_hooks.append(hook)
        else:
            raise ValueError(
                f"unknown hook stage {stage!r} (hookable: outbound, transit)"
            )
        self._hook_names[stage].append(name or getattr(hook, "__qualname__", repr(hook)))

    def hook_names(self, stage: str) -> Tuple[str, ...]:
        """The registered hook labels at ``stage``, in run order."""
        return tuple(self._hook_names[stage])

    # ------------------------------------------------------------------
    # Stage: outbound (locally originated packets)
    # ------------------------------------------------------------------
    def outbound(self, packet: IPPacket) -> None:
        node = self.node
        sim = node.sim
        self.counters.originated += 1
        if sim.trace_active("ip.send"):
            sim.trace("ip.send", node.name, packet=packet.stamp(), uid=packet.uid)
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.packet_sent(sim.now, node.name, packet)
        auditor = sim.auditor
        if auditor is not None:
            auditor.packet_sent(sim.now, node.name, packet)
        obs = sim.obs
        if obs is None:
            for hook in self._outbound_hooks:
                result = hook(packet)
                if result is CONSUMED:
                    return
                if result is not None:
                    packet = result
                    break
        else:
            # Stage timing around the MHRP seam — only ever entered
            # with an obs plane attached, so the detached hot path
            # never reads a wall clock.
            started = perf_counter()
            consumed = False
            for hook in self._outbound_hooks:
                result = hook(packet)
                if result is CONSUMED:
                    consumed = True
                    break
                if result is not None:
                    packet = result
                    break
            obs.time_stage("sim", "outbound-hooks", perf_counter() - started)
            if consumed:
                return
        self.route(packet, transit=False)

    # ------------------------------------------------------------------
    # Stage: ingress (packets arriving from the link layer)
    # ------------------------------------------------------------------
    def ingress(self, packet: IPPacket, iface: Optional["NetworkInterface"]) -> None:
        node = self.node
        self.counters.rx += 1
        dst = packet.dst
        value = dst._value
        if value == _LIMITED_BROADCAST_VALUE or (
            iface is not None and value == iface.network._broadcast._value
        ):
            self.local_delivery(packet, iface)
            return
        if node.has_address(dst):
            lsrr = packet.find_lsrr()
            if lsrr is not None and not lsrr.exhausted:
                # RFC 791 loose source routing: consume the next hop,
                # record our address, and re-enter ingress as if the
                # packet had just arrived for its new destination — so
                # stage hooks (e.g. a forwarder delivering to a visiting
                # mobile host) get to see it.
                next_dst = lsrr.advance(recorded=dst)
                packet.dst = next_dst
                self.ingress(packet, iface)
                return
            self.local_delivery(packet, iface)
            return
        # Transit hooks see packets even on non-forwarding nodes: a
        # support host acting as a home agent attracts its mobile hosts'
        # traffic via proxy ARP and must get the chance to claim it
        # (Section 2 allows the agent to be "a separate support host").
        rewritten = False
        if iface is not None:
            obs = node.sim.obs
            if obs is None:
                for hook in self._transit_hooks:
                    result = hook(packet, iface)
                    if result is CONSUMED:
                        return
                    if result is not None:
                        packet = result
                        rewritten = True
                        break
            else:
                started = perf_counter()
                consumed = False
                for hook in self._transit_hooks:
                    result = hook(packet, iface)
                    if result is CONSUMED:
                        consumed = True
                        break
                    if result is not None:
                        packet = result
                        rewritten = True
                        break
                obs.time_stage("sim", "transit-hooks", perf_counter() - started)
                if consumed:
                    return
        if not node.forwarding and not rewritten:
            self.drop(packet, "not-a-router")
            return
        self.forward(packet)

    # ------------------------------------------------------------------
    # Stage: ttl/route
    # ------------------------------------------------------------------
    def forward(self, packet: IPPacket) -> None:
        """TTL checkpoint for transit packets, then routing."""
        node = self.node
        if packet.ttl <= 1:
            self.drop(packet, "ttl-expired")
            node._send_error(
                icmp_mod.ICMPError.time_exceeded(packet, quote_full=node.icmp_quote_full)
            )
            return
        packet.ttl -= 1
        counters = self.counters
        counters.forwarded += 1
        if packet.options:
            counters.slow_path += 1
        sim = node.sim
        # The one length this hop computes: the stamp, the MTU check and
        # the frame size all reuse it.
        length = packet.total_length
        if sim.trace_active("ip.forward"):
            sim.trace("ip.forward", node.name, packet=packet.stamp(length), uid=packet.uid)
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.packet_forwarded(sim.now, node.name, packet)
        auditor = sim.auditor
        if auditor is not None:
            auditor.packet_forwarded(sim.now, node.name, packet)
        self.route(packet, transit=True, length=length)

    def route(
        self, packet: IPPacket, transit: bool, length: Optional[int] = None
    ) -> None:
        node = self.node
        route = node.routing_table.lookup(packet.dst)
        if route is None:
            self.drop(packet, "no-route")
            if transit:
                node._send_error(
                    icmp_mod.ICMPError.unreachable(
                        packet,
                        code=icmp_mod.CODE_NET_UNREACHABLE,
                        quote_full=node.icmp_quote_full,
                    )
                )
            return
        iface = node.interfaces.get(route.interface_name)
        if iface is None:
            raise RoutingError(f"{node.name}: route {route} names unknown interface")
        next_hop = route.next_hop if route.next_hop is not None else packet.dst
        if next_hop == iface.ip_address:
            # A self-pointing route (e.g. a host route installed for a
            # returned-home mobile host) means local delivery.
            self.local_delivery(packet, iface)
            return
        self.arp_resolve(iface, next_hop, packet, length)

    # ------------------------------------------------------------------
    # Stage: arp-resolve
    # ------------------------------------------------------------------
    def arp_resolve(
        self,
        iface: "NetworkInterface",
        next_hop: IPAddress,
        packet: IPPacket,
        length: Optional[int] = None,
    ) -> None:
        hw = self.node.arp[iface.name].resolve(next_hop, packet)
        if hw is not None:
            self.egress(iface, hw, packet, length)
        # A None result means the packet is queued inside the ARP
        # service; resolution (or failure) re-enters the pipeline via
        # the node's ARP callbacks.

    # ------------------------------------------------------------------
    # Stage: egress
    # ------------------------------------------------------------------
    def egress(
        self,
        iface: "NetworkInterface",
        hw: "HWAddress",
        packet: IPPacket,
        length: Optional[int] = None,
    ) -> None:
        """Final transmit step: enforce the outgoing medium's MTU.

        All packets are treated as don't-fragment (the modern PMTU
        discipline): an oversize packet is dropped and answered with
        ICMP "fragmentation needed".  Tunneling grows packets, so this
        is where the tunnel-overhead-vs-MTU interaction bites.

        ``length`` is the packet's total length when the caller has just
        computed it (:meth:`forward`); otherwise it is computed here.
        """
        if length is None:
            length = packet.total_length
        node = self.node
        medium = iface.medium
        if medium is not None and length > medium.mtu:
            self.drop(packet, "mtu-exceeded")
            node._send_error(
                icmp_mod.ICMPError.unreachable(
                    packet,
                    code=icmp_mod.CODE_FRAG_NEEDED,
                    quote_full=node.icmp_quote_full,
                )
            )
            return
        self.counters.tx += 1
        iface.send_to(hw, ETHERTYPE_IP, packet, length + FRAME_OVERHEAD)

    # ------------------------------------------------------------------
    # Stage: local-delivery
    # ------------------------------------------------------------------
    def local_delivery(
        self, packet: IPPacket, iface: Optional["NetworkInterface"]
    ) -> None:
        node = self.node
        sim = node.sim
        self.counters.delivered += 1
        if sim.trace_active("ip.deliver"):
            sim.trace("ip.deliver", node.name, packet=packet.stamp(), uid=packet.uid)
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.packet_delivered(sim.now, node.name, packet)
        auditor = sim.auditor
        if auditor is not None:
            auditor.packet_delivered(sim.now, node.name, packet)
        handler = node._protocol_handlers.get(packet.protocol)
        if handler is None:
            self.drop(packet, "protocol-unreachable")
            if not packet.dst == LIMITED_BROADCAST:
                node._send_error(
                    icmp_mod.ICMPError.unreachable(
                        packet,
                        code=icmp_mod.CODE_PROTOCOL_UNREACHABLE,
                        quote_full=node.icmp_quote_full,
                    )
                )
            return
        handler(packet, iface)

    # ------------------------------------------------------------------
    # Drops
    # ------------------------------------------------------------------
    def drop(self, packet: IPPacket, reason: str) -> None:
        self.counters.note_drop(reason)
        node = self.node
        sim = node.sim
        if sim.trace_active("ip.drop"):
            sim.trace(
                "ip.drop", node.name, reason=reason, packet=packet.stamp(), uid=packet.uid
            )
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.packet_dropped(sim.now, node.name, packet, reason)
        auditor = sim.auditor
        if auditor is not None:
            auditor.packet_dropped(sim.now, node.name, packet, reason)
