"""The protocol-health hub: streaming metrics for a running simulation.

:class:`ProtocolHealth` is fed from two channels:

- **direct hooks** — the dataplane pipeline and the mobility roles call
  the ``packet_*`` / ``cache_lookup`` / ``mh_moved`` /
  ``registration_complete`` / ``tunnel_delivery`` methods through
  ``sim.telemetry``, which is ``None`` unless a hub is attached, so a
  disabled simulation pays one attribute load per call site (the same
  discipline as :meth:`Tracer.active <repro.netsim.trace.Tracer.active>`).
  These work even when tracing is disabled or restricted.
- **the tracer stream** — a ``Tracer.subscribe`` listener, scoped to
  :attr:`ProtocolHealth.TRACE_CATEGORIES`, consumes the
  MHRP control-plane events (``mhrp.tunnel``, ``mhrp.loop``) already
  emitted for tests, turning them into tunnel-chain lengths and
  loop-dissolution times.  Listeners see every recorded entry even
  under a ring-buffer bound, so memory stays bounded on long runs.
  It stays synchronous: :meth:`~ProtocolHealth.packet_delivered` reads
  the per-packet flight state it updates.

The hub's :attr:`~ProtocolHealth.index` (a
:class:`~repro.telemetry.journeys.JourneyIndex`) is not fed per entry:
it reads the tracer and folds the journey entries when it is queried
(see :mod:`repro.telemetry.journeys`), so a run nobody asks about
journeys pays nothing for them.

What the hub measures (the quantities Sections 5 and 7 of the paper
argue about, and the ones the handover-performance literature
evaluates):

- end-to-end **latency** per delivered data packet;
- **hop count** and **path stretch** — actual hops over the current
  shortest path between origin and delivery node (requires ``nodes``
  at ``sim.attach(hub, nodes=...)`` so the hub can BFS the topology).
  The baseline is one BFS per origin over the node/medium graph,
  memoized until the wiring changes: every interface attach or detach
  bumps ``sim.wiring``, whether a mobility protocol moved the host or
  a script re-wired it directly;
- **tunnel-chain length** (tunnel operations per delivered packet) and
  the **previous-source-list length** observed at delivery;
- handoff **blackout**: last data delivery to a mobile host before a
  move → first data delivery after it;
- **registration latency** (connect sent → connect acknowledged);
- **loop-dissolution time** (first re-tunnel → ``mhrp.loop`` dissolve);
- cache hit/miss ratio, plus sent/forwarded/delivered/dropped counts
  and a per-second delivery time series.

Control traffic — MHRP tunnels in flight, registration messages,
location updates, agent discovery, ICMP errors — is excluded from the
data-packet distributions and counted separately.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.ip.icmp import ICMPError, LocationUpdate, RouterAdvertisement, RouterSolicitation
from repro.ip.packet import IPPacket
from repro.ip.protocols import MHRP as PROTO_MHRP
from repro.ip.protocols import MOBILE_CONTROL
from repro.netsim.trace import TraceEntry
from repro.telemetry.instruments import Counter, Histogram, TimeSeries
from repro.telemetry.journeys import JourneyIndex

#: ``mhrp.tunnel`` events that put (or keep) a packet inside a tunnel.
ENCAP_EVENTS = frozenset({
    "sender-encapsulate",
    "agent-encapsulate",
    "home-intercept",
    "home-retunnel",
    "fa-retunnel",
})

#: ICMP payload types that are control traffic, not application data.
_CONTROL_PAYLOADS = (LocationUpdate, RouterAdvertisement, RouterSolicitation, ICMPError)


class _Flight:
    """Per-packet in-flight record, created at origination."""

    __slots__ = ("t_sent", "origin", "forwards", "tunnels", "first_retunnel",
                 "endpoint_hops", "last_endpoint")

    def __init__(self, t_sent: float, origin: str) -> None:
        self.t_sent = t_sent
        self.origin = origin
        self.forwards = 0
        self.tunnels = 0
        self.first_retunnel: Optional[float] = None
        # Tunnel-endpoint deliveries (an agent receiving an MHRP packet
        # retransmits it on one more link that never passes forward()).
        self.endpoint_hops = 0
        self.last_endpoint: Optional[str] = None


class ProtocolHealth:
    """Streaming protocol-health telemetry for one simulator.

    Typical use::

        hub = sim.attach(ProtocolHealth(), nodes=all_nodes)
        ... run the scenario ...
        print(hub.render("my scenario"))
        summary = hub.summary()          # flat dict for sweeps / JSON

    ``nodes`` enables path-stretch measurement (the hub BFSes the
    node/medium graph for shortest paths, once per origin until an
    interface next attaches or detaches).  Without it every other
    metric still works.
    """

    def __init__(
        self,
        max_inflight: int = 65536,
        max_completed_journeys: Optional[int] = 4096,
        journey_index: bool = True,
        delivery_bin: float = 1.0,
    ) -> None:
        self.max_inflight = max_inflight
        # Distributions.
        self.latency = Histogram()
        self.hop_count = Histogram()
        self.stretch = Histogram()
        self.tunnel_chain = Histogram()
        self.prev_sources = Histogram()
        self.blackout = Histogram()
        self.registration_latency = Histogram()
        self.loop_dissolution = Histogram()
        # Counters.
        self.sent = Counter()
        self.forwarded = Counter()
        self.delivered = Counter()
        self.control_delivered = Counter()
        self.dropped: Dict[str, int] = {}
        self.dropped_total = Counter()
        self.cache_hits = Counter()
        self.cache_misses = Counter()
        self.moves = Counter()
        self.registrations = Counter()
        self.loops_dissolved = Counter()
        self.deliveries_per_bin = TimeSeries(bin_width=delivery_bin)
        # Streaming state.
        self._inflight: "OrderedDict[int, _Flight]" = OrderedDict()
        self.inflight_evicted = 0
        self._last_delivery: Dict[str, float] = {}
        self._pending_blackout: Dict[str, float] = {}
        self.index: Optional[JourneyIndex] = (
            JourneyIndex(max_completed=max_completed_journeys) if journey_index else None
        )
        self.sim = None
        self._nodes: Optional[Dict[str, object]] = None
        #: origin -> {node name: hops}, valid while ``sim.wiring`` equals
        #: ``_dist_wiring``.
        self._dist_from: Dict[str, Dict[str, int]] = {}
        self._dist_wiring = -1

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    #: Role attribute this instrument occupies on the simulator.
    instrument_role = "telemetry"

    #: The only trace categories :meth:`_on_trace` reads; both the
    #: simulator subscription and the engine ``HealthFeed`` use this set.
    TRACE_CATEGORIES = ("mhrp.tunnel", "mhrp.loop")

    def bind(self, sim, nodes: Optional[list] = None, subscribe_trace: bool = True) -> None:
        """Instrument-registry hook: wire listeners into ``sim``."""
        self.sim = sim
        if nodes is not None:
            self._nodes = {node.name: node for node in nodes}
        self._subscribed = subscribe_trace
        if subscribe_trace:
            sim.tracer.subscribe(self._on_trace, categories=self.TRACE_CATEGORIES)
            if self.index is not None:
                self.index.attach(sim.tracer)

    def unbind(self, sim) -> None:
        """Instrument-registry hook: withdraw the tracer listener, and
        fold the journey index one last time before it stops reading."""
        if getattr(self, "_subscribed", False):
            sim.tracer.unsubscribe(self._on_trace)
            if self.index is not None:
                self.index.detach()
        self._subscribed = False
        self.sim = None

    # ------------------------------------------------------------------
    # Direct dataplane hooks (called through sim.telemetry)
    # ------------------------------------------------------------------
    def packet_sent(self, t: float, node: str, packet: IPPacket) -> None:
        self.sent.inc()
        self._inflight[packet.uid] = _Flight(t, node)
        while len(self._inflight) > self.max_inflight:
            self._inflight.popitem(last=False)
            self.inflight_evicted += 1

    def packet_forwarded(self, t: float, node: str, packet: IPPacket) -> None:
        self.forwarded.inc()
        flight = self._inflight.get(packet.uid)
        if flight is not None:
            flight.forwards += 1

    def packet_delivered(self, t: float, node: str, packet: IPPacket) -> None:
        proto = packet.protocol
        if proto == PROTO_MHRP:
            # A tunnel endpoint: the agent will decapsulate (or
            # re-tunnel) and push the packet out on another link, a hop
            # forward() never sees — unless the endpoint is the mobile
            # host itself, which delivers to itself in place.
            flight = self._inflight.get(packet.uid)
            if flight is not None:
                flight.endpoint_hops += 1
                flight.last_endpoint = node
            return
        if proto == MOBILE_CONTROL:
            # Registration machinery: pure control, journey over.
            self._inflight.pop(packet.uid, None)
            return
        if isinstance(packet.payload, _CONTROL_PAYLOADS):
            # Location updates, agent discovery, ICMP errors: control.
            self.control_delivered.inc()
            self._inflight.pop(packet.uid, None)
            return
        self.delivered.inc()
        self.deliveries_per_bin.record(t)
        pending = self._pending_blackout.pop(node, None)
        if pending is not None:
            self.blackout.record(t - pending)
        self._last_delivery[node] = t
        flight = self._inflight.pop(packet.uid, None)
        if flight is None:
            return
        self.latency.record(t - flight.t_sent)
        hops = flight.forwards + 1 + flight.endpoint_hops
        if flight.last_endpoint == node:
            hops -= 1  # self-delivery at the final endpoint: no extra link
        self.hop_count.record(hops)
        self.tunnel_chain.record(flight.tunnels)
        if self._nodes is not None and flight.origin != node:
            shortest = self._shortest_hops(flight.origin, node)
            if shortest:
                self.stretch.record(hops / shortest)

    def packet_dropped(self, t: float, node: str, packet: IPPacket, reason: str) -> None:
        self.dropped_total.inc()
        self.dropped[reason] = self.dropped.get(reason, 0) + 1
        self._inflight.pop(packet.uid, None)

    # ------------------------------------------------------------------
    # Direct agent hooks
    # ------------------------------------------------------------------
    def cache_lookup(self, node: str, hit: bool) -> None:
        (self.cache_hits if hit else self.cache_misses).inc()

    def mh_moved(self, t: float, node: str) -> None:
        self.moves.inc()
        last = self._last_delivery.get(node)
        if last is not None:
            # Keep the earliest unresolved marker if the host moves
            # again before any delivery lands.
            self._pending_blackout.setdefault(node, last)

    def registration_complete(self, t: float, node: str, agent, latency: float) -> None:
        self.registrations.inc()
        self.registration_latency.record(latency)

    def tunnel_delivery(self, t: float, node: str, mobile_host, n_previous_sources: int) -> None:
        self.prev_sources.record(n_previous_sources)

    # ------------------------------------------------------------------
    # Tracer listener (control-plane stream)
    # ------------------------------------------------------------------
    def _on_trace(self, entry: TraceEntry) -> None:
        category = entry.category
        if category == "mhrp.tunnel":
            detail = entry.detail
            uid = detail.get("uid")
            if uid is None:
                return
            flight = self._inflight.get(uid)
            if flight is None:
                return
            event = detail.get("event")
            if event in ENCAP_EVENTS:
                flight.tunnels += 1
                if event == "fa-retunnel" and flight.first_retunnel is None:
                    flight.first_retunnel = entry.time
        elif category == "mhrp.loop" and entry.detail.get("event") == "dissolve":
            self.loops_dissolved.inc()
            uid = entry.detail.get("uid")
            flight = self._inflight.get(uid) if uid is not None else None
            if flight is not None:
                started = (
                    flight.first_retunnel
                    if flight.first_retunnel is not None
                    else flight.t_sent
                )
                self.loop_dissolution.record(entry.time - started)

    # ------------------------------------------------------------------
    # Shortest-path baseline for stretch
    # ------------------------------------------------------------------
    def _shortest_hops(self, origin: str, dest: str) -> Optional[int]:
        """Minimum link hops from ``origin`` to ``dest`` on the current
        topology, among the ``nodes`` given at attachment.

        One BFS per origin over the node/medium graph gives the hops to
        every node; it is memoized until an interface next attaches or
        detaches (``sim.wiring`` moves).
        """
        wiring = self.sim.wiring
        if wiring != self._dist_wiring:
            self._dist_from.clear()
            self._dist_wiring = wiring
        dist = self._dist_from.get(origin)
        if dist is None:
            dist = self._dist_from[origin] = self._bfs(origin)
        return dist.get(dest)

    def _bfs(self, origin: str) -> Dict[str, int]:
        nodes = self._nodes
        start = nodes.get(origin)
        if start is None:
            return {}
        dist = {origin: 0}
        seen_media = set()
        frontier = [start]
        d = 0
        while frontier:
            d += 1
            reached = []
            for node in frontier:
                for iface in node.interfaces.values():
                    medium = iface.medium
                    if medium is None or id(medium) in seen_media:
                        continue
                    seen_media.add(id(medium))
                    for peer_iface in medium.interfaces:
                        peer = peer_iface.node
                        name = peer.name
                        if name not in dist and nodes.get(name) is peer:
                            dist[name] = d
                            reached.append(peer)
            frontier = reached
        return dist

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Flat, deterministic metric dict (sweep- and JSON-friendly).

        Latencies are reported in milliseconds; every float is rounded
        to 9 decimals so the JSON form is stable enough to commit as a
        CI golden summary.
        """
        out: Dict[str, object] = {
            "packets_sent": self.sent.value,
            "packets_forwarded": self.forwarded.value,
            "packets_delivered": self.delivered.value,
            "packets_control_delivered": self.control_delivered.value,
            "packets_dropped": self.dropped_total.value,
            "moves": self.moves.value,
            "registrations": self.registrations.value,
            "loops_dissolved": self.loops_dissolved.value,
            "cache_hits": self.cache_hits.value,
            "cache_misses": self.cache_misses.value,
            "cache_hit_ratio": _round(
                self.cache_hits.value / (self.cache_hits.value + self.cache_misses.value)
            ) if (self.cache_hits.value + self.cache_misses.value) else 0.0,
            "delivery_peak_per_bin": _round(self.deliveries_per_bin.peak()),
        }
        for reason in sorted(self.dropped):
            out[f"dropped[{reason}]"] = self.dropped[reason]
        for name, hist, scale in (
            ("latency_ms", self.latency, 1000.0),
            ("stretch", self.stretch, 1.0),
            ("hops", self.hop_count, 1.0),
            ("tunnel_chain", self.tunnel_chain, 1.0),
            ("prev_sources", self.prev_sources, 1.0),
            ("blackout_ms", self.blackout, 1000.0),
            ("registration_ms", self.registration_latency, 1000.0),
            ("loop_dissolution_ms", self.loop_dissolution, 1000.0),
        ):
            values = hist.summary(scale=scale)
            out[f"{name}_n"] = values["n"]
            for stat in ("mean", "p50", "p95", "p99", "max"):
                out[f"{name}_{stat}"] = _round(values[stat])
        return out

    def render(self, title: str = "protocol health") -> str:
        """The health panel: one row per distribution, counters below."""
        from repro.metrics.report import Table, fmt_float

        table = Table(title, ["metric", "n", "mean", "p50", "p95", "p99", "max"])
        for label, hist, scale in (
            ("end-to-end latency (ms)", self.latency, 1000.0),
            ("path stretch (vs shortest)", self.stretch, 1.0),
            ("hop count", self.hop_count, 1.0),
            ("tunnel-chain length", self.tunnel_chain, 1.0),
            ("prev-source list @ delivery", self.prev_sources, 1.0),
            ("handoff blackout (ms)", self.blackout, 1000.0),
            ("registration latency (ms)", self.registration_latency, 1000.0),
            ("loop dissolution (ms)", self.loop_dissolution, 1000.0),
        ):
            if hist.count == 0:
                table.add_row(label, 0, "-", "-", "-", "-", "-")
                continue
            values = hist.summary(scale=scale)
            table.add_row(
                label,
                values["n"],
                fmt_float(values["mean"], 3),
                fmt_float(values["p50"], 3),
                fmt_float(values["p95"], 3),
                fmt_float(values["p99"], 3),
                fmt_float(values["max"], 3),
            )
        lookups = self.cache_hits.value + self.cache_misses.value
        ratio = f"{self.cache_hits.value / lookups:.0%}" if lookups else "-"
        drops = ", ".join(f"{k}={v}" for k, v in sorted(self.dropped.items())) or "none"
        lines = [
            table.render(),
            (
                f"packets: {self.sent.value} sent, {self.forwarded.value} forwarded, "
                f"{self.delivered.value} delivered (+{self.control_delivered.value} control), "
                f"{self.dropped_total.value} dropped ({drops})"
            ),
            (
                f"mobility: {self.moves.value} moves, {self.registrations.value} "
                f"registrations, {self.loops_dissolved.value} loops dissolved; "
                f"cache hit ratio {ratio} ({self.cache_hits.value}/{lookups})"
            ),
        ]
        if self.index is not None:
            lines.append(
                f"journeys: {len(self.index)} retained "
                f"({len(self.index.in_flight())} in flight, {self.index.evicted} evicted)"
            )
        return "\n".join(lines)


def _round(value: float, digits: int = 9) -> float:
    return round(float(value), digits)


# ----------------------------------------------------------------------
# Merging (the partitioned backend: one summary per partition)
# ----------------------------------------------------------------------
#: Count-valued summary keys that add exactly across partitions.
_MERGE_COUNT_KEYS = (
    "packets_sent",
    "packets_forwarded",
    "packets_delivered",
    "packets_control_delivered",
    "packets_dropped",
    "moves",
    "registrations",
    "loops_dissolved",
    "cache_hits",
    "cache_misses",
)

#: Distribution prefixes produced by :meth:`ProtocolHealth.summary`.
_MERGE_DIST_PREFIXES = (
    "latency_ms",
    "stretch",
    "hops",
    "tunnel_chain",
    "prev_sources",
    "blackout_ms",
    "registration_ms",
    "loop_dissolution_ms",
)


def merge_health_summaries(summaries) -> Dict[str, object]:
    """Combine per-partition :meth:`ProtocolHealth.summary` dicts into
    one fleet-wide view.

    Counters — including the per-reason ``dropped[...]`` keys — add
    exactly, and the cache hit ratio is recomputed from the merged
    counts.  Distribution statistics cannot be reconstructed from
    summaries alone: ``*_n`` adds and ``*_max`` takes the maximum
    (both exact), while mean and percentiles are n-weighted averages
    of the per-partition values — an approximation, flagged here so
    nobody gates on a merged p99.  The exact per-partition summaries
    stay available on ``PartitionedResult.results``.
    """
    summaries = [s for s in summaries if s]
    if not summaries:
        return {}
    out: Dict[str, object] = {}
    count_keys = list(_MERGE_COUNT_KEYS) + sorted(
        {k for s in summaries for k in s if k.startswith("dropped[")}
    )
    for key in count_keys:
        out[key] = sum(int(s.get(key, 0)) for s in summaries)
    lookups = out["cache_hits"] + out["cache_misses"]
    out["cache_hit_ratio"] = (
        _round(out["cache_hits"] / lookups) if lookups else 0.0
    )
    # Peak deliveries per bin: the max of per-partition peaks (a lower
    # bound on the true global peak; bins are not aligned across
    # partitions, so summing would overstate it).
    out["delivery_peak_per_bin"] = _round(
        max(float(s.get("delivery_peak_per_bin", 0.0)) for s in summaries)
    )
    for prefix in _MERGE_DIST_PREFIXES:
        weights = [int(s.get(f"{prefix}_n", 0)) for s in summaries]
        total = sum(weights)
        out[f"{prefix}_n"] = total
        for stat in ("mean", "p50", "p95", "p99"):
            out[f"{prefix}_{stat}"] = (
                _round(
                    sum(
                        float(s.get(f"{prefix}_{stat}", 0.0)) * n
                        for s, n in zip(summaries, weights)
                    )
                    / total
                )
                if total
                else 0.0
            )
        out[f"{prefix}_max"] = (
            _round(max(float(s.get(f"{prefix}_max", 0.0)) for s in summaries))
            if total
            else 0.0
        )
    return out
