"""The runtime invariant auditor.

:class:`InvariantAuditor` attaches to a simulator exactly like the
telemetry hub (``sim.auditor``): hot paths guard every notification with
a single is-``None`` test, so detached simulations pay one attribute
load and the Figure-1 golden trace stays byte-identical.  It is fed by

- the dataplane stage hooks (sent / forwarded / delivered / dropped),
- the link-layer loss hooks (lost frames, frames absorbed by a crashed
  node, frames dropped by a down or detached interface), and
- :meth:`~repro.netsim.trace.Tracer.subscribe` for the MHRP tunnel and
  loop events (re-tunnel counting and flush/dissolve gating).

The auditor never consumes simulator randomness, never schedules
events, and never emits traces — attaching it cannot perturb a run.

Every breach is recorded as a :class:`~repro.invariants.rules.Violation`
carrying the packet uid, the node, and the rule id.  Call
:meth:`finalize` after the simulation has drained to evaluate the
packet-conservation rule over everything still in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.header import DEFAULT_MAX_PREVIOUS_SOURCES, MHRPHeader
from repro.errors import PacketError
from repro.invariants.rules import (
    KNOWN_DROP_REASONS,
    MAX_RETUNNELS_PER_PACKET,
    POST_DISSOLVE_RETUNNEL_BUDGET,
    Violation,
)
from repro.ip.packet import IPPacket
from repro.ip.protocols import MHRP as PROTO_MHRP

#: Trace events that count as one tunnel hop for the loop budget.
_RETUNNEL_EVENTS = frozenset({"fa-retunnel", "home-retunnel"})

#: Bound on stored violations; a single broken invariant in a hot loop
#: would otherwise flood memory.  The total count is kept regardless.
MAX_RECORDED_VIOLATIONS = 1000


@dataclass
class _Flight:
    """Per-uid tracking state for one logical packet."""

    uid: int
    first_seen: float
    first_node: str
    #: The IP source at origination (``None`` when the packet was first
    #: observed mid-path, e.g. injected by a test harness).
    original_src: Optional[object] = None
    last_seen: float = 0.0
    last_node: str = ""
    #: Terminal events observed (delivery, drop, lost frame, absorbed).
    terminals: int = 0
    #: Previous-source count at the most recent observation.
    prev_count: int = 0
    #: Once the list shrank (overflow flush, loop dissolution) the
    #: no-duplicates / first-is-sender checks no longer apply.
    list_disrupted: bool = False
    retunnels: int = 0
    dissolved: bool = False
    retunnels_after_dissolve: int = 0
    #: (count, last-entry) pairs already wire-probed, to bound cost.
    probed: Set[Tuple[int, int]] = field(default_factory=set)


class InvariantAuditor:
    """Continuously checks the rule catalogue against a running sim.

    Args:
        max_previous_sources: the list bound the topology under audit was
            built with (the ``list-bound`` rule checks against it).
        check_wire: run the wire-format round-trip/corruption probes on
            every MHRP hop (cheap; disable only for huge soaks).
    """

    def __init__(
        self,
        max_previous_sources: int = DEFAULT_MAX_PREVIOUS_SOURCES,
        check_wire: bool = True,
    ) -> None:
        self.max_previous_sources = max_previous_sources
        self.check_wire = check_wire
        self.sim = None
        self.violations: List[Violation] = []
        self.total_violations = 0
        self.flights: Dict[int, _Flight] = {}
        #: uids whose re-tunneling would breach ``cache-convergence``.
        self._no_retunnel_uids: Set[int] = set()
        # Observation counters (for reports; not rule inputs).
        self.packets_tracked = 0
        self.hops_checked = 0
        self.drops: Dict[str, int] = {}
        self.frames_lost: Dict[str, int] = {}
        self.frames_absorbed = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    #: Role attribute this instrument occupies on the simulator.
    instrument_role = "auditor"

    def bind(self, sim) -> None:
        """Instrument-registry hook: wire the trace listener into ``sim``.

        Requires the ``mhrp.tunnel`` / ``mhrp.loop`` trace categories to
        be recordable (the default) for re-tunnel accounting; the
        dataplane and link hooks work regardless of tracer state.
        """
        self.sim = sim
        sim.tracer.subscribe(self._on_trace)

    def unbind(self, sim) -> None:
        """Instrument-registry hook: withdraw the trace listener."""
        sim.tracer.unsubscribe(self._on_trace)
        self.sim = None

    def detach(self) -> None:
        if self.sim is not None and self in self.sim.instruments:
            self.sim.detach(self)
        else:
            self.sim = None

    # ------------------------------------------------------------------
    # Violation recording
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def _violate(
        self,
        rule: str,
        time: float,
        node: str,
        uid: Optional[int],
        message: str,
        **detail,
    ) -> None:
        self.total_violations += 1
        if len(self.violations) < MAX_RECORDED_VIOLATIONS:
            self.violations.append(
                Violation(rule=rule, time=time, node=node, uid=uid,
                          message=message, detail=dict(detail))
            )

    # ------------------------------------------------------------------
    # Flight bookkeeping
    # ------------------------------------------------------------------
    def _flight(self, now: float, node: str, packet: IPPacket) -> _Flight:
        flight = self.flights.get(packet.uid)
        if flight is None:
            flight = _Flight(uid=packet.uid, first_seen=now, first_node=node)
            self.flights[packet.uid] = flight
        flight.last_seen = now
        flight.last_node = node
        return flight

    # ------------------------------------------------------------------
    # Dataplane hooks (mirror the telemetry notification sites)
    # ------------------------------------------------------------------
    def packet_sent(self, now: float, node: str, packet: IPPacket) -> None:
        """Locally originated packet, *before* the outbound stage hooks
        run — so the recorded source is the pre-encapsulation original."""
        flight = self._flight(now, node, packet)
        if flight.original_src is None:
            flight.original_src = packet.src
            self.packets_tracked += 1
        self._check_packet(now, node, packet, flight, forwarded=False)

    def packet_forwarded(self, now: float, node: str, packet: IPPacket) -> None:
        flight = self._flight(now, node, packet)
        self._check_packet(now, node, packet, flight, forwarded=True)

    def packet_delivered(self, now: float, node: str, packet: IPPacket) -> None:
        flight = self._flight(now, node, packet)
        flight.terminals += 1
        self._check_packet(now, node, packet, flight, forwarded=False)

    def packet_dropped(
        self, now: float, node: str, packet: IPPacket, reason: str
    ) -> None:
        flight = self._flight(now, node, packet)
        flight.terminals += 1
        self.drops[reason] = self.drops.get(reason, 0) + 1
        if reason not in KNOWN_DROP_REASONS:
            self._violate(
                "drop-reason", now, node, packet.uid,
                f"drop with unknown reason {reason!r}",
            )

    # ------------------------------------------------------------------
    # Link-layer hooks (frame loss terminals)
    # ------------------------------------------------------------------
    def frame_lost(self, now: float, node: str, packet, reason: str) -> None:
        """An IP frame vanished on a link: medium loss, no receiver on
        the segment, target detached mid-flight, or a down interface."""
        if not isinstance(packet, IPPacket):
            return
        flight = self._flight(now, node, packet)
        flight.terminals += 1
        self.frames_lost[reason] = self.frames_lost.get(reason, 0) + 1

    def frame_absorbed(self, now: float, node: str, packet) -> None:
        """An IP frame arrived at a crashed node and was swallowed."""
        if not isinstance(packet, IPPacket):
            return
        flight = self._flight(now, node, packet)
        flight.terminals += 1
        self.frames_absorbed += 1

    # ------------------------------------------------------------------
    # Per-hop checks
    # ------------------------------------------------------------------
    def _check_packet(
        self,
        now: float,
        node: str,
        packet: IPPacket,
        flight: _Flight,
        forwarded: bool,
    ) -> None:
        self.hops_checked += 1
        if forwarded and not 0 < packet.ttl <= 255:
            self._violate(
                "ttl-valid", now, node, packet.uid,
                f"forwarded with ttl={packet.ttl}",
            )
        if packet.protocol != PROTO_MHRP:
            return
        payload = packet.payload
        header = getattr(payload, "header", None)
        if not isinstance(header, MHRPHeader):
            return
        count = header.count
        if count > self.max_previous_sources:
            self._violate(
                "list-bound", now, node, packet.uid,
                f"previous-source list has {count} entries "
                f"(bound {self.max_previous_sources})",
                sources=[str(a) for a in header.previous_sources],
            )
        if count < flight.prev_count:
            # Overflow flush or loop dissolution shrank the list; the
            # structural checks below no longer apply to this packet.
            flight.list_disrupted = True
        flight.prev_count = count
        if not flight.list_disrupted:
            if len(set(header.previous_sources)) != count:
                self._violate(
                    "list-no-duplicates", now, node, packet.uid,
                    "duplicate previous sources before any flush",
                    sources=[str(a) for a in header.previous_sources],
                )
            if (
                count
                and flight.original_src is not None
                and header.previous_sources[0] != flight.original_src
            ):
                self._violate(
                    "list-first-is-sender", now, node, packet.uid,
                    f"first previous source {header.previous_sources[0]} "
                    f"!= original sender {flight.original_src}",
                )
        if self.check_wire:
            self._probe_wire(now, node, packet.uid, header, flight)

    def _probe_wire(
        self, now: float, node: str, uid: int, header: MHRPHeader, flight: _Flight
    ) -> None:
        """Round-trip the header through its wire form and verify the
        decoder rejects trailing bytes, truncation, and checksum damage.

        Probed once per (count, newest-entry) shape per packet, so a
        packet crossing N hops costs O(list changes), not O(N).
        """
        last = header.previous_sources[-1].value if header.previous_sources else -1
        key = (header.count, last)
        if key in flight.probed:
            return
        flight.probed.add(key)
        try:
            wire = header.to_bytes()
        except PacketError as exc:
            self._violate("wire-roundtrip", now, node, uid, f"encode failed: {exc}")
            return
        try:
            decoded = MHRPHeader.from_bytes(wire)
        except PacketError as exc:
            self._violate("wire-roundtrip", now, node, uid, f"decode failed: {exc}")
            return
        if (
            decoded.orig_protocol != header.orig_protocol
            or decoded.mobile_host != header.mobile_host
            or decoded.previous_sources != header.previous_sources
        ):
            self._violate(
                "wire-roundtrip", now, node, uid,
                f"round-trip mismatch: {decoded!r} != {header!r}",
            )
        for tail in (b"\x00\x00\x00\x00", b"\xff"):
            try:
                MHRPHeader.from_bytes(wire + tail)
            except PacketError:
                pass
            else:
                self._violate(
                    "wire-roundtrip", now, node, uid,
                    f"decoder accepted {len(tail)} trailing byte(s)",
                )
        try:
            MHRPHeader.from_bytes(wire[:-1])
        except PacketError:
            pass
        else:
            self._violate(
                "wire-roundtrip", now, node, uid, "decoder accepted truncation"
            )
        corrupted = bytearray(wire)
        corrupted[2] ^= 0x40  # flip one checksum bit
        try:
            MHRPHeader.from_bytes(bytes(corrupted))
        except PacketError:
            pass
        else:
            self._violate(
                "wire-checksum", now, node, uid,
                "decoder accepted a checksum-corrupted header",
            )

    # ------------------------------------------------------------------
    # Trace-fed checks (re-tunnel accounting)
    # ------------------------------------------------------------------
    def _on_trace(self, entry) -> None:
        if entry.category == "mhrp.tunnel":
            if entry.detail.get("event") not in _RETUNNEL_EVENTS:
                return
            uid = entry.detail.get("uid")
            if uid is None:
                return
            flight = self.flights.get(uid)
            if flight is None:
                flight = _Flight(uid=uid, first_seen=entry.time, first_node=entry.node)
                self.flights[uid] = flight
            if flight.prev_count >= self.max_previous_sources:
                # This re-tunnel triggered the Section 4.4 overflow
                # flush (needed to gate the structural checks even at
                # bound 1, where the count never visibly decreases).
                flight.list_disrupted = True
            flight.retunnels += 1
            if flight.dissolved:
                flight.retunnels_after_dissolve += 1
                if flight.retunnels_after_dissolve == POST_DISSOLVE_RETUNNEL_BUDGET + 1:
                    self._violate(
                        "loop-budget", entry.time, entry.node, uid,
                        f"{flight.retunnels_after_dissolve} re-tunnels after "
                        f"dissolve (budget {POST_DISSOLVE_RETUNNEL_BUDGET})",
                    )
            if flight.retunnels == MAX_RETUNNELS_PER_PACKET + 1:
                self._violate(
                    "loop-budget", entry.time, entry.node, uid,
                    f"more than {MAX_RETUNNELS_PER_PACKET} re-tunnels",
                )
            if uid in self._no_retunnel_uids:
                self._violate(
                    "cache-convergence", entry.time, entry.node, uid,
                    "probe re-tunneled although caches were refreshed",
                )
        elif entry.category == "mhrp.loop":
            if entry.detail.get("event") != "dissolve":
                return
            uid = entry.detail.get("uid")
            if uid is None:
                return
            flight = self.flights.get(uid)
            if flight is not None:
                flight.dissolved = True
                flight.list_disrupted = True

    # ------------------------------------------------------------------
    # Convergence probes
    # ------------------------------------------------------------------
    def expect_no_retunnels(self, uids) -> None:
        """Declare that re-tunneling any of ``uids`` breaches
        ``cache-convergence`` (they repeat a warm probe that already
        refreshed every stale cache on the path)."""
        self._no_retunnel_uids.update(uids)

    # ------------------------------------------------------------------
    # End-of-run evaluation
    # ------------------------------------------------------------------
    def finalize(self, ignore_after: Optional[float] = None) -> List[Violation]:
        """Evaluate packet conservation over everything observed.

        Call only after the simulation drained (or ran quiet long enough
        that anything still unterminated is genuinely leaked).  Flights
        first observed after ``ignore_after`` are skipped — they may be
        legitimately in flight at a timed cutoff.
        """
        for flight in self.flights.values():
            if flight.terminals:
                continue
            if ignore_after is not None and flight.first_seen > ignore_after:
                continue
            self._violate(
                "conservation", flight.last_seen, flight.last_node, flight.uid,
                f"no terminal: first seen at {flight.first_node} "
                f"t={flight.first_seen:.6f}, last seen at {flight.last_node}",
            )
        return self.violations

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Flat counters for reports and sweep metrics."""
        out = {
            "violations": self.total_violations,
            "packets_tracked": self.packets_tracked,
            "flights": len(self.flights),
            "hops_checked": self.hops_checked,
            "frames_absorbed": self.frames_absorbed,
        }
        for reason in sorted(self.drops):
            out[f"drops[{reason}]"] = self.drops[reason]
        for reason in sorted(self.frames_lost):
            out[f"lost[{reason}]"] = self.frames_lost[reason]
        return out

    def render(self) -> str:
        lines = [
            f"invariant audit: {self.total_violations} violation(s), "
            f"{self.packets_tracked} packets tracked, "
            f"{self.hops_checked} hops checked"
        ]
        for violation in self.violations[:50]:
            lines.append(f"  {violation}")
        if self.total_violations > len(self.violations):
            lines.append(f"  ... and {self.total_violations - len(self.violations)} more")
        return "\n".join(lines)
