"""The streaming journey index — a per-packet flight recorder.

Because MHRP rewrites packets in place, a logical packet keeps its uid
across every tunneling transform; the tracer records that uid on every
send, forward, delivery, drop, and tunnel event.  A
:class:`JourneyIndex` subscribed to the tracer stitches those into
:class:`Journey` objects *incrementally* — one dict lookup and one
append per entry — instead of rescanning the whole trace per uid the
way the original ``metrics.journey`` helpers did.

Memory is bounded: a journey is marked complete when its packet is
delivered or dropped, and once more than ``max_completed`` completed
journeys exist the oldest-completed are evicted.  In-flight journeys
are never evicted.  A "completed" journey that sees further events
(e.g. an MHRP delivery at a foreign agent followed by the last-hop
transmission) is simply re-opened, so the heuristic costs nothing in
accuracy on the protocols simulated here.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional

from repro.netsim.trace import TraceEntry, Tracer


@dataclass
class JourneyStep:
    """One observed event in a packet's life."""

    time: float
    node: str
    kind: str           # "send" | "forward" | "deliver" | "drop" | tunnel event name
    detail: dict = field(default_factory=dict)

    # Steps are never changed once built and share their trace entry's
    # immutable detail, so copies and session snapshots share them as
    # they share the entries (``SHARED_TYPES`` in
    # :mod:`repro.scenario.session`).
    def __deepcopy__(self, memo: dict) -> "JourneyStep":
        return self


@dataclass
class Journey:
    """Everything the trace knows about one logical packet."""

    uid: int
    steps: List[JourneyStep] = field(default_factory=list)

    @property
    def nodes_visited(self) -> List[str]:
        """Nodes in visit order (consecutive duplicates collapsed)."""
        out: List[str] = []
        for step in self.steps:
            if not out or out[-1] != step.node:
                out.append(step.node)
        return out

    @property
    def hops(self) -> int:
        """Router hops (forward events) plus the originating hop."""
        return sum(1 for s in self.steps if s.kind == "forward") + 1

    @property
    def tunnel_events(self) -> List[JourneyStep]:
        return [s for s in self.steps if s.kind.startswith("mhrp:")]

    @property
    def was_tunneled(self) -> bool:
        return bool(self.tunnel_events)

    @property
    def dropped(self) -> bool:
        return any(s.kind == "drop" for s in self.steps)

    @property
    def drop_reason(self) -> Optional[str]:
        for step in self.steps:
            if step.kind == "drop":
                return step.detail.get("reason")
        return None

    @property
    def delivered_at(self) -> Optional[str]:
        """The last node that locally delivered the packet, if any."""
        for step in reversed(self.steps):
            if step.kind == "deliver":
                return step.node
        return None

    def detoured_through(self, node: str) -> bool:
        return node in self.nodes_visited

    def __repr__(self) -> str:
        path = " -> ".join(self.nodes_visited)
        end = self.drop_reason or (f"delivered@{self.delivered_at}" if self.delivered_at else "?")
        return f"<Journey #{self.uid} {path} ({end})>"


#: Trace categories that contribute journey steps, and the step kind
#: each maps to.  ``mhrp.tunnel`` maps per-event (``mhrp:<event>``).
_KIND_BY_CATEGORY = {
    "ip.send": "send",
    "ip.forward": "forward",
    "ip.deliver": "deliver",
    "ip.drop": "drop",
}


class JourneyIndex:
    """Builds journeys incrementally from a trace-entry stream.

    Feed it through :meth:`observe` (usually via :meth:`attach`, which
    subscribes it to the journey categories only), or all at once with
    :meth:`from_entries`.  Journeys are kept in first-seen order.
    """

    def __init__(self, max_completed: Optional[int] = None) -> None:
        if max_completed is not None and max_completed < 1:
            raise ValueError(f"max_completed must be positive, got {max_completed}")
        self.max_completed = max_completed
        #: uid -> Journey, insertion (= first-seen) order.
        self._journeys: "OrderedDict[int, Journey]" = OrderedDict()
        #: uids currently complete, oldest-completed first (eviction order).
        self._completed: "OrderedDict[int, None]" = OrderedDict()
        self.evicted = 0
        self.entries_seen = 0

    @classmethod
    def from_entries(
        cls, entries: Iterable[TraceEntry], max_completed: Optional[int] = None
    ) -> "JourneyIndex":
        """Build an index from already-recorded entries in one pass."""
        index = cls(max_completed=max_completed)
        for entry in entries:
            index.observe(entry)
        return index

    def attach(self, tracer: Tracer, replay: bool = True) -> "JourneyIndex":
        """Subscribe to ``tracer``; with ``replay`` also absorb whatever
        it already recorded, so mid-run attachment misses nothing."""
        if replay:
            for entry in tracer.entries:
                self.observe(entry)
        tracer.subscribe(self.observe, categories=(*_KIND_BY_CATEGORY, "mhrp.tunnel"))
        return self

    # ------------------------------------------------------------------
    # The streaming path
    # ------------------------------------------------------------------
    def observe(self, entry: TraceEntry) -> None:
        """Absorb one trace entry (listener-compatible)."""
        self.entries_seen += 1
        uid = entry.detail.get("uid")
        if uid is None:
            return
        kind = _KIND_BY_CATEGORY.get(entry.category)
        if kind is None:
            if entry.category == "mhrp.tunnel":
                kind = f"mhrp:{entry.detail.get('event', '?')}"
            else:
                return
        journey = self._journeys.get(uid)
        if journey is None:
            journey = Journey(uid=uid)
            self._journeys[uid] = journey
        elif uid in self._completed:
            # The packet kept moving after a tentative completion
            # (tunnel-endpoint delivery): re-open it.
            del self._completed[uid]
        # Entries are immutable (see ``TraceEntry.__deepcopy__``), so
        # the step shares the entry's detail instead of copying it.
        journey.steps.append(JourneyStep(
            time=entry.time, node=entry.node, kind=kind, detail=entry.detail
        ))
        if kind == "deliver" or kind == "drop":
            self._completed[uid] = None
            if self.max_completed is not None:
                while len(self._completed) > self.max_completed:
                    old_uid, _ = self._completed.popitem(last=False)
                    del self._journeys[old_uid]
                    self.evicted += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def journey(self, uid: int) -> Optional[Journey]:
        """The journey for ``uid``, or ``None`` if unseen (or evicted)."""
        return self._journeys.get(uid)

    def journeys(self) -> List[Journey]:
        """Every retained journey, first-seen order."""
        return list(self._journeys.values())

    def matching(self, predicate: Callable[[Journey], bool]) -> List[Journey]:
        """Retained journeys satisfying ``predicate``, first-seen order."""
        return [j for j in self._journeys.values() if predicate(j)]

    def uids(self) -> List[int]:
        return list(self._journeys)

    def in_flight(self) -> List[Journey]:
        """Journeys not (yet) delivered or dropped."""
        return [j for uid, j in self._journeys.items() if uid not in self._completed]

    def is_complete(self, uid: int) -> bool:
        return uid in self._completed

    def __len__(self) -> int:
        return len(self._journeys)

    def __iter__(self) -> Iterator[Journey]:
        return iter(self._journeys.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<JourneyIndex {len(self._journeys)} journeys "
            f"({len(self._completed)} complete, {self.evicted} evicted)>"
        )
