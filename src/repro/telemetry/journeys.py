"""The journey index — a per-packet flight recorder, folded on read.

Because MHRP rewrites packets in place, a logical packet keeps its uid
across every tunneling transform; the tracer records that uid on every
send, forward, delivery, drop, and tunnel event.  A
:class:`JourneyIndex` stitches those into :class:`Journey` objects —
one dict lookup and one append per entry — instead of rescanning the
whole trace per uid.

The index is built lazily.  :meth:`JourneyIndex.attach` registers it as
a tracer *reader*, not a listener: recording a trace entry calls
nothing here.  The index keeps a cursor (an absolute record number,
:attr:`Tracer.first_recorded <repro.netsim.trace.Tracer.first_recorded>`)
and every query first folds the journey-category entries recorded
since, in record order, through :meth:`JourneyIndex.observe`.  The
tracer folds it too before it would lose unread entries (``clear``,
``limit``, and a ring-buffer eviction), and pickling folds it, so a
session snapshot carries every journey so far.  A run nobody queries
builds no journey at all.  :meth:`JourneyIndex.from_entries` builds the
same index after the run in one pass over a recorded trace.

Memory is bounded: a journey is marked complete when its packet is
delivered or dropped, and once more than ``max_completed`` completed
journeys exist the oldest-completed are evicted.  In-flight journeys
are never evicted.  A "completed" journey that sees further events
(e.g. an MHRP delivery at a foreign agent followed by the last-hop
transmission) is simply re-opened, so the heuristic costs nothing in
accuracy on the protocols simulated here.
"""

from __future__ import annotations

import functools
import itertools
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


#: Every category :meth:`JourneyIndex.observe` turns into a step.
JOURNEY_CATEGORIES = frozenset((*_KIND_BY_CATEGORY, "mhrp.tunnel"))


def _folds(method):
    """Make a query method fold the unread trace entries first."""

    @functools.wraps(method)
    def query(self, *args):
        if self._tracer is not None:
            self.fold()
        return method(self, *args)

    return query


class JourneyIndex:
    """Builds journeys from trace entries, in record order.

    Feed it through :meth:`observe`, all at once with
    :meth:`from_entries`, or lazily from a tracer with :meth:`attach`.
    Journeys are kept in first-seen order.
    """

    def __init__(self, max_completed: Optional[int] = None) -> None:
        if max_completed is not None and max_completed < 1:
            raise ValueError(f"max_completed must be positive, got {max_completed}")
        self.max_completed = max_completed
        #: uid -> Journey, insertion (= first-seen) order.
        self._journeys: "OrderedDict[int, Journey]" = OrderedDict()
        #: uids currently complete, oldest-completed first (eviction order).
        self._completed: "OrderedDict[int, None]" = OrderedDict()
        self._evicted = 0
        self.entries_seen = 0
        #: The tracer :meth:`attach` reads from, and the absolute record
        #: number of the first entry not yet folded.
        self._tracer: Optional[Tracer] = None
        self._cursor = 0

    @classmethod
    def from_entries(
        cls, entries: Iterable[TraceEntry], max_completed: Optional[int] = None
    ) -> "JourneyIndex":
        """Build an index from already-recorded entries in one pass."""
        index = cls(max_completed=max_completed)
        for entry in entries:
            index.observe(entry)
        return index

    def attach(self, tracer: Tracer) -> "JourneyIndex":
        """Read ``tracer`` from its oldest stored entry on, folding on
        the next query (so mid-run attachment misses nothing stored)."""
        self._tracer = tracer
        self._cursor = tracer.first_recorded
        tracer.add_reader(self.fold)
        return self

    def detach(self) -> None:
        """Fold what is left, then stop reading the tracer."""
        tracer = self._tracer
        if tracer is not None:
            self.fold()
            tracer.remove_reader(self.fold)
            self._tracer = None

    def fold(self) -> None:
        """Observe the journey-category entries recorded since the last
        fold, in record order."""
        tracer = self._tracer
        entries = tracer.entries
        start = self._cursor - tracer.first_recorded
        if start == len(entries):
            return
        self._cursor += len(entries) - start
        if start:
            entries = itertools.islice(entries, start, None)
        for entry in entries:
            if entry.category in JOURNEY_CATEGORIES:
                self.observe(entry)

    def __getstate__(self) -> dict:
        # A snapshot carries every journey so far; its forks then share
        # the steps by identity, as they share the trace entries.
        if self._tracer is not None:
            self.fold()
        return self.__dict__

    # ------------------------------------------------------------------
    # Absorbing one entry
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
                    self._evicted += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    @_folds
    def evicted(self) -> int:
        """Completed journeys dropped to honour ``max_completed``."""
        return self._evicted

    @_folds
    def journey(self, uid: int) -> Optional[Journey]:
        """The journey for ``uid``, or ``None`` if unseen (or evicted)."""
        return self._journeys.get(uid)

    @_folds
    def journeys(self) -> List[Journey]:
        """Every retained journey, first-seen order."""
        return list(self._journeys.values())

    @_folds
    def matching(self, predicate: Callable[[Journey], bool]) -> List[Journey]:
        """Retained journeys satisfying ``predicate``, first-seen order."""
        return [j for j in self._journeys.values() if predicate(j)]

    @_folds
    def uids(self) -> List[int]:
        return list(self._journeys)

    @_folds
    def in_flight(self) -> List[Journey]:
        """Journeys not (yet) delivered or dropped."""
        return [j for uid, j in self._journeys.items() if uid not in self._completed]

    @_folds
    def is_complete(self, uid: int) -> bool:
        return uid in self._completed

    @_folds
    def __len__(self) -> int:
        return len(self._journeys)

    @_folds
    def __iter__(self) -> Iterator[Journey]:
        return iter(self._journeys.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<JourneyIndex {len(self._journeys)} journeys "
            f"({len(self._completed)} complete, {self.evicted} evicted)>"
        )
