"""Event and event-queue primitives.

Events are ordered by ``(time, sequence)`` where ``sequence`` is a global
insertion counter.  Two events scheduled for the same instant therefore
fire in the order they were scheduled, which keeps simulations
deterministic and makes protocol races reproducible.

The queue's heap holds ``(time, sequence, payload)`` tuples rather than
bare :class:`Event` objects: tuple comparison runs entirely in C and the
``(time, sequence)`` prefix is unique, so heap sifting never calls back
into Python.  ``payload`` is the :class:`Event` for normally scheduled
work, or a bare callable for *bulk* entries (:meth:`EventQueue.push_bulk`
/ :meth:`EventQueue.push_many`) — pre-planned workload traffic that is
never cancelled or relabelled and therefore does not pay for an Event
object at all.  :meth:`EventQueue.pop` wraps bulk payloads lazily so the
public contract (``pop`` returns an :class:`Event`) is unchanged.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

from repro.errors import SimulationError


class Event:
    """A single scheduled callback.

    Attributes:
        time: absolute simulation time at which the event fires.
        sequence: global insertion counter used as a tiebreak.
        action: zero-argument callable invoked when the event fires.
        label: optional human-readable description used in traces.
        cancelled: set via :meth:`cancel`; cancelled events are skipped.

    Ordering compares ``(time, sequence)`` only — the same total order
    the old ``dataclass(order=True)`` generated, hand-rolled because the
    generated methods build two tuples per comparison and this type sits
    on the hottest path in the repo.
    """

    __slots__ = ("time", "sequence", "action", "label", "cancelled")

    def __init__(
        self,
        time: float,
        sequence: int,
        action: Callable[[], Any],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        self.cancelled = True

    # Ordering: identical to the previous dataclass(order=True, eq=True)
    # semantics, including unhashability (eq without hash).
    def __eq__(self, other: object) -> Any:
        if other.__class__ is Event:
            return self.time == other.time and self.sequence == other.sequence
        return NotImplemented

    def __lt__(self, other: "Event") -> Any:
        if other.__class__ is Event:
            if self.time != other.time:
                return self.time < other.time
            return self.sequence < other.sequence
        return NotImplemented

    def __le__(self, other: "Event") -> Any:
        if other.__class__ is Event:
            if self.time != other.time:
                return self.time < other.time
            return self.sequence <= other.sequence
        return NotImplemented

    def __gt__(self, other: "Event") -> Any:
        if other.__class__ is Event:
            if self.time != other.time:
                return self.time > other.time
            return self.sequence > other.sequence
        return NotImplemented

    def __ge__(self, other: "Event") -> Any:
        if other.__class__ is Event:
            if self.time != other.time:
                return self.time > other.time
            return self.sequence >= other.sequence
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        label = f" {self.label!r}" if self.label else ""
        return f"<Event t={self.time:.6f} #{self.sequence}{label}{state}>"


#: Label reported for bulk entries (which carry no per-event label).
BULK_LABEL = "bulk"

#: Compaction trigger: at least this many cancelled events must be
#: pending before a compaction is considered at all.
COMPACT_MIN_CANCELLED = 64

#: ...and cancelled events must make up at least this fraction of the
#: heap.  Together the two bounds amortize compaction to O(1) per cancel.
COMPACT_MIN_FRACTION = 0.5


class EventQueue:
    """A priority queue of scheduled callbacks.

    The queue assigns the insertion sequence number itself so callers can
    never violate the FIFO-among-ties invariant.

    Cancelled events are discarded lazily on :meth:`pop`, which keeps
    :meth:`Event.cancel` O(1) — but a long run that keeps restarting
    :class:`~repro.netsim.simulator.Timer`\\ s far in the future (ARP
    timeouts, registration retries) would otherwise accumulate cancelled
    events without bound.  :meth:`note_cancelled` therefore triggers a
    **compaction** (filter + re-heapify, O(n)) once cancelled events are
    both numerous (:data:`COMPACT_MIN_CANCELLED`) and a majority of the
    heap (:data:`COMPACT_MIN_FRACTION`).  Event order is untouched:
    ordering is the total order ``(time, sequence)``, independent of the
    heap's internal layout.
    """

    def __init__(self) -> None:
        #: ``(time, sequence, payload)`` tuples; payload is an Event or,
        #: for bulk entries, a bare callable (see the module docstring).
        self._heap: list = []
        self._seq = 0
        self._live = 0
        #: Estimate of cancelled events still sitting in the heap.
        self._cancelled_pending = 0
        #: Number of compaction passes run (observability for tests).
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, action: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``action`` at absolute time ``time`` and return the event."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time!r}")
        seq = self._seq
        self._seq = seq + 1
        time = float(time)
        event = Event(time, seq, action, label)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_bulk(self, time: float, actions: Iterable[Callable[[], Any]]) -> int:
        """Schedule many same-time actions as lightweight *bulk* entries.

        Bulk entries carry no :class:`Event` object, no label, and cannot
        be cancelled — they are meant for pre-planned workload traffic
        (CBR batches, storm generators) where the per-event bookkeeping
        is pure overhead.  FIFO-among-ties still holds: each action gets
        its own sequence number, in iteration order.

        Returns the number of entries scheduled.
        """
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time!r}")
        time = float(time)
        if not isinstance(actions, (list, tuple)):
            actions = list(actions)
        n = len(actions)
        seq = self._seq
        # zip over repeat/range builds the tuples entirely in C.
        entries = list(zip(repeat(time, n), range(seq, seq + n), actions))
        self._seq = seq + n
        self._insert_entries(entries)
        return n

    def push_one(self, time: float, action: Callable[[], Any]) -> None:
        """Schedule a single action as a bulk entry (see :meth:`push_bulk`):
        no :class:`Event`, no list to build.  ``time`` must already be a
        float — the engine driver calls this once per datagram delivery
        with ``now + latency``, where an ``Event`` per datagram measured
        8-10 % of end-to-end throughput."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time!r}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, action))
        self._live += 1

    def push_many(self, pairs: Iterable[Tuple[float, Callable[[], Any]]]) -> int:
        """Schedule many ``(time, action)`` pairs as bulk entries.

        Same contract as :meth:`push_bulk` but each entry brings its own
        fire time; sequence numbers follow iteration order, so two pairs
        at the same time fire in the order given.
        """
        seq = self._seq
        entries = []
        for time, action in pairs:
            if time < 0:
                raise SimulationError(
                    f"cannot schedule event at negative time {time!r}"
                )
            entries.append((float(time), seq, action))
            seq += 1
        self._seq = seq
        self._insert_entries(entries)
        return len(entries)

    def _insert_entries(self, entries: list) -> None:
        # For large batches a single O(n) heapify beats n O(log n)
        # pushes; for a handful of entries into a big heap the pushes
        # win.  The crossover is roughly where the batch stops being
        # small relative to the heap.
        heap = self._heap
        if len(entries) >= 4 and len(entries) * 8 >= len(heap):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                heapq.heappush(heap, entry)
        self._live += len(entries)

    def pop(self) -> Optional[Event]:
        """Remove and return the next non-cancelled event, or ``None`` if empty.

        Cancelled events are lazily discarded here rather than removed from
        the heap at cancel time, keeping :meth:`Event.cancel` O(1).  Bulk
        entries are wrapped in a transient :class:`Event` so callers see
        one uniform type.
        """
        heap = self._heap
        while heap:
            time, seq, payload = heapq.heappop(heap)
            if payload.__class__ is Event:
                if payload.cancelled:
                    if self._cancelled_pending > 0:
                        self._cancelled_pending -= 1
                    continue
                self._live -= 1
                return payload
            self._live -= 1
            return Event(time, seq, payload, BULK_LABEL)
        self._live = 0
        self._cancelled_pending = 0
        return None

    def peek_time(self) -> Optional[float]:
        """Return the fire time of the next live event without removing it."""
        heap = self._heap
        while heap:
            payload = heap[0][2]
            if payload.__class__ is Event and payload.cancelled:
                heapq.heappop(heap)
                if self._cancelled_pending > 0:
                    self._cancelled_pending -= 1
                continue
            return heap[0][0]
        self._live = 0
        return None

    def note_cancelled(self) -> None:
        """Inform the queue that one pushed event was cancelled.

        Called by the simulator so ``len()`` stays an upper bound that
        converges to the true count; exactness is restored lazily by
        :meth:`pop`/:meth:`peek_time`.  Also drives the compaction
        heuristic (see the class docstring).
        """
        if self._live > 0:
            self._live -= 1
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= COMPACT_MIN_CANCELLED
            and self._cancelled_pending >= len(self._heap) * COMPACT_MIN_FRACTION
        ):
            self.compact()

    @property
    def cancelled_pending(self) -> int:
        """Estimated cancelled events still occupying heap slots."""
        return self._cancelled_pending

    @property
    def heap_size(self) -> int:
        """Physical heap size including not-yet-discarded cancelled events."""
        return len(self._heap)

    def compact(self) -> None:
        """Drop every cancelled event from the heap now (O(n))."""
        if self._cancelled_pending == 0:
            return
        # In place: the simulator's run loops hold this list under a
        # local alias, and compaction can be triggered from inside an
        # event (a timer cancel); rebinding would strand them on the
        # old list and silently truncate the run.
        self._heap[:] = [
            entry
            for entry in self._heap
            if entry[2].__class__ is not Event or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0
        self.compactions += 1

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
        self._cancelled_pending = 0

    def iter_pending(self) -> Iterator[Event]:
        """Yield every live pending event, in arbitrary (heap) order.

        Bulk entries are wrapped in transient :class:`Event` views, so
        consumers (snapshot validation, diagnostics) see one type.
        """
        for time, seq, payload in self._heap:
            if payload.__class__ is Event:
                if not payload.cancelled:
                    yield payload
            else:
                yield Event(time, seq, payload, BULK_LABEL)

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    @property
    def sequence(self) -> int:
        """The next sequence number this queue would assign."""
        return self._seq

    def state_dict(self) -> dict:
        """JSON-able *diagnostic* state: the queue's counters, never its
        callables.  Pending events ride the pickle of the whole graph in
        session snapshots (see :mod:`repro.scenario.session`); this dict
        exists so restored-vs-cold runs can be diffed field by field.
        """
        return {
            "pending": self._live,
            "heap_size": len(self._heap),
            "cancelled_pending": self._cancelled_pending,
            "compactions": self.compactions,
            "sequence": self._seq,
        }

    def load_state(self, state: dict) -> None:
        """Restore the queue's counters from :meth:`state_dict`.

        The heap itself (callables) rides the session snapshot and is
        intentionally untouched; what this restores is the bookkeeping
        that is *not* derivable from the heap — the sequence counter and
        the cancelled-pending estimate that drives compaction.  Before
        this existed a restored queue silently kept whatever estimate it
        happened to have, so a restored run could compact earlier or
        later than the run it was diffed against.
        """
        self._seq = int(state["sequence"])
        self._cancelled_pending = int(state["cancelled_pending"])
        self.compactions = int(state["compactions"])
