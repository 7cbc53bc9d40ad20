"""The discrete-event simulator.

A :class:`Simulator` owns the clock, the event queue, a seeded random
source, and the tracer.  All network components take the simulator in
their constructor and schedule work through it; nothing in the library
uses wall-clock time or global random state, so runs are deterministic
for a given seed.
"""

from __future__ import annotations

import random
from heapq import heapify as _heapify, heappop, heappush
from typing import Any, Callable, Iterable, Optional, Tuple

from repro.errors import SimulationError
from repro.netsim.clock import SimClock
from repro.netsim.events import Event, EventQueue
from repro.netsim.trace import Tracer


class Timer:
    """A restartable one-shot timer built on the event queue.

    Protocol code uses timers for retransmission, advertisement periods,
    cache expiry, etc.  A timer may be restarted or cancelled at any time;
    the underlying queue events are cancelled lazily.
    """

    def __init__(self, sim: "Simulator", action: Callable[[], Any], label: str = "") -> None:
        self._sim = sim
        self._action = action
        self._label = label
        self._event: Optional[Event] = None

    @property
    def pending(self) -> bool:
        """Whether the timer is currently armed."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire, label=self._label)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None and not self._event.cancelled:
            self._event.cancel()
            self._sim.queue.note_cancelled()
        self._event = None

    def _fire(self) -> None:
        self._event = None
        self._action()


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        seed: seed for the simulator-owned :class:`random.Random`.
        start: initial simulation time.
        trace_max_entries: bound the tracer to a ring buffer of this
            many entries (``None`` = keep everything, the default).

    Attributes:
        clock: the virtual clock.
        queue: the event queue.
        rng: seeded random source shared by all components.
        tracer: structured trace collector.
        telemetry: the attached protocol-health hub, or ``None`` (the
            default).  Hot paths guard notifications with a single
            is-``None`` check, mirroring :meth:`trace_active`.
        auditor: the attached invariant auditor, or ``None`` (the
            default); same guarding discipline as ``telemetry``.
        obs: the attached observability plane
            (:class:`repro.obs.ObsPlane`), or ``None`` (the default);
            same guarding discipline as ``telemetry``.
    """

    #: When true, :meth:`run` delegates to :meth:`run_batched`.  A class
    #: attribute so the byte-identity tests can force every simulator in
    #: a scenario — including ones built deep inside session/world code —
    #: through the batched kernel without plumbing a flag everywhere.
    #: :meth:`run` reads it through ``self``, so a single simulator can
    #: also opt in per instance (the ``batched`` backend of
    #: :func:`repro.backend.run` does exactly that).
    default_batched = False

    def __init__(
        self,
        seed: int = 0,
        start: float = 0.0,
        trace_max_entries: Optional[int] = None,
    ) -> None:
        self.clock = SimClock(start)
        self.queue = EventQueue()
        self.rng = random.Random(seed)
        self.tracer = Tracer(max_entries=trace_max_entries)
        #: A telemetry hub (repro.telemetry.ProtocolHealth) when one is
        #: attached; None keeps every notification site to one attribute
        #: load and an is-None test.
        self.telemetry = None
        #: An invariant auditor (repro.invariants.InvariantAuditor) when
        #: one is attached; same is-None discipline as telemetry.
        self.auditor = None
        #: An observability plane (repro.obs.ObsPlane) when one is
        #: attached; same is-None discipline as telemetry.
        self.obs = None
        #: Every instrument installed through :meth:`attach`, in
        #: attachment order.  ``telemetry`` and ``auditor`` above are
        #: role shortcuts into this list, kept as plain attributes so
        #: the hot-path cost stays one load + is-None test.
        self.instruments: list = []
        self._running = False
        self._processed = 0

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def attach(self, instrument: Any, **kwargs: Any) -> Any:
        """Install ``instrument`` on this simulator and return it.

        An instrument implements ``bind(sim, **kwargs)`` (subscribe its
        tracer listeners, remember the sim) and optionally ``unbind(sim)``
        for :meth:`detach`.  If its class declares ``instrument_role``
        (``"telemetry"``, ``"auditor"``, or ``"obs"``), the matching
        role attribute on the simulator is pointed at it, which is what
        the guarded hot-path notification sites read.
        """
        if instrument in self.instruments:
            raise SimulationError(f"{instrument!r} is already attached")
        instrument.bind(self, **kwargs)
        self.instruments.append(instrument)
        role = getattr(type(instrument), "instrument_role", None)
        if role is not None:
            setattr(self, role, instrument)
        return instrument

    def detach(self, instrument: Any) -> None:
        """Remove an instrument installed by :meth:`attach`."""
        if instrument not in self.instruments:
            raise SimulationError(f"{instrument!r} is not attached")
        unbind = getattr(instrument, "unbind", None)
        if unbind is not None:
            unbind(self)
        self.instruments.remove(instrument)
        role = getattr(type(instrument), "instrument_role", None)
        if role is not None and getattr(self, role) is instrument:
            setattr(self, role, None)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.clock._now  # the slot, not the property: one call, not two

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay!r})")
        return self.queue.push(self.clock.now + delay, action, label=label)

    def schedule_at(self, when: float, action: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``action`` at absolute time ``when`` (must be >= now)."""
        if when < self.clock.now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self.clock.now}, when={when})"
            )
        return self.queue.push(when, action, label=label)

    def schedule_bulk(self, delay: float, actions: Iterable[Callable[[], Any]]) -> int:
        """Schedule many actions ``delay`` seconds from now as bulk entries.

        Bulk entries (see :meth:`EventQueue.push_bulk`) skip the
        per-event ``Event`` object: no label, no cancellation.  Meant for
        pre-planned workload traffic; returns the number scheduled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay!r})")
        return self.queue.push_bulk(self.clock.now + delay, actions)

    def schedule_many(self, pairs: Iterable[Tuple[float, Callable[[], Any]]]) -> int:
        """Schedule many ``(when, action)`` pairs (absolute times) as bulk
        entries; every ``when`` must be >= now."""
        now = self.clock.now
        pairs = list(pairs)
        for when, _ in pairs:
            if when < now:
                raise SimulationError(
                    f"cannot schedule event in the past (now={now}, when={when})"
                )
        return self.queue.push_many(pairs)

    def timer(self, action: Callable[[], Any], label: str = "") -> Timer:
        """Create an unarmed :class:`Timer` bound to this simulator."""
        return Timer(self, action, label=label)

    def trace(self, category: str, node: str, **detail: Any) -> None:
        """Record a trace entry stamped with the current time."""
        self.tracer.record(self.clock._now, category, node, detail)

    def trace_active(self, category: str) -> bool:
        """Whether a :meth:`trace` call for ``category`` would record.

        Per-packet code paths check this before building trace kwargs so
        tracing is zero-cost when disabled or restricted away.
        """
        return self.tracer.active(category)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        self._processed += 1
        event.action()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been executed in this call.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return even if the queue drained earlier, so periodic processes
        observe consistent end times.

        Returns the number of events executed by this call.

        The loop body is the hot path of the whole repo, so it works on
        the queue/clock internals directly instead of going through
        ``peek_time()`` + ``step()`` (which traverse the heap top twice
        and pay a method call per event).  The observable semantics are
        identical; the netsim test suite pins them.
        """
        if self.default_batched:
            return self.run_batched(until=until, max_events=max_events)
        if self._running:
            raise SimulationError("run() called re-entrantly from inside an event")
        self._running = True
        executed = 0
        queue = self.queue
        heap = queue._heap
        clock = self.clock
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                when, _, payload = heap[0]
                if payload.__class__ is Event:
                    if payload.cancelled:
                        heappop(heap)
                        if queue._cancelled_pending > 0:
                            queue._cancelled_pending -= 1
                        continue
                    if until is not None and when > until:
                        break
                    heappop(heap)
                    queue._live -= 1
                    if when > clock._now:
                        clock._now = when
                    elif when < clock._now:
                        clock.advance_to(when)  # raises: clock cannot move backwards
                    self._processed += 1
                    executed += 1
                    payload.action()
                else:
                    if until is not None and when > until:
                        break
                    heappop(heap)
                    queue._live -= 1
                    if when > clock._now:
                        clock._now = when
                    elif when < clock._now:
                        clock.advance_to(when)
                    self._processed += 1
                    executed += 1
                    payload()
            else:
                queue._live = 0
                queue._cancelled_pending = 0
        finally:
            self._running = False
        if until is not None and until > self.clock.now:
            self.clock.advance_to(until)
        return executed

    def run_before(
        self,
        barrier: float,
        inclusive: bool = False,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events scheduled strictly before ``barrier`` (or up to and
        including it with ``inclusive=True``) and return how many ran.

        Unlike :meth:`run`, the clock is **not** advanced to the barrier
        when the queue empties out early: it stays at the last executed
        event.  That is the contract the conservative-synchronization
        partition engine needs — events injected from another partition
        at exactly the barrier time must still be schedulable with
        :meth:`schedule_at` (which requires ``when >= now``), and the
        next window picks the clock up from wherever this one stopped.

        ``inclusive=True`` is the degenerate zero-lookahead (global
        barrier) mode: the engine computes the minimum next-event time
        across all partitions and lets every partition execute exactly
        that instant, so zero-delay inter-partition links make progress
        one timestamp at a time instead of deadlocking.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from inside an event")
        self._running = True
        executed = 0
        queue = self.queue
        heap = queue._heap
        clock = self.clock
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                when, _, payload = heap[0]
                if payload.__class__ is Event and payload.cancelled:
                    heappop(heap)
                    if queue._cancelled_pending > 0:
                        queue._cancelled_pending -= 1
                    continue
                if (when > barrier) if inclusive else (when >= barrier):
                    break
                heappop(heap)
                queue._live -= 1
                if when > clock._now:
                    clock._now = when
                elif when < clock._now:
                    clock.advance_to(when)  # raises: clock cannot move backwards
                self._processed += 1
                executed += 1
                if payload.__class__ is Event:
                    payload.action()
                else:
                    payload()
            else:
                queue._live = 0
                queue._cancelled_pending = 0
        finally:
            self._running = False
        return executed

    def run_batched(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """:meth:`run`, but draining all events at the current timestamp
        in one heap sweep.

        When the heap top reveals a same-time run (bulk CBR batches,
        broadcast storms, timer barrages), the whole tie-run is extracted
        with a single O(n) partition + sort-by-sequence instead of K
        sifting ``heappop``\\ s from a deep heap, then executed back to
        back with no heap traffic at all.  Because the batch is sorted by
        sequence and any event *scheduled during* the batch necessarily
        gets a higher sequence number (and is picked up by the next
        sweep), the execution order is exactly the serial ``(time,
        sequence)`` order — :meth:`run` and :meth:`run_batched` are
        observably identical, which the byte-identity suite pins on the
        golden trace and the conformance corpus.

        Cancellation keeps per-event semantics inside a batch: the
        ``cancelled`` flag is tested immediately before each action runs,
        the same instant :meth:`EventQueue.pop` would have tested it.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from inside an event")
        self._running = True
        executed = 0
        queue = self.queue
        heap = queue._heap
        clock = self.clock
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                entry = heap[0]
                payload = entry[2]
                if payload.__class__ is Event and payload.cancelled:
                    heappop(heap)
                    if queue._cancelled_pending > 0:
                        queue._cancelled_pending -= 1
                    continue
                when = entry[0]
                if until is not None and when > until:
                    break
                if when > clock._now:
                    clock._now = when
                elif when < clock._now:
                    clock.advance_to(when)  # raises: clock cannot move backwards
                heappop(heap)
                if heap and heap[0][0] == when:
                    # Same-tick run: extract the whole tie-run before
                    # executing.  When a cheap sample (middle + last heap
                    # slots) says ties dominate, one O(n) partition lifts
                    # them all out — crucially in heap-array order, which
                    # for bulk pushes is already sequence-sorted, so the
                    # sort below hits timsort's linear fast path.
                    # Otherwise pop ties one by one (exact: once the heap
                    # min exceeds ``when`` no tie remains anywhere),
                    # escalating to the partition if the run outgrows an
                    # eighth of the heap.
                    batch = [entry]
                    append = batch.append
                    hn = len(heap)
                    if heap[hn - 1][0] == when and heap[hn >> 1][0] == when:
                        rest = []
                        keep = rest.append
                        for candidate in heap:
                            if candidate[0] == when:
                                append(candidate)
                            else:
                                keep(candidate)
                        heap[:] = rest
                        _heapify(heap)
                    else:
                        threshold = 64 + (hn >> 3)
                        while heap and heap[0][0] == when:
                            append(heappop(heap))
                            if len(batch) >= threshold and heap and heap[0][0] == when:
                                rest = []
                                keep = rest.append
                                for candidate in heap:
                                    if candidate[0] == when:
                                        append(candidate)
                                    else:
                                        keep(candidate)
                                heap[:] = rest
                                _heapify(heap)
                                break
                    batch.sort()  # (time, seq, ...): ties impossible, seq decides
                    # Per-event counters are accumulated in a local and
                    # committed in the finally, so an exception (or a
                    # max_events stop) still leaves them exact.
                    done = 0
                    if max_events is None:
                        it = iter(batch)
                        try:
                            for _, _, payload in it:
                                if payload.__class__ is Event:
                                    if payload.cancelled:
                                        if queue._cancelled_pending > 0:
                                            queue._cancelled_pending -= 1
                                        continue
                                    done += 1
                                    payload.action()
                                else:
                                    done += 1
                                    payload()
                        finally:
                            queue._live -= done
                            self._processed += done
                            executed += done
                            for unrun in it:
                                heappush(heap, unrun)
                    else:
                        i = 0
                        n = len(batch)
                        try:
                            while i < n:
                                if executed + done >= max_events:
                                    break
                                payload = batch[i][2]
                                i += 1
                                if payload.__class__ is Event:
                                    if payload.cancelled:
                                        if queue._cancelled_pending > 0:
                                            queue._cancelled_pending -= 1
                                        continue
                                    done += 1
                                    payload.action()
                                else:
                                    done += 1
                                    payload()
                        finally:
                            # Early exit: the not-yet-executed tail goes
                            # back on the heap untouched.
                            queue._live -= done
                            self._processed += done
                            executed += done
                            for unrun in batch[i:]:
                                heappush(heap, unrun)
                else:
                    queue._live -= 1
                    self._processed += 1
                    executed += 1
                    if payload.__class__ is Event:
                        payload.action()
                    else:
                        payload()
            else:
                queue._live = 0
                queue._cancelled_pending = 0
        finally:
            self._running = False
        if until is not None and until > self.clock.now:
            self.clock.advance_to(until)
        return executed

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``).

        Raises :class:`SimulationError` if the bound is hit, which almost
        always means a protocol is generating unbounded traffic (e.g. a
        routing loop that nothing is breaking).
        """
        executed = self.run(max_events=max_events)
        if self.queue:
            raise SimulationError(
                f"simulation did not go idle within {max_events} events "
                f"({len(self.queue)} still queued at t={self.now:.6f})"
            )
        return executed

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able engine state for the session snapshot/diff contract.

        The RNG state is captured exactly (``random.Random.getstate``
        round-trips through plain lists), so two simulators with equal
        state dicts draw identical future random sequences.  Pending
        events are *not* here — they hold callables and ride the session
        snapshot; the queue contributes its diagnostic counters only.
        """
        version, internal, gauss = self.rng.getstate()
        return {
            "clock": self.clock.state_dict(),
            "rng": {"version": version, "state": list(internal), "gauss": gauss},
            "processed": self._processed,
            "queue": self.queue.state_dict(),
            "tracer": self.tracer.state_dict(),
            "instruments": len(self.instruments),
        }

    def load_state(self, state: dict) -> None:
        """Restore clock, RNG, tracer config, and counters.  The event
        queue's *heap* (callables) is intentionally untouched — full
        restoration is the job of
        :class:`repro.scenario.session.Snapshot` — but its bookkeeping
        counters (sequence, cancelled-pending estimate, compaction count)
        are restored so a restored run compacts at the same points the
        original would have."""
        self.clock.load_state(state["clock"])
        rng = state["rng"]
        self.rng.setstate((rng["version"], tuple(rng["state"]), rng["gauss"]))
        self._processed = int(state["processed"])
        self.tracer.load_state(state["tracer"])
        queue_state = state.get("queue")
        if queue_state is not None:
            self.queue.load_state(queue_state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, pending={len(self.queue)}, "
            f"processed={self._processed})"
        )
