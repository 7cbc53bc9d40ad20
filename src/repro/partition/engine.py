"""Conservative-synchronization execution of a partitioned scenario.

:func:`run_partitioned` shards a schema-v2 scenario (``partitions`` set)
into one :class:`~repro.partition.runtime.PartitionRuntime` per campus
and advances them under one of two conservative protocols, chosen by
the hierarchy's lookahead ``L`` (the minimum inter-campus delay):

- **Windowed** (``L > 0``): all partitions run events in ``[t, t+L)``
  concurrently — safe because nothing produced inside the window can
  *arrive* before ``t+L`` — then exchange exports and advance to the
  next window.  This is the barrier-window variant of null-message
  synchronization: lookahead is global, so a window barrier carries the
  same guarantee as pairwise null messages at a fraction of the
  messaging.
- **Global barrier** (``L == 0``, e.g. zero-delay inter-partition
  links): partitions step together through one timestamp at a time
  (the global minimum next-event time, inclusive), exchanging after
  each step.  Progress is guaranteed — the minimum always executes —
  so zero lookahead degenerates to lockstep, never deadlock.

Determinism (the byte-identity contract): per-partition simulators are
seeded from ``(spec.seed, index)``; exports are delivered sorted by
``(arrival, source partition, export sequence)`` which is a total order
reproduced identically by any execution schedule; payloads cross the
boundary pickled in *both* serial and parallel mode; and the process-
global ID counters are scoped per partition — worker processes isolate
them naturally, the serial orchestrator swaps them around every window.
A serial run (``workers=0``) is therefore byte-identical — per-partition
trace fingerprints, health summaries, mobile-host state — to a parallel
run (one OS process per partition), which is what the partition-smoke
CI job asserts.

Long runs poll the cooperative deadline
(:mod:`repro.harness.deadline`) at every window boundary — the
SIGALRM-free timeout path that makes partitioned cells safe inside the
sweep runner's worker pools.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.harness.deadline import check as _check_deadline
from repro.scenario.session import (
    capture_global_counters,
    restore_global_counters,
)
from repro.scenario.spec import ScenarioSpec, canonical_json
from repro.workloads.hierarchy import HierarchyModel, merge_load_summaries
from repro.workloads.traffic import optional_numpy

#: Backstop against a livelocked exchange loop (a zero-delay event
#: cycle bouncing between partitions forever).
MAX_ROUNDS = 1_000_000

#: (dst, arrival, kind, blob, export_seq) as drained from a runtime.
_Export = Tuple[int, float, str, bytes, int]


# ----------------------------------------------------------------------
# Partition drivers: same surface, serial or one-process-per-partition
# ----------------------------------------------------------------------
class _SerialPartition:
    """In-process partition with global-counter scoping.

    The shared ID counters (packet uids, hardware addresses,
    registration sequence numbers) are captured after every slice of
    this partition's execution and restored before the next, so running
    all partitions interleaved in one process hands out exactly the
    id sequences isolated worker processes would."""

    def __init__(self, spec: ScenarioSpec, model: HierarchyModel, index: int) -> None:
        from repro.partition.runtime import PartitionRuntime

        self.runtime = PartitionRuntime(spec, model, index)
        self._next = self.runtime.next_time()
        self._counters = capture_global_counters()
        self._reply: Optional[tuple] = None

    def initial_next_time(self) -> Optional[float]:
        return self._next

    def run_async(self, barrier: float, inclusive: bool, deliveries) -> None:
        restore_global_counters(self._counters)
        self.runtime.inject(deliveries)
        executed = self.runtime.run_window(barrier, inclusive)
        self._counters = capture_global_counters()
        self._reply = (executed, self.runtime.next_time(), self.runtime.drain_outbox())

    def collect(self) -> tuple:
        reply, self._reply = self._reply, None
        return reply

    def finish_async(self, horizon: float, deliveries) -> None:
        restore_global_counters(self._counters)
        self.runtime.inject(deliveries)
        self.runtime.finish(horizon)
        self._counters = capture_global_counters()
        self._reply = (self.runtime.result(), self.runtime.drain_outbox())

    def collect_result(self) -> tuple:
        reply, self._reply = self._reply, None
        return reply

    def stop(self) -> None:
        pass


def _worker_main(conn, spec_dict: dict, index: int) -> None:
    """Worker-process loop: build one partition, serve window commands."""
    import traceback

    from repro.partition.runtime import PartitionRuntime

    try:
        spec = ScenarioSpec.from_dict(spec_dict)
        model = HierarchyModel.from_spec(spec)
        runtime = PartitionRuntime(spec, model, index)
        conn.send(("ready", runtime.next_time()))
        while True:
            msg = conn.recv()
            if msg[0] == "window":
                _, barrier, inclusive, deliveries = msg
                runtime.inject(deliveries)
                executed = runtime.run_window(barrier, inclusive)
                conn.send(
                    ("ok", executed, runtime.next_time(), runtime.drain_outbox())
                )
            elif msg[0] == "finish":
                _, horizon, deliveries = msg
                runtime.inject(deliveries)
                runtime.finish(horizon)
                conn.send(("result", runtime.result(), runtime.drain_outbox()))
            elif msg[0] == "stop":
                return
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class _ParallelPartition:
    """One partition in its own OS process, driven over a pipe."""

    def __init__(self, spec: ScenarioSpec, index: int) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        self.index = index
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main,
            args=(child, spec.to_dict(), index),
            name=f"partition-{index}",
        )
        self._proc.start()
        child.close()
        self._next: Optional[float] = None

    def _recv(self, expect: str) -> tuple:
        msg = self._conn.recv()
        if msg[0] == "error":
            raise SimulationError(
                f"partition {self.index} worker failed:\n{msg[1]}"
            )
        if msg[0] != expect:
            raise SimulationError(
                f"partition {self.index}: expected {expect!r}, got {msg[0]!r}"
            )
        return msg

    def wait_ready(self) -> None:
        self._next = self._recv("ready")[1]

    def initial_next_time(self) -> Optional[float]:
        return self._next

    def run_async(self, barrier: float, inclusive: bool, deliveries) -> None:
        self._conn.send(("window", barrier, inclusive, deliveries))

    def collect(self) -> tuple:
        return self._recv("ok")[1:]

    def finish_async(self, horizon: float, deliveries) -> None:
        self._conn.send(("finish", horizon, deliveries))

    def collect_result(self) -> tuple:
        return self._recv("result")[1:]

    def stop(self) -> None:
        try:
            self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=10)
        self._conn.close()


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
@dataclass
class PartitionedResult:
    """The merged outcome of one partitioned run."""

    spec_name: str
    partitions: int
    workers: int
    mode: str
    lookahead: float
    windows: int
    events: int
    wall_seconds: float
    exports_delivered: int
    exports_dropped: int
    results: List[dict] = field(default_factory=list)

    def health_merged(self) -> Optional[dict]:
        from repro.telemetry.health import merge_health_summaries

        summaries = [r["health"] for r in self.results if r.get("health")]
        return merge_health_summaries(summaries) if summaries else None

    def load_merged(self) -> Optional[dict]:
        summaries = [r["load"] for r in self.results if r.get("load")]
        return merge_load_summaries(summaries) if summaries else None

    def fingerprint(self) -> dict:
        """Per-partition trace digests plus digests of the health and
        mobile-host state — equal fingerprints mean byte-identical runs."""
        import hashlib

        ordered = sorted(self.results, key=lambda r: r["partition"])
        health = canonical_json([r.get("health") for r in ordered])
        mobile = canonical_json([r.get("mobile_state") for r in ordered])
        return {
            "trace": {
                str(r["partition"]): r["trace_fingerprint"] for r in ordered
            },
            "health": hashlib.sha256(health.encode()).hexdigest(),
            "mobile_state": hashlib.sha256(mobile.encode()).hexdigest(),
        }


# ----------------------------------------------------------------------
# Exchange plumbing
# ----------------------------------------------------------------------
def _route(
    outboxes: Dict[int, List[_Export]],
    horizon: float,
    pending: Dict[int, List[Tuple[float, str, bytes]]],
) -> Tuple[int, int]:
    """Merge per-source outboxes into per-destination delivery queues.

    Deliveries are sorted by ``(arrival, source partition, export
    sequence)`` — a total order independent of which partition drained
    first — and anything arriving after the horizon is dropped (it could
    never execute)."""
    delivered = dropped = 0
    staged: Dict[int, List[Tuple[float, int, int, str, bytes]]] = {}
    for src, exports in outboxes.items():
        for dst, arrival, kind, blob, seq in exports:
            if arrival > horizon:
                dropped += 1
                continue
            staged.setdefault(dst, []).append((arrival, src, seq, kind, blob))
    for dst, items in staged.items():
        items.sort(key=lambda item: (item[0], item[1], item[2]))
        pending[dst].extend(
            (arrival, kind, blob) for arrival, _, _, kind, blob in items
        )
        delivered += len(items)
    return delivered, dropped


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def run_partitioned(spec: ScenarioSpec, workers: int = 0) -> PartitionedResult:
    """Run a partitioned scenario to its horizon.

    ``workers=0`` runs every partition in this process (the serial
    reference); any other value spawns one worker process per partition.
    Both produce byte-identical per-partition traces, health summaries
    and mobile-host state.
    """
    model = HierarchyModel.from_spec(spec)
    n = model.n_campuses
    lookahead = model.lookahead()
    mode = "window" if (n > 1 and lookahead > 0) else "barrier"
    horizon = spec.horizon
    started = time.perf_counter()

    if workers:
        if spec.topology.get("load"):
            optional_numpy()  # the load model's: import once, before the forks
        backends: List = [_ParallelPartition(spec, i) for i in range(n)]
        for backend in backends:
            backend.wait_ready()
    else:
        backends = [_SerialPartition(spec, model, i) for i in range(n)]

    pending: Dict[int, List[Tuple[float, str, bytes]]] = {i: [] for i in range(n)}
    nexts: List[Optional[float]] = [b.initial_next_time() for b in backends]
    windows = delivered_total = dropped_total = 0

    try:
        if mode == "window":
            t = 0.0
            while t < horizon:
                _check_deadline()
                barrier = min(t + lookahead, horizon)
                for i, backend in enumerate(backends):
                    backend.run_async(barrier, False, pending[i])
                    pending[i] = []
                outboxes: Dict[int, List[_Export]] = {}
                for i, backend in enumerate(backends):
                    _, nexts[i], outboxes[i] = backend.collect()
                delivered, dropped = _route(outboxes, horizon, pending)
                delivered_total += delivered
                dropped_total += dropped
                windows += 1
                t = barrier
        else:
            while True:
                _check_deadline()
                if windows > MAX_ROUNDS:
                    raise SimulationError(
                        f"barrier protocol exceeded {MAX_ROUNDS} rounds "
                        f"(zero-delay event cycle between partitions?)"
                    )
                candidates = [x for x in nexts if x is not None and x <= horizon]
                candidates.extend(
                    arrival
                    for deliveries in pending.values()
                    for arrival, _, _ in deliveries
                )
                if not candidates:
                    break
                t_next = min(candidates)
                for i, backend in enumerate(backends):
                    backend.run_async(t_next, True, pending[i])
                    pending[i] = []
                outboxes = {}
                for i, backend in enumerate(backends):
                    _, nexts[i], outboxes[i] = backend.collect()
                delivered, dropped = _route(outboxes, horizon, pending)
                delivered_total += delivered
                dropped_total += dropped
                windows += 1

        # Final phase: advance every clock to the horizon (events at
        # exactly the horizon run here, matching ``Session.run``).
        for i, backend in enumerate(backends):
            backend.finish_async(horizon, pending[i])
            pending[i] = []
        results: List[dict] = []
        for backend in backends:
            result, outbox = backend.collect_result()
            results.append(result)
            # Horizon-time events can only export beyond the horizon
            # (positive delay) — anything else is a protocol violation.
            for dst, arrival, kind, _, _ in outbox:
                if arrival <= horizon:
                    raise SimulationError(
                        f"partition {result['partition']} exported a "
                        f"{kind} event at t={arrival} after the final "
                        f"exchange (horizon {horizon})"
                    )
                dropped_total += 1
    finally:
        for backend in backends:
            backend.stop()

    results.sort(key=lambda r: r["partition"])
    return PartitionedResult(
        spec_name=spec.name,
        partitions=n,
        workers=workers if workers else 0,
        mode=mode,
        lookahead=lookahead,
        windows=windows,
        events=sum(r["events"] for r in results),
        wall_seconds=time.perf_counter() - started,
        exports_delivered=delivered_total,
        exports_dropped=dropped_total,
        results=results,
    )
