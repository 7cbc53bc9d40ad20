"""Drive one workload through the program's public front doors.

This is the only module that touches the program: :func:`run_pass` makes
the facade call the wall clock is put around, :func:`account` turns the
public result object into ops and a fingerprint, and :func:`setup_once`
goes from spec to ready-to-run through the public constructors.  Nothing
here changes the program or asks it to behave differently for a
benchmark — ops are counted from what any caller gets back.

Ops (the unit of work, after the handover-performance survey: a run
"worked" if data got through and moves completed):

========  ==========================================================
kind      one op is ...                      ... and it is ok when
========  ==========================================================
ping      one ping                           its echo reply reaches S
handoff   one flow datagram or probe         a mobile host receives it
          one move                           the home agent records it
                                             before the host's next move
fork      one fork -> tail -> run            events and health summary
                                             equal the cold run
roam      one flow datagram                  its sink receives it
          one move                           the host executes it
load      one modeled registration/update    it is applied (local) or
                                             arrives (cross-campus)
========  ==========================================================

Ops that are not ok are the protocol's own loss (blackout, loop
dissolution, updates still in flight at the horizon): deterministic
model output, pinned in the fingerprint, not a failure of the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import backend as facade
from repro.scenario.spec import ScenarioSpec, canonical_json

from workloads import Workload, forks_per_pass


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children
    (``getrusage`` resolves microseconds; ``os.times`` only ticks)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def health_digest(summary: Optional[dict]) -> str:
    return hashlib.sha256(canonical_json(summary).encode()).hexdigest()


@dataclass
class PassResult:
    """One pass: its cost, and what the program handed back."""

    wall_s: float
    cpu_s: float
    #: ``RunResult``, or per fork ``(events_processed, health summary)``.
    result: object = field(repr=False, default=None)
    events: int = 0
    ops_attempted: int = 0
    ops_ok: int = 0
    health_sha256: str = ""
    #: Names of the output checks this pass failed (empty = correct).
    violations: List[str] = field(default_factory=list)

    def fingerprint(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "ops_attempted": self.ops_attempted,
            "ops_ok": self.ops_ok,
            "health_sha256": self.health_sha256,
        }


# ----------------------------------------------------------------------
# Set-up: spec -> ready to run, through the public constructors
# ----------------------------------------------------------------------
@dataclass
class ForkBase:
    """What the fork workload prepares once: the snapshot to fork and
    the cold run every fork must equal."""

    snapshot: object
    cold_events: int
    cold_health_sha256: str


def setup_once(workload: Workload, spec: ScenarioSpec) -> Tuple[Dict[str, float], object]:
    """Build the world and install the schedule; returns the time of
    each stage (``build_s``, ``install_s``; the fork workload adds
    ``warmup_s`` and ``snapshot_s``; ``total_s`` is their sum) plus the
    snapshot when the workload forks."""
    stages: Dict[str, float] = {}
    last = [time.perf_counter()]

    def lap(stage: str) -> None:
        now = time.perf_counter()
        stages[stage] = now - last[0]
        last[0] = now

    snapshot = None
    if workload.backend == "engine":
        from repro.telemetry.health import ProtocolHealth
        from repro.wire.driver import EngineDriver
        from repro.wire.topo import build_engine_world

        driver = EngineDriver(build_engine_world(spec.topology), health=ProtocolHealth())
        lap("build_s")
        driver.install_spec(spec)
        lap("install_s")
    elif workload.backend == "partitioned":
        from repro.partition import PartitionRuntime
        from repro.workloads.hierarchy import HierarchyModel

        model = HierarchyModel.from_spec(spec)
        for index in range(model.n_campuses):
            PartitionRuntime(spec, model, index)  # installs its own schedule
        lap("build_s")
    else:
        from repro.scenario.session import Session

        session = Session(spec)
        lap("build_s")
        if workload.kind == "fork":
            session.run_to_checkpoint()
            lap("warmup_s")
            snapshot = session.snapshot()
            lap("snapshot_s")
        else:
            session.install_tail()
            lap("install_s")
    stages["total_s"] = sum(stages.values())
    return stages, snapshot


def prepare_forks(spec: ScenarioSpec, snapshot) -> ForkBase:
    """The cold reference the forks are compared with (untimed)."""
    from repro.scenario.session import Session

    cold = Session(spec).run_full()
    return ForkBase(
        snapshot=snapshot,
        cold_events=cold.sim.events_processed,
        cold_health_sha256=health_digest(cold.telemetry.summary()),
    )


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
def run_pass(
    workload: Workload,
    spec: ScenarioSpec,
    scale: float,
    forks: Optional[ForkBase] = None,
    backend: Optional[str] = None,
    profiler=None,
) -> PassResult:
    """One facade call (or one fork loop) with the clocks around it.
    ``backend`` overrides the workload's (the sim-vs-batched checks);
    ``profiler`` is a context manager entered around the same region
    (the traced pass), never around the accounting that follows."""
    profiler = profiler if profiler is not None else contextlib.nullcontext()
    if workload.kind == "fork":
        # A sweep cell reads its numbers and drops the fork; so does this.
        cells = []
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        with profiler:
            for _ in range(forks_per_pass(scale)):
                session = forks.snapshot.fork()
                session.install_tail()
                session.run()
                cells.append((session.sim.events_processed, session.telemetry.summary()))
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        done = PassResult(wall, cpu, cells)
    else:
        opts = {}
        if workload.workers is not None:
            opts["workers"] = workload.workers
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        with profiler:
            result = facade.run(
                spec, backend or workload.backend, obs=True if workload.obs else None, **opts
            )
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        done = PassResult(wall, cpu, result)
    account(workload, spec, done, forks)
    return done


# ----------------------------------------------------------------------
# Ops and fingerprints, from public result objects
# ----------------------------------------------------------------------
def _uids(entries) -> set:
    return {entry.detail["uid"] for entry in entries}


def _delivered_round_trips(tracer, origin_nodes: set, sink_nodes: set) -> int:
    """Packets originated at ``origin_nodes`` that were delivered at
    ``sink_nodes``, matched by the uid a packet keeps through tunnels."""
    sent = _uids(e for e in tracer.select("ip.send") if e.node in origin_nodes)
    return len(sent & _uids(e for e in tracer.select("ip.deliver") if e.node in sink_nodes))


def _names(nodes) -> set:
    return {node.name for node in nodes}


def _moves_registered(spec: ScenarioSpec, session) -> int:
    """Moves the home agent recorded before the host's next move."""
    recorded: Dict[str, List[float]] = {}
    for entry in session.sim.tracer.select(
        "mhrp.register", where=lambda d: d.get("event") == "ha-register"
    ):
        recorded.setdefault(entry.detail["mobile_host"], []).append(entry.time)
    hosts = session.world.mobile_hosts
    by_host: Dict[int, List[float]] = {}
    for move in spec.moves:
        by_host.setdefault(move["host"] % len(hosts), []).append(move["t"])
    ok = 0
    for host, times in by_host.items():
        seen = recorded.get(str(hosts[host].home_address), [])
        for t, t_next in zip(times, times[1:] + [spec.horizon]):
            if any(t <= r < t_next for r in seen):
                ok += 1
    return ok


def account(workload: Workload, spec: ScenarioSpec, done: PassResult, forks=None) -> None:
    """Fill ``done``'s events, ops and health digest from its result."""
    kind, result = workload.kind, done.result
    if kind == "fork":
        cells = [(events, health_digest(summary)) for events, summary in result]
        done.ops_attempted = len(cells)
        done.events = sum(events for events, _ in cells)
        digests = {digest for _, digest in cells}
        done.health_sha256 = digests.pop() if len(digests) == 1 else "forks-disagree"
        done.ops_ok = cells.count((forks.cold_events, forks.cold_health_sha256))
        if done.ops_ok != done.ops_attempted:
            done.violations.append("fork-differs-from-cold-run")
        return

    done.events = result.events
    done.health_sha256 = health_digest(result.health)
    if not result.ok:
        done.violations.append(f"status-{result.status}")
    if kind == "ping":
        done.ops_attempted = len(spec.pings)
        if result.backend == "engine":
            done.ops_ok = sum(
                1
                for _, event in result.trace
                if event.category == "icmp.echo"
                and event.detail.get("event") == "reply-received"
            )
        else:
            world = result.detail.world
            done.ops_ok = _delivered_round_trips(
                result.trace, _names(world.mobile_hosts), _names(world.correspondents)
            )
    elif kind == "handoff":
        world = result.detail.world
        datagrams = sum(f["count"] for f in spec.flows) + 2 * len(spec.probes)
        done.ops_attempted = datagrams + len(spec.moves)
        done.ops_ok = _delivered_round_trips(
            result.trace, _names(world.correspondents), _names(world.mobile_hosts)
        ) + _moves_registered(spec, result.detail)
    elif kind == "roam":
        done.ops_attempted = sum(f["count"] for f in spec.flows) + len(spec.moves)
        done.ops_ok = (
            sum(p["flow_received"] for p in result.detail.results)
            + result.health["moves"]
        )
    elif kind == "load":
        load = result.detail.load_merged()
        done.ops_attempted = load["moves_local"] + load["moves_cross"]
        done.ops_ok = load["moves_local"] + load["updates_in"]
    else:  # pragma: no cover - the table above is closed
        raise ValueError(f"unknown workload kind {kind!r}")
    if done.ops_ok > done.ops_attempted:
        done.violations.append("more-ops-ok-than-attempted")
