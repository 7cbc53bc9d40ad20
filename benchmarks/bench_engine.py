#!/usr/bin/env python
"""The engine-backend perf trajectory (repo-root ``BENCH_engine.json``).

Measures the simulator kernel and the sans-io engine stack end to end
and records three kinds of numbers, appended per PR to a committed
*trajectory* (a list of entries, one per PR that re-measured):

- **deterministic** — event/datagram counts from fixed-seed scenario
  runs.  CI regenerates these and fails on any drift against the last
  committed entry (a changed count means changed protocol behaviour,
  not a slower runner).
- **perf** — events/sec through the simulator core (serial and batched
  kernels), events/sec through the engine driver, packets/sec with
  health tracing on and off, packets/sec with the ``repro.obs``
  span-tracing plane attached and detached, and scenario fork latency
  from the PR 5 snapshot machinery.
- **stages** — wall seconds per bench stage (scheduling vs draining,
  per scenario run), recorded through the obs plane's stage timers so
  a gate failure can print *where* the time went, not just that it
  grew.

The simulator microbenches run **first**, after a ``gc.collect()``,
best-of-:data:`SIM_REPS`: the committed PR-7 "regression"
(783k -> 700k events/s) turned out to be process-context pollution —
the sim bench used to run last, against an allocator and GC dirtied by
the preceding engine scenario runs, so the committed number moved with
the *engine's* allocation behaviour rather than the kernel's speed.

CI gates (``--check``):

- deterministic counts must match the last committed entry exactly;
- the measured ``sim_events_per_sec`` may not fall below
  :data:`SIM_GATE` x the last committed entry's (on failure the
  committed-vs-measured stage-timing diff is printed);
- between the last two *committed* entries (same machine, same
  process, so runner-independent), ``engine_events_per_sec`` may not
  regress below :data:`OVERHEAD_GATE`;
- a committed entry carrying the batched column must show the batched
  kernel at least matching the serial one in its own process;
- (schema 3) the partitioned engine's parallel run must stay
  byte-identical to its serial reference.  ``partition_speedup`` is
  printed, not gated: one sample of a serial/parallel wall ratio swung
  0.82-1.41 across five back-to-back runs on a 2-cpu box (ROADMAP item
  8 owns the speedup decision, on a median).

The engine/sim adapter ratio is still printed for trend-watching but
no longer gated: the batched-kernel work moves ``sim_events_per_sec``
independently of the engines, which would trip any ratio gate without
an engine regression existing.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py               # print
    PYTHONPATH=src python benchmarks/bench_engine.py --write --pr 9  # append
    PYTHONPATH=src python benchmarks/bench_engine.py --check       # CI gate
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

GOLDEN = Path(__file__).parent.parent / "BENCH_engine.json"

#: Committed-entries perf gate: the newest entry's engine events/sec may
#: not fall below this fraction of the previous entry's.
OVERHEAD_GATE = 0.95

#: Measured-vs-committed gate on the simulator kernel itself.
SIM_GATE = 0.95

#: Ping storm used for the pps measurements: large enough to time, small
#: enough to keep the bench under a couple of seconds.
PPS_PINGS = 400
PPS_HORIZON = 120.0
FORK_ROUNDS = 20

#: Self-rescheduling ticks for the serial kernel bench and same-tick
#: bulk actions for the batched kernel bench.
SIM_TICKS = 50_000
SIM_REPS = 5


def _pps_spec():
    from repro.wire.conformance import figure1_walkthrough_spec

    spec = figure1_walkthrough_spec()
    spec.name = "figure1-ping-storm"
    spec.horizon = PPS_HORIZON
    # Steady-state storm: M sits in netD from t=5; pings every 0.25 s.
    spec.moves = [
        {"t": 0.0, "host": 0, "to": -1},
        {"t": 5.0, "host": 0, "to": 0},
    ]
    spec.pings = [
        {"t": 10.0 + 0.25 * i, "src": 0, "host": 0} for i in range(PPS_PINGS)
    ]
    return spec


def _run_engine(spec, with_health, with_obs=False):
    from repro.telemetry.health import ProtocolHealth
    from repro.wire.driver import _run_engine_spec

    health = ProtocolHealth() if with_health else None
    obs = None
    if with_obs:
        from repro.obs import ObsPlane

        obs = ObsPlane()
    start = time.perf_counter()
    driver = _run_engine_spec(spec, health=health, obs=obs)
    elapsed = time.perf_counter() - start
    return driver, elapsed, obs


#: Partitioned-engine scale scenario: 4 campuses x 25k modeled hosts =
#: a 100k-host registration/traffic workload (the E4 regime).
PARTITION_HOSTS_PER_CAMPUS = 25_000
PARTITION_CAMPUSES = 4


def _measure_partitioned():
    """Serial-vs-parallel partitioned run of the 100k-host load model.

    Returns deterministic facts (event count, byte-identity of the two
    executions) and perf columns.  ``partition_speedup`` is the honest
    serial-wall / parallel-wall ratio *on this machine*: on a
    single-core host four worker processes time-slice one CPU and the
    ratio sits below 1.0 by construction; ``--check`` prints it without
    gating on it."""
    import os

    from repro.partition import partition_load_spec, run_partitioned

    def _spec():
        return partition_load_spec(
            partitions=PARTITION_CAMPUSES,
            hosts_per_campus=PARTITION_HOSTS_PER_CAMPUS,
        )

    serial = run_partitioned(_spec(), workers=0)
    parallel = run_partitioned(_spec(), workers=PARTITION_CAMPUSES)
    deterministic = {
        "partition_events": parallel.events,
        "partition_identity": parallel.fingerprint() == serial.fingerprint(),
    }
    perf = {
        "partitioned_events_per_sec": round(
            parallel.events / parallel.wall_seconds
        ),
        "partition_speedup": round(
            serial.wall_seconds / parallel.wall_seconds, 3
        ),
        "cpu_count": os.cpu_count() or 1,
    }
    stages = {
        "partition_serial": serial.wall_seconds,
        "partition_parallel": parallel.wall_seconds,
    }
    return deterministic, perf, stages


def _sim_events_per_sec(plane):
    """Serial kernel: self-rescheduling ticks, one event per heap pop."""
    from repro.netsim import Simulator

    best_rate, best_elapsed = 0.0, 0.0
    for _ in range(SIM_REPS):
        gc.collect()
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < SIM_TICKS:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        start = time.perf_counter()
        sim.run_until_idle(max_events=SIM_TICKS + 10_000)
        elapsed = time.perf_counter() - start
        if count[0] / elapsed > best_rate:
            best_rate, best_elapsed = count[0] / elapsed, elapsed
    plane.time_stage("sim-bench", "serial-run", best_elapsed)
    return best_rate, {"sim_serial_run": best_elapsed}


def _sim_events_per_sec_batched(plane):
    """Batched kernel: one bulk same-tick storm drained by a single
    :meth:`Simulator.run_batched` sweep.  The measured window includes
    the scheduling cost (``schedule_bulk``), so the number is the
    honest end-to-end cost per pre-planned event."""
    from repro.netsim import Simulator

    best_rate = 0.0
    best_stages = {"sim_batched_schedule": 0.0, "sim_batched_drain": 0.0}
    for _ in range(SIM_REPS):
        gc.collect()
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1

        start = time.perf_counter()
        sim.schedule_bulk(0.001, [tick] * SIM_TICKS)
        scheduled = time.perf_counter()
        sim.run_batched()
        end = time.perf_counter()
        rate = count[0] / (end - start)
        if rate > best_rate:
            best_rate = rate
            best_stages = {
                "sim_batched_schedule": scheduled - start,
                "sim_batched_drain": end - scheduled,
            }
    plane.time_stage("sim-bench", "batched-schedule",
                     best_stages["sim_batched_schedule"])
    plane.time_stage("sim-bench", "batched-drain",
                     best_stages["sim_batched_drain"])
    return best_rate, best_stages


def _fork_latency_ms():
    from repro.scenario.spec import ScenarioSpec
    from repro.scenario.session import Session

    spec = ScenarioSpec.from_fuzz_v1({
        "seed": 9, "n_cells": 2, "n_hosts": 2,
        "max_previous_sources": 4, "horizon": 10.0,
        "moves": [], "pings": [],
    })
    session = Session(spec)
    session.run_to_checkpoint()
    snapshot = session.snapshot()
    gc.collect()
    start = time.perf_counter()
    for _ in range(FORK_ROUNDS):
        snapshot.fork()
    return (time.perf_counter() - start) / FORK_ROUNDS * 1000.0


def measure() -> dict:
    from repro.obs import ObsPlane
    from repro.wire.conformance import figure1_walkthrough_spec

    plane = ObsPlane()
    # Kernel microbenches first, on a clean allocator (see module
    # docstring for why the old run-last ordering lied).
    sim_rate, sim_stages = _sim_events_per_sec(plane)
    batched_rate, batched_stages = _sim_events_per_sec_batched(plane)

    walkthrough, walk_elapsed, _ = _run_engine(figure1_walkthrough_spec(), False)
    _, fig_obs_elapsed, fig_obs = _run_engine(
        figure1_walkthrough_spec(), False, with_obs=True
    )
    storm_off, off_elapsed, _ = _run_engine(_pps_spec(), False)
    storm_on, on_elapsed, _ = _run_engine(_pps_spec(), True)
    storm_spans, spans_elapsed, storm_obs = _run_engine(
        _pps_spec(), False, with_obs=True
    )
    part_det, part_perf, part_stages = _measure_partitioned()

    deterministic = {
        **part_det,
        "figure1_engine_events": len(walkthrough.events),
        "figure1_engine_datagrams": walkthrough.datagrams_delivered,
        "figure1_span_count": len(fig_obs.spans),
        "pingstorm_engine_datagrams": storm_off.datagrams_delivered,
        "pingstorm_tracing_invariant":
            storm_on.datagrams_delivered == storm_off.datagrams_delivered,
        "pingstorm_spans_invariant":
            storm_spans.datagrams_delivered == storm_off.datagrams_delivered,
    }
    perf = {
        "sim_events_per_sec": round(sim_rate),
        "sim_events_per_sec_batched": round(batched_rate),
        "engine_events_per_sec": round(len(walkthrough.events) / walk_elapsed),
        "engine_pps_tracing_off": round(storm_off.datagrams_delivered / off_elapsed),
        "engine_pps_tracing_on": round(storm_on.datagrams_delivered / on_elapsed),
        # Span-tracing overhead: the same storm with the obs plane
        # attached (spans + per-category counters) vs fully detached.
        "engine_pps_spans_off": round(storm_off.datagrams_delivered / off_elapsed),
        "engine_pps_spans_on": round(
            storm_spans.datagrams_delivered / spans_elapsed
        ),
        "fork_latency_ms": round(_fork_latency_ms(), 3),
        **part_perf,
    }
    stages = {
        **sim_stages,
        **batched_stages,
        **part_stages,
        "engine_walkthrough": walk_elapsed,
        "engine_storm_tracing_off": off_elapsed,
        "engine_storm_tracing_on": on_elapsed,
        "engine_storm_spans_on": spans_elapsed,
    }
    return {
        "deterministic": deterministic,
        "perf": perf,
        "stages": {key: round(value, 6) for key, value in stages.items()},
    }


def _load_trajectory() -> dict:
    if not GOLDEN.exists():
        return {"schema": 3, "trajectory": []}
    return json.loads(GOLDEN.read_text())


def _adapter_ratio(entry: dict) -> float:
    return entry["perf"]["engine_events_per_sec"] / entry["perf"]["sim_events_per_sec"]


def _stage_diff(committed: dict, measured: dict) -> str:
    """Committed-vs-measured stage table; shows where the time went."""
    lines = ["  stage timings (committed -> measured, seconds):"]
    for stage in sorted(set(committed) | set(measured)):
        old, new = committed.get(stage), measured.get(stage)
        if old is None:
            lines.append(f"    {stage}: (new) {new:.6f}")
        elif new is None:
            lines.append(f"    {stage}: {old:.6f} (gone)")
        else:
            delta = f"{(new - old) / old:+.0%}" if old else "n/a"
            lines.append(f"    {stage}: {old:.6f} -> {new:.6f} ({delta})")
    return "\n".join(lines)


def render(entry: dict) -> str:
    det, perf = entry["deterministic"], entry["perf"]
    return "\n".join([
        "engine perf trajectory",
        f"  simulator core: {perf['sim_events_per_sec']} events/s serial, "
        f"{perf['sim_events_per_sec_batched']} events/s batched",
        f"  figure-1 walkthrough: {det['figure1_engine_events']} events, "
        f"{det['figure1_engine_datagrams']} datagrams "
        f"({perf['engine_events_per_sec']} events/s)",
        f"  ping storm: {perf['engine_pps_tracing_off']} pps tracing off, "
        f"{perf['engine_pps_tracing_on']} pps tracing on "
        f"({det['pingstorm_engine_datagrams']} datagrams)",
        f"  span tracing: {perf['engine_pps_spans_off']} pps detached, "
        f"{perf['engine_pps_spans_on']} pps with the obs plane "
        f"({det['figure1_span_count']} figure-1 spans)",
        f"  scenario fork: {perf['fork_latency_ms']} ms",
        f"  partitioned (4x{PARTITION_HOSTS_PER_CAMPUS // 1000}k-host load): "
        f"{det['partition_events']} events, "
        f"{perf['partitioned_events_per_sec']} events/s parallel, "
        f"speedup {perf['partition_speedup']}x on {perf['cpu_count']} cpu(s), "
        f"byte-identity {'OK' if det['partition_identity'] else 'BROKEN'}",
    ])


def _check(entry: dict) -> int:
    if not GOLDEN.exists():
        print(f"FAIL: no committed trajectory at {GOLDEN}", file=sys.stderr)
        return 1
    data = _load_trajectory()
    if not data.get("trajectory"):
        print(f"FAIL: empty trajectory at {GOLDEN}", file=sys.stderr)
        return 1
    last = data["trajectory"][-1]
    if last["deterministic"] != entry["deterministic"]:
        print("FAIL: deterministic counts drifted from the last "
              f"committed entry (pr={last.get('pr')}):", file=sys.stderr)
        print(f"  committed: {last['deterministic']}", file=sys.stderr)
        print(f"  measured:  {entry['deterministic']}", file=sys.stderr)
        print(f"  (regenerate with: python {sys.argv[0]} --write "
              f"--pr {last.get('pr')})", file=sys.stderr)
        return 1
    print(f"perf delta vs last committed entry (pr={last.get('pr')}):")
    for key, old in last["perf"].items():
        new = entry["perf"].get(key)
        if old and new is not None:
            print(f"  {key}: {old} -> {new} ({(new - old) / old:+.0%})")
    print("deterministic counts: OK")

    # Measured simulator-kernel gate, with the stage diff on failure.
    committed_sim = last["perf"]["sim_events_per_sec"]
    measured_sim = entry["perf"]["sim_events_per_sec"]
    if measured_sim < SIM_GATE * committed_sim:
        print(f"FAIL: sim_events_per_sec {measured_sim} fell below "
              f"{SIM_GATE:.0%} of the committed {committed_sim} "
              f"(pr={last.get('pr')})", file=sys.stderr)
        print(_stage_diff(last.get("stages", {}), entry.get("stages", {})),
              file=sys.stderr)
        return 1
    print(f"sim kernel: OK ({measured_sim} >= {SIM_GATE:.0%} "
          f"of committed {committed_sim})")

    if len(data["trajectory"]) >= 2:
        prev = data["trajectory"][-2]
        prev_ratio, last_ratio = _adapter_ratio(prev), _adapter_ratio(last)
        print(f"committed adapter overhead (engine/sim events ratio, "
              f"informational): pr={prev.get('pr')} {prev_ratio:.4f} -> "
              f"pr={last.get('pr')} {last_ratio:.4f} "
              f"({(last_ratio - prev_ratio) / prev_ratio:+.1%})")
        prev_engine = prev["perf"]["engine_events_per_sec"]
        last_engine = last["perf"]["engine_events_per_sec"]
        if last_engine < OVERHEAD_GATE * prev_engine:
            print(f"FAIL: committed engine_events_per_sec regressed more "
                  f"than {1 - OVERHEAD_GATE:.0%} between pr="
                  f"{prev.get('pr')} ({prev_engine}) and pr="
                  f"{last.get('pr')} ({last_engine})", file=sys.stderr)
            return 1
        print("committed engine throughput: OK")

    batched = last["perf"].get("sim_events_per_sec_batched")
    if batched is not None and batched < last["perf"]["sim_events_per_sec"]:
        print(f"FAIL: committed batched kernel ({batched}) slower than "
              f"the serial kernel ({last['perf']['sim_events_per_sec']}) "
              f"in its own process (pr={last.get('pr')})", file=sys.stderr)
        return 1
    if batched is not None:
        print("committed batched kernel: OK")

    # Partitioned-engine columns (schema 3).  Byte-identity must hold
    # everywhere; the speedup is informational (a single wall-clock
    # ratio is too noisy to gate, like bench_partition.py --quick's).
    if "partition_identity" in entry["deterministic"]:
        if not entry["deterministic"]["partition_identity"]:
            print("FAIL: partitioned run diverged from the serial "
                  "reference (byte-identity broken)", file=sys.stderr)
            return 1
        print("partitioned byte-identity: OK")
        speedup = entry["perf"]["partition_speedup"]
        cpus = entry["perf"].get("cpu_count", 1)
        print(f"partition speedup (informational): {speedup}x on "
              f"{cpus} cpu(s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"append/replace this PR's entry in {GOLDEN}")
    parser.add_argument("--pr", type=int, default=None,
                        help="PR number the --write entry belongs to")
    parser.add_argument("--check", action="store_true",
                        help="fail on deterministic drift, on a measured "
                             "sim-kernel regression vs the last committed "
                             "entry, and on committed engine-throughput "
                             "regression; print the perf delta")
    args = parser.parse_args(argv)

    entry = measure()
    print(render(entry))

    if args.write:
        if args.pr is None:
            print("FAIL: --write needs --pr <number> to label the entry",
                  file=sys.stderr)
            return 1
        data = _load_trajectory()
        data["schema"] = 3
        entries = [e for e in data["trajectory"] if e.get("pr") != args.pr]
        entries.append({"pr": args.pr, **entry})
        data["trajectory"] = sorted(entries, key=lambda e: e["pr"])
        GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN} (entry pr={args.pr}, "
              f"{len(data['trajectory'])} entries)")
        return 0

    if args.check:
        return _check(entry)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
