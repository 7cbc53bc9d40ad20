"""The traced pass: every per-layer metric of one workload.

Three sources, all outside the program:

1. the :class:`~layers.LayerProfiler` hook around one pass — layer self
   times, shares, boundary crossings, exact call counts, returned bytes;
2. the public result object of that pass — events, health counters,
   partition counters, span counts;
3. direct timed calls into a layer's public API — the bare event kernel,
   ``RoutingTable.lookup`` on the run's final tables, the codec round
   trip on packets the run produced, ``Snapshot.fork``, and
   interleaved passes for the three wall ratios.

A metric that does not apply to a workload (``partition.windows`` on the
ping storm) is reported as 0.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Dict, List

import drive
import layers
from workloads import WORKLOADS, Workload

#: Events per bare-kernel measurement, and measurements (best is kept).
KERNEL_TICKS, KERNEL_REPEATS = 50_000, 3
#: Interleaved pairs behind each wall ratio.
RATIO_PAIRS = 3
#: Forks timed one by one for ``scenario.fork_ms_*`` at scale 1.
FORK_SAMPLES = 300


def _median_stage(samples: List[Dict[str, float]], stage: str) -> float:
    return statistics.median(s.get(stage, 0.0) for s in samples)


# ----------------------------------------------------------------------
# Direct probes
# ----------------------------------------------------------------------
def bare_kernel_events_per_s() -> Dict[str, float]:
    """The old kernel microbench (``BENCH_engine.json``'s headline), now
    one row: self-rescheduling ticks through ``run_until_idle``, and one
    bulk same-tick storm through ``run_batched`` (scheduling included)."""
    from repro.netsim import Simulator

    serial = batched = 0.0
    for _ in range(KERNEL_REPEATS):
        gc.collect()
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < KERNEL_TICKS:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        start = time.perf_counter()
        sim.run_until_idle(max_events=KERNEL_TICKS + 10_000)
        serial = max(serial, count[0] / (time.perf_counter() - start))

        gc.collect()
        sim = Simulator(seed=1)
        fired = [0]

        def bump():
            fired[0] += 1

        start = time.perf_counter()
        sim.schedule_bulk(0.001, [bump] * KERNEL_TICKS)
        sim.run_batched()
        batched = max(batched, fired[0] / (time.perf_counter() - start))
    return {"serial": serial, "batched": batched}


def wall_ratio(numerator, denominator) -> float:
    """Median wall of ``numerator()`` over median wall of
    ``denominator()``, passes interleaved so drift hits both alike."""
    top, bottom = [], []
    for _ in range(RATIO_PAIRS):
        gc.collect()
        bottom.append(denominator())
        gc.collect()
        top.append(numerator())
    return statistics.median(top) / statistics.median(bottom)


def lookup_us(session) -> float:
    """``RoutingTable.lookup`` on the run's final tables, over every
    endpoint address of the world."""
    world = session.world
    addresses = [mh.home_address for mh in world.mobile_hosts]
    addresses += [c.primary_address for c in world.correspondents]
    tables = [node.routing_table for node in world.nodes]
    rounds = max(1, 20_000 // (len(addresses) * len(tables)))
    start = time.perf_counter()
    for _ in range(rounds):
        for table in tables:
            for address in addresses:
                table.lookup(address)
    elapsed = time.perf_counter() - start
    return elapsed / (rounds * len(tables) * len(addresses)) * 1e6


def codec_roundtrip_us(events) -> float:
    """``encode_packet`` -> ``decode_packet`` on tunnel packets the
    engine run delivered (0 when the run tunneled nothing)."""
    from repro.ip.protocols import MHRP
    from repro.wire.codec import decode_packet, encode_packet

    packets = [
        event.packet
        for _, event in events
        if event.category == "packet.delivered"
        and event.packet is not None
        and event.packet.protocol == MHRP
    ][:200]
    if not packets:
        return 0.0
    rounds = 10
    start = time.perf_counter()
    for _ in range(rounds):
        for packet in packets:
            decode_packet(encode_packet(packet))
    return (time.perf_counter() - start) / (rounds * len(packets)) * 1e6


def fork_ms(snapshot, scale: float) -> Dict[str, float]:
    samples = []
    for _ in range(max(20, round(FORK_SAMPLES * scale))):
        gc.collect()
        start = time.perf_counter()
        snapshot.fork()
        samples.append((time.perf_counter() - start) * 1e3)
    cuts = statistics.quantiles(samples, n=20)
    return {"p50": statistics.median(samples), "p95": cuts[18]}


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced_run(name: str, seed: int, scale: float, out_dir: str) -> dict:
    workload: Workload = WORKLOADS[name]
    spec = workload.build(seed, scale)
    metrics: Dict[str, float] = {}

    def wall_of(other: Workload = workload, **kwargs) -> float:
        return drive.run_pass(other, spec, scale, forks, **kwargs).wall_s

    # -- set-up stages -------------------------------------------------
    stage_samples, snapshot = [], None
    for _ in range(3):
        gc.collect()
        stages, snapshot = drive.setup_once(workload, spec)
        stage_samples.append(stages)
    forks = drive.prepare_forks(spec, snapshot) if workload.kind == "fork" else None
    metrics["scenario.build_s"] = _median_stage(stage_samples, "build_s")
    metrics["scenario.install_s"] = _median_stage(stage_samples, "install_s")
    metrics["scenario.snapshot_ms"] = _median_stage(stage_samples, "snapshot_s") * 1e3
    forked = fork_ms(snapshot, scale) if forks else {"p50": 0.0, "p95": 0.0}
    metrics["scenario.fork_ms_p50"] = forked["p50"]
    metrics["scenario.fork_ms_p95"] = forked["p95"]

    # -- untraced reference (second of two passes), then the traced pass
    drive.run_pass(workload, spec, scale, forks)
    gc.collect()
    plain = drive.run_pass(workload, spec, scale, forks)
    gc.collect()
    profiler = layers.LayerProfiler()
    traced = drive.run_pass(workload, spec, scale, forks, profiler=profiler)
    violations = list(traced.violations)
    if traced.fingerprint() != plain.fingerprint():
        violations.append("traced-pass-differs-from-untraced")

    charged = profiler.charged_s
    self_s, calls_into = profiler.self_s, profiler.calls_into
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / charged
        metrics[f"{layer}.calls"] = calls_into[layer]
    metrics["trace.attributed_share"] = 1.0 - self_s["other"] / charged
    metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    if metrics["trace.attributed_share"] < 0.90:
        violations.append("trace-attributes-less-than-90-percent")

    calls = profiler.calls
    result = traced.result
    health = {} if workload.kind == "fork" else (result.health or {})

    # -- netsim --------------------------------------------------------
    events = traced.events
    kernel = bare_kernel_events_per_s()
    metrics["netsim.events"] = events
    metrics["netsim.us_per_event"] = self_s["netsim"] / events * 1e6 if events else 0.0
    metrics["netsim.events_per_s"] = plain.events / plain.wall_s
    metrics["netsim.cancelled"] = calls("netsim/events.py", "EventQueue.note_cancelled")
    metrics["netsim.compactions"] = calls("netsim/events.py", "EventQueue.compact")
    metrics["netsim.bare_events_per_s"] = kernel["serial"]
    metrics["netsim.bare_batched_events_per_s"] = kernel["batched"]
    metrics["netsim.batched_wall_ratio"] = (
        wall_ratio(lambda: wall_of(backend="batched"), wall_of) if workload.is_sim else 0.0
    )

    # -- trace and telemetry -------------------------------------------
    records = calls("netsim/trace.py", "Tracer.record")
    metrics["netsim.trace.records"] = records
    metrics["netsim.trace.us_per_record"] = (
        self_s["netsim.trace"] / records * 1e6 if records else 0.0
    )
    metrics["telemetry.journey_observes"] = calls("telemetry/journeys.py", "JourneyIndex.observe")
    metrics["telemetry.health_callbacks"] = sum(
        calls("telemetry/health.py", f"ProtocolHealth.{hook}")
        for hook in (
            "packet_sent", "packet_forwarded", "packet_delivered", "packet_dropped",
            "cache_lookup", "mh_moved", "registration_complete", "tunnel_delivery",
            "_on_trace",
        )
    )

    # -- link, ip ------------------------------------------------------
    frames = calls("link/medium.py", "Medium.transmit")
    metrics["link.frames_tx"] = frames
    metrics["link.deliveries_per_frame"] = (
        calls("link/interface.py", "NetworkInterface.receive_frame") / frames if frames else 0.0
    )
    packets = calls("ip/packet.py", "IPPacket.__post_init__")
    metrics["ip.packet.total_length_calls_per_packet"] = (
        calls("ip/packet.py", "IPPacket.total_length") / packets if packets else 0.0
    )
    metrics["ip.packet.repr_calls"] = calls("ip/packet.py", "IPPacket.__repr__")
    metrics["ip.packet.to_bytes_calls"] = calls("ip/packet.py", "IPPacket.to_bytes")
    metrics["ip.dataplane.rx"] = calls("ip/dataplane.py", "Dataplane.ingress")
    metrics["ip.dataplane.forwarded"] = calls("ip/dataplane.py", "Dataplane.forward")
    metrics["ip.dataplane.tunneled"] = calls("core/encapsulation.py", "encapsulate") + calls(
        "core/encapsulation.py", "retunnel"
    )
    metrics["ip.dataplane.dropped"] = calls("ip/dataplane.py", "Dataplane.drop")
    metrics["ip.dataplane.lpm_lookups"] = calls("ip/routing.py", "RoutingTable.lookup")
    metrics["ip.dataplane.lookup_us"] = lookup_us(result.detail) if workload.is_sim else 0.0

    # -- wire ----------------------------------------------------------
    metrics["wire.roles.registrations"] = health.get("registrations", 0)
    metrics["wire.roles.updates_sent"] = calls("wire/roles.py", "send_location_update")
    metrics["wire.roles.loops_dissolved"] = health.get("loops_dissolved", 0)
    metrics["wire.codec.encodes"] = calls("wire/codec.py", "encode_packet")
    metrics["wire.codec.decodes"] = calls("wire/codec.py", "decode_packet")
    metrics["wire.codec.bytes"] = profiler.returned_size("wire/codec.py", "encode_packet")
    engine = workload.backend == "engine"
    metrics["wire.codec.roundtrip_us"] = codec_roundtrip_us(result.trace) if engine else 0.0
    metrics["wire.driver.actions"] = calls("wire/driver.py", "EngineDriver._dispatch")
    metrics["wire.driver.datagrams"] = result.detail.datagrams_delivered if engine else 0
    metrics["wire.engine.turns"] = calls("wire/driver.py", "EngineDriver.process")

    # -- obs -----------------------------------------------------------
    metrics["obs.spans"] = len(result.detail.obs.spans) if workload.obs else 0
    metrics["obs.attached_wall_ratio"] = (
        wall_ratio(wall_of, lambda: wall_of(WORKLOADS["handoff-sim"])) if workload.obs else 0.0
    )

    # -- partition -----------------------------------------------------
    partitioned = workload.backend == "partitioned"
    counters = result.counters if partitioned else {}
    windows = counters.get("windows", 0)
    metrics["partition.windows"] = windows
    metrics["partition.exports"] = counters.get("exports_delivered", 0)
    metrics["partition.export_bytes"] = profiler.returned_size(
        "partition/runtime.py", "PartitionRuntime.drain_outbox"
    )
    metrics["partition.us_per_window"] = self_s["partition"] / windows * 1e6 if windows else 0.0
    metrics["partition.migrations"] = counters.get("migrations_out", 0)
    metrics["partition.parallel_speedup"] = 0.0
    if partitioned:
        from repro import backend as facade

        gc.collect()
        parallel = facade.run(spec, "partitioned", workers=spec.partitions)
        metrics["partition.parallel_speedup"] = plain.wall_s / parallel.wall_seconds

    # -- ops -----------------------------------------------------------
    metrics["ops.attempted"] = traced.ops_attempted
    metrics["ops.ok"] = traced.ops_ok
    metrics["ops.lost_share"] = 1.0 - traced.ops_ok / traced.ops_attempted

    trace_file = os.path.join(out_dir, f"trace-{name}.json")
    profiler.write(
        trace_file,
        {
            "workload": name,
            "seed": seed,
            "scale": scale,
            "untraced_wall_s": plain.wall_s,
            "how_to_read": "see benchmarks/e2e/README.md, 'Reading trace-<workload>.json'",
        },
    )
    return {
        "per_layer": metrics,
        "ops_attempted": traced.ops_attempted,
        "violations": violations,
        "fingerprint": traced.fingerprint(),
        "trace_file": os.path.relpath(trace_file),
    }
