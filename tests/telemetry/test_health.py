"""ProtocolHealth end-to-end: the Figure-1 walkthrough and the loop
laboratory must produce the distributions the paper argues about."""

import pytest

from repro.telemetry.cli import figure1_scenario, loop_scenario
from repro.telemetry.health import ProtocolHealth


@pytest.fixture(scope="module")
def figure1():
    return figure1_scenario(seed=42)


def test_figure1_latency_counts_every_data_delivery(figure1):
    sim, hub = figure1
    # 3 echo requests + 3 replies reach their destinations as data.
    assert hub.delivered.value == 6
    assert hub.latency.count == 6
    assert hub.latency.min > 0
    # Control traffic (updates, advertisements, registrations) is
    # counted separately, never in the latency distribution.
    assert hub.control_delivered.value > 0


def test_figure1_blackout_recorded_after_handoff(figure1):
    sim, hub = figure1
    # One handoff (net D -> net E) happens after M has received data,
    # so exactly one blackout interval resolves.
    assert hub.blackout.count == 1
    assert hub.blackout.min > 0
    # The last ping lands after the move, so nothing is left pending.
    assert not hub._pending_blackout


def test_figure1_stretch_at_least_one(figure1):
    sim, hub = figure1
    assert hub.stretch.count > 0
    assert hub.stretch.min >= 1.0  # actual hops can never beat shortest
    # Tunneling via the home agent must show up as stretch > 1 somewhere.
    assert hub.stretch.max > 1.0


def test_figure1_mobility_counters(figure1):
    sim, hub = figure1
    assert hub.moves.value == 3            # home, net D, net E
    assert hub.registrations.value == 2    # FA connects at D and E
    assert hub.registration_latency.count == 2
    assert hub.registration_latency.min > 0
    lookups = hub.cache_hits.value + hub.cache_misses.value
    assert lookups > 0
    assert hub.cache_hits.value > 0        # S's cache serves later pings


def test_figure1_tunnel_metrics(figure1):
    sim, hub = figure1
    assert hub.tunnel_chain.count == 6
    assert hub.tunnel_chain.max >= 1       # some deliveries were tunneled
    assert hub.prev_sources.count > 0      # FA observed previous-source lists


def test_figure1_summary_is_flat_and_deterministic(figure1):
    _, hub = figure1
    summary = hub.summary()
    assert all(isinstance(v, (int, float)) for v in summary.values())
    assert summary["packets_delivered"] == 6
    assert summary["latency_ms_p50"] > 0
    assert summary["blackout_ms_max"] > 0
    # Re-running the same seed reproduces the summary exactly.
    _, hub2 = figure1_scenario(seed=42)
    assert hub2.summary() == summary


def test_loop_dissolution_timed():
    sim, hub = loop_scenario(seed=3)
    assert hub.loops_dissolved.value >= 1
    assert hub.loop_dissolution.count >= 1
    assert hub.loop_dissolution.min > 0


def test_detached_simulator_pays_nothing():
    """Without a hub, sim.telemetry stays None and the walkthrough's
    behaviour is byte-identical to the pre-telemetry code path."""
    from tests.core.test_golden_trace import run_figure1_scenario

    sim = run_figure1_scenario()
    assert sim.telemetry is None


def test_attach_without_trace_subscription():
    """Dataplane-fed metrics work even when the tracer is disabled."""
    from repro.workloads.topology import build_figure1

    topo = build_figure1(seed=42)
    sim, s, m = topo.sim, topo.s, topo.m
    sim.tracer.enabled = False
    sim.tracer.clear()  # drop the build-time advertisement frames
    hub = sim.attach(
        ProtocolHealth(journey_index=False),
        nodes=[s, topo.r1, topo.r2, topo.r3, topo.r4, topo.r5, m],
        subscribe_trace=False,
    )
    m.attach_home(topo.net_b)
    sim.run(until=5.0)
    m.attach(topo.net_d)
    sim.run(until=12.0)
    s.ping(m.home_address)
    sim.run(until=16.0)
    assert hub.delivered.value == 2        # request + reply
    assert hub.latency.count == 2
    assert hub.moves.value == 2
    assert not sim.tracer.entries          # tracer really was off
    assert hub.index is None


def test_inflight_table_is_bounded():
    from repro.ip.packet import IPPacket
    from repro.ip.protocols import UDP

    hub = ProtocolHealth(max_inflight=10, journey_index=False)
    for i in range(25):
        hub.packet_sent(float(i), "A", IPPacket(src="10.0.0.1", dst="10.0.0.2",
                                                protocol=UDP, uid=i + 1))
    assert len(hub._inflight) == 10
    assert hub.inflight_evicted == 15
