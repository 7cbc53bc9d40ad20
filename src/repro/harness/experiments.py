"""The built-in experiment catalogue.

Each cell function takes ``seed`` plus grid parameters, builds a fresh
deterministic :class:`~repro.netsim.simulator.Simulator` world, and
returns a flat dict of metrics.  They are addressed by dotted path in
the specs so sweep worker processes can import them directly.

Registered sweeps:

- ``loop-contraction`` — the Section 5.3 loop laboratory (E3): loop
  size × previous-source list bound, plus the TTL-only counterfactual.
- ``scalability`` — the Section 7 broadcast argument (E4a): control
  cost of one location-discovery event vs infrastructure size, per
  protocol.
- ``scalability-state`` — the Section 7 state argument (E4b): per-node
  MHRP state as the mobile-host population grows.
- ``dataplane`` — per-hop pipeline microbench: packets/sec through a
  line of routers, tracing on and off, plus the deterministic packet
  accounting the CI baseline gates on.
- ``handoff-telemetry`` — Figure-1 under a continuous ping stream with
  a :class:`~repro.telemetry.health.ProtocolHealth` hub attached:
  end-to-end latency / path stretch / handoff blackout / registration
  latency distributions vs wireless link latency and ping rate.
- ``registration-storm`` — a campus-wide relocation storm whose run is
  ~98% shared warm-up; the showcase (and CI proof) for ``--warm-start``
  checkpoint sharing.
- ``invariant-fuzz`` — seeded random mobility/fault/traffic scenarios
  executed under the :mod:`repro.invariants` auditor; ``python -m
  repro fuzz`` drives it and shrinks violations to minimal repros.
"""

from __future__ import annotations

from typing import Dict

from repro.harness.spec import ExperimentSpec, register


# ----------------------------------------------------------------------
# loop-contraction (E3)
# ----------------------------------------------------------------------
def loop_contraction_cell(
    seed: int, loop_size: int, max_list: int, mechanism: str = "list", ttl: int = 64
) -> Dict[str, object]:
    """One injected packet around a ring of ``loop_size`` mis-seeded
    cache agents, with the previous-source list bounded at ``max_list``.

    ``mechanism="ttl"`` is the Section 7 counterfactual: the list check
    is disabled, so only TTL decay ends the loop.
    """
    from unittest import mock

    from repro.core.header import MHRPHeader
    from repro.workloads.loops import run_loop_experiment

    if mechanism == "ttl":
        with mock.patch.object(MHRPHeader, "contains_source", lambda self, a: False):
            run = run_loop_experiment(loop_size, max_list=255, ttl=ttl, seed=seed)
    elif mechanism == "list":
        run = run_loop_experiment(loop_size, max_list, ttl=ttl, seed=seed)
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    resolved = run.detected or run.escaped_home or run.retunnels <= 3 * loop_size
    return {
        "retunnels": run.retunnels,
        "detected": int(run.detected),
        "escaped_home": int(run.escaped_home),
        "loop_bytes": run.loop_bytes,
        "updates_sent": run.updates_sent,
        "resolved": int(resolved),
    }


LOOP_CONTRACTION = register(
    ExperimentSpec(
        name="loop-contraction",
        cell_fn="repro.harness.experiments:loop_contraction_cell",
        description="E3: loop detection/contraction vs TTL-only (Section 5.3)",
        grid=[
            {"loop_size": [2, 4, 8], "max_list": [2, 4, 8, 16], "mechanism": ["list"]},
            {"loop_size": [4, 8], "max_list": [16], "mechanism": ["ttl"]},
        ],
        seeds=(3, 5, 7),
        quick_grid=[{"loop_size": [2], "max_list": [2, 4], "mechanism": ["list"]}],
        quick_seeds=(3,),
        directions={"retunnels": "lower", "loop_bytes": "lower", "resolved": "higher"},
    )
)


# ----------------------------------------------------------------------
# scalability (E4)
# ----------------------------------------------------------------------
_SCENARIOS = {
    "mhrp": "repro.baselines.mhrp_scenario:MHRPScenario",
    "sunshine-postel": "repro.baselines.sunshine_postel:SunshinePostelScenario",
    "columbia": "repro.baselines.columbia:ColumbiaScenario",
    "sony-vip": "repro.baselines.sony_vip:SonyVIPScenario",
}


def _scenario_class(protocol: str):
    from repro.harness.runner import resolve_cell_fn

    try:
        return resolve_cell_fn(_SCENARIOS[protocol])
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}") from None


def _control_cost_of_one_move(scenario) -> int:
    """Control messages for: attach at cell 0, one packet, move to
    cell 1, one packet."""
    scenario.move_to_cell(0)
    scenario.settle()
    if hasattr(scenario, "prime"):
        scenario.prime()
        scenario.settle(3.0)
    scenario.send_packet()
    scenario.settle(3.0)
    before = scenario.stats.control_messages
    scenario.move_to_cell(1)
    scenario.settle()
    scenario.send_packet()
    scenario.settle(3.0)
    return scenario.stats.control_messages - before


def _columbia_cold_lookup_cost(scenario) -> int:
    """Control messages for the first packet to an uncached host: the
    nearest MSR must multicast its search to every peer MSR."""
    scenario.move_to_cell(1)  # not the nearest MSR: forces a tunnel
    scenario.settle()
    before = scenario.stats.control_messages
    scenario.send_packet()
    scenario.settle(4.0)
    assert scenario.stats.packets_delivered == 1
    return scenario.stats.control_messages - before


def scalability_move_cell(seed: int, protocol: str, n_cells: int) -> Dict[str, object]:
    """Control cost of the protocol's location-discovery event on an
    ``n_cells`` infrastructure (Columbia measures its cold lookup, the
    others a move — the event Section 7 argues about)."""
    scenario = _scenario_class(protocol)(n_cells=n_cells, seed=seed)
    if protocol == "columbia":
        cost = _columbia_cold_lookup_cost(scenario)
    else:
        cost = _control_cost_of_one_move(scenario)
    return {"control_cost": cost}


SCALABILITY = register(
    ExperimentSpec(
        name="scalability",
        cell_fn="repro.harness.experiments:scalability_move_cell",
        description="E4a: control cost of location discovery vs infrastructure size",
        grid={
            "protocol": ["mhrp", "sunshine-postel", "columbia", "sony-vip"],
            "n_cells": [2, 6, 12],
        },
        seeds=(7, 11, 13),
        quick_grid={"protocol": ["mhrp", "columbia"], "n_cells": [2, 6]},
        quick_seeds=(7,),
        directions={"control_cost": "lower"},
    )
)


def scalability_state_cell(seed: int, n_hosts: int, n_cells: int = 4) -> Dict[str, object]:
    """MHRP per-node state with ``n_hosts`` mobile hosts spread over
    ``n_cells`` cells of one organization."""
    from repro.netsim.simulator import Simulator
    from repro.workloads.topology import build_campus

    topo = build_campus(
        n_cells=n_cells,
        n_mobile_hosts=n_hosts,
        sim=Simulator(seed=seed),
        advertise=True,
    )
    for index, host in enumerate(topo.mobile_hosts):
        host.attach(topo.cells[index % len(topo.cells)])
    topo.sim.run(until=20.0)
    return {
        "db_size": len(topo.home_roles.home_agent.database),
        "max_visitors": max(
            len(roles.foreign_agent.visitors) for roles in topo.cell_roles
        ),
        "global_structures": 0,
    }


SCALABILITY_STATE = register(
    ExperimentSpec(
        name="scalability-state",
        cell_fn="repro.harness.experiments:scalability_state_cell",
        description="E4b: MHRP per-node state vs mobile-host population",
        grid={"n_hosts": [4, 16, 48], "n_cells": [4]},
        seeds=(5, 9, 17),
        quick_grid={"n_hosts": [4], "n_cells": [4]},
        quick_seeds=(5,),
        directions={"db_size": "both", "max_visitors": "lower"},
    )
)


# ----------------------------------------------------------------------
# dataplane (pipeline microbench)
# ----------------------------------------------------------------------
def _build_line(sim, n_routers: int):
    """A — R0 — R1 — … — R(n-1) — B over zero-ish-latency LANs."""
    from repro.ip.address import IPNetwork
    from repro.ip.host import Host
    from repro.ip.router import Router
    from repro.link.medium import LAN

    nets = [IPNetwork((10 << 24) | (i << 16), 24) for i in range(n_routers + 1)]
    lans = [LAN(sim, f"lan{i}", latency=0.0001) for i in range(n_routers + 1)]
    routers = []
    for i in range(n_routers):
        r = Router(sim, f"R{i}")
        r.add_interface("left", nets[i].host(254), nets[i], medium=lans[i])
        r.add_interface("right", nets[i + 1].host(253), nets[i + 1], medium=lans[i + 1])
        routers.append(r)
    for i, r in enumerate(routers):
        if i + 1 < n_routers:
            r.routing_table.add_next_hop(nets[-1], nets[i + 1].host(254), "right")
        if i > 0:
            r.routing_table.add_next_hop(nets[0], nets[i].host(253), "left")
    a = Host(sim, "A")
    a.add_interface("eth0", nets[0].host(1), nets[0], medium=lans[0])
    a.set_gateway(nets[0].host(254))
    b = Host(sim, "B")
    b.add_interface("eth0", nets[-1].host(1), nets[-1], medium=lans[-1])
    b.set_gateway(nets[-1].host(253))
    return a, b, routers


def dataplane_cell(
    seed: int, tracing: bool = False, n_routers: int = 4, n_packets: int = 5000
) -> Dict[str, object]:
    """A burst of ``n_packets`` UDP packets across a line of
    ``n_routers`` routers; measures wall-clock packets/sec through the
    per-hop pipeline and returns the deterministic packet accounting
    (``delivered``/``forwarded``/``events``) that the committed baseline
    gates on — ``pps`` is machine-dependent and deliberately absent from
    the baseline.
    """
    import time

    from repro.ip.packet import IPPacket, RawPayload
    from repro.ip.protocols import UDP
    from repro.netsim.simulator import Simulator

    sim = Simulator(seed=seed)
    sim.tracer.enabled = tracing
    a, b, routers = _build_line(sim, n_routers)
    delivered = [0]
    b.register_protocol(UDP, lambda p, i: delivered.__setitem__(0, delivered[0] + 1))
    # Warm ARP caches end to end so the timed burst measures forwarding.
    a.send(IPPacket(
        src=a.primary_address, dst=b.primary_address, protocol=UDP,
        uid=sim.next_uid(),
    ))
    sim.run_until_idle()
    warm = delivered[0]
    payload = RawPayload(b"x" * 64)
    src, dst = a.primary_address, b.primary_address

    def burst() -> None:
        for _ in range(n_packets):
            a.send(IPPacket(
                src=src, dst=dst, protocol=UDP, payload=payload,
                uid=sim.next_uid(),
            ))

    sim.schedule(0.0, burst)
    t0 = time.perf_counter()
    sim.run_until_idle(max_events=20_000_000)
    wall = time.perf_counter() - t0
    return {
        "pps": n_packets / wall,
        "delivered": delivered[0] - warm,
        "forwarded": sum(r.packets_forwarded for r in routers),
        "events": sim.events_processed,
    }


# ----------------------------------------------------------------------
# handoff-telemetry (the PR 3 observability sweep)
# ----------------------------------------------------------------------
def handoff_telemetry_spec(
    seed: int,
    wireless_latency: float = 0.003,
    ping_interval: float = 0.5,
    duration: float = 40.0,
):
    """The Figure-1 handoff scenario as a :class:`ScenarioSpec`.

    The attach-home + first-handoff warm-up (t < 4) is identical for
    every ``ping_interval``, so all cells of one ``(wireless_latency,
    seed)`` point share a prefix hash — under ``--warm-start`` they fork
    one checkpoint instead of re-running the warm-up per cell.
    """
    from repro.scenario import ScenarioSpec

    pings = []
    t = 4.0
    while t < duration - 1.0:
        pings.append({"t": round(t, 6), "src": 0, "host": 0})
        t += ping_interval
    return ScenarioSpec(
        name="handoff-telemetry",
        seed=seed,
        topology={"kind": "figure1", "wireless_latency": wireless_latency},
        horizon=duration,
        checkpoint=4.0,
        # Bound trace storage: the hub sees every entry anyway (its listener
        # on record, its journey index folded before an entry is evicted).
        trace_limit=10_000,
        instruments=[{"kind": "health", "max_completed_journeys": 256}],
        moves=[
            {"t": 0.0, "host": 0, "to": -1},
            {"t": 2.0, "host": 0, "to": 0},
            {"t": 15.0, "host": 0, "to": 1},
            {"t": 28.0, "host": 0, "to": 0},
        ],
        pings=pings,
    )


def handoff_telemetry_cell(
    seed: int,
    wireless_latency: float = 0.003,
    ping_interval: float = 0.5,
    duration: float = 40.0,
) -> Dict[str, object]:
    """Figure-1 with a telemetry hub attached and a steady ping stream
    from the correspondent across two handoffs (B -> D -> E -> D).

    Returns the hub's full flat summary, so the aggregator rolls the
    latency/stretch/blackout/registration percentiles up across seeds
    (every value is simulation-time-derived, hence deterministic per
    seed).
    """
    from repro.scenario import warmstart

    session = warmstart.session_at_checkpoint(
        handoff_telemetry_spec(seed, wireless_latency, ping_interval, duration)
    )
    session.install_tail()
    session.run()
    return session.telemetry.summary()


HANDOFF_TELEMETRY = register(
    ExperimentSpec(
        name="handoff-telemetry",
        cell_fn="repro.harness.experiments:handoff_telemetry_cell",
        description="handoff latency/stretch/blackout distributions on Figure-1",
        grid={
            "wireless_latency": [0.003, 0.01, 0.03],
            "ping_interval": [0.5, 0.25, 0.1],
        },
        seeds=(42, 43, 44),
        version=2,  # cell rebuilt on the scenario-session API
        quick_grid={"wireless_latency": [0.003], "ping_interval": [0.5]},
        quick_seeds=(42,),
        directions={
            "latency_ms_p95": "lower",
            "stretch_p95": "lower",
            "blackout_ms_max": "lower",
            "registration_ms_p95": "lower",
            "packets_delivered": "higher",
            "packets_dropped": "lower",
        },
    )
)


# ----------------------------------------------------------------------
# registration-storm (the warm-start showcase)
# ----------------------------------------------------------------------
def registration_storm_spec(seed: int, probe_cell: int = 0, n_hosts: int = 30):
    """A campus under a registration storm, with a tiny probe tail.

    Thirty mobile hosts attach home, then move through three full
    relocation waves — tens of thousands of registration / update / ARP
    events, all before the checkpoint at t=15.  The tail (one extra
    move wave into ``probe_cell`` plus two convergence probes) is a few
    dozen events, so virtually the whole run is shareable warm-up: the
    shape that makes warm-start sweeps pay.
    """
    from repro.scenario import ScenarioSpec

    n_cells = 6
    moves = [
        {"t": round(0.2 + 0.1 * i, 3), "host": i, "to": -1} for i in range(n_hosts)
    ]
    for i in range(n_hosts):
        moves.append({"t": round(4.0 + 0.1 * i, 3), "host": i, "to": i % n_cells})
        moves.append(
            {"t": round(8.0 + 0.1 * i, 3), "host": i, "to": (i + 1) % n_cells}
        )
        moves.append(
            {"t": round(12.0 + 0.1 * i, 3), "host": i, "to": (i + 2) % n_cells}
        )
    # Tail: a short third wave of the first few hosts into probe_cell.
    for i in range(4):
        moves.append({"t": round(15.5 + 0.2 * i, 3), "host": i, "to": probe_cell})
    return ScenarioSpec(
        name="registration-storm",
        seed=seed,
        topology={
            "kind": "campus",
            "n_cells": n_cells,
            "n_mobile_hosts": n_hosts,
            "n_correspondents": 2,
            "advertise": True,
        },
        horizon=20.0,
        checkpoint=15.0,
        trace_limit=10_000,
        moves=moves,
        probes=[{"t": 17.0, "src": 0, "host": 0}, {"t": 17.5, "src": 1, "host": 1}],
    )


def registration_storm_cell(
    seed: int, probe_cell: int = 0, n_hosts: int = 30
) -> Dict[str, object]:
    """One storm cell: the deterministic packet/event accounting after
    the probe tail.  Every metric is simulation-state-derived, so a
    warm-started cell is byte-identical to a cold one."""
    from repro.scenario import warmstart

    session = warmstart.session_at_checkpoint(
        registration_storm_spec(seed, probe_cell=probe_cell, n_hosts=n_hosts)
    )
    session.install_tail()
    session.run()
    counters = [node.dataplane.counters for node in session.world.nodes]
    return {
        "events": session.sim.events_processed,
        "delivered": sum(c.delivered for c in counters),
        "forwarded": sum(c.forwarded for c in counters),
        "tunneled": sum(c.tunneled for c in counters),
        "dropped": sum(c.dropped_total for c in counters),
        "db_size": len(session.world.home_roles.home_agent.database),
    }


REGISTRATION_STORM = register(
    ExperimentSpec(
        name="registration-storm",
        cell_fn="repro.harness.experiments:registration_storm_cell",
        description="campus registration storm; warmup-heavy warm-start showcase",
        grid={"probe_cell": [0, 1, 2, 3, 4, 5]},
        seeds=(42, 43),
        quick_grid={"probe_cell": [0, 1, 2, 3, 4, 5]},
        quick_seeds=(42,),
        directions={"delivered": "higher", "dropped": "lower", "events": "both"},
    )
)


# ----------------------------------------------------------------------
# invariant-fuzz (the correctness-tooling sweep)
# ----------------------------------------------------------------------
INVARIANT_FUZZ = register(
    ExperimentSpec(
        name="invariant-fuzz",
        cell_fn="repro.invariants.fuzz:fuzz_cell",
        description="seeded random scenarios under the protocol-invariant auditor",
        grid={"profile": ["default"]},
        seeds=tuple(range(20)),
        quick_grid={"profile": ["quick"]},
        quick_seeds=tuple(range(5)),
        directions={"violations": "lower"},
    )
)


DATAPLANE = register(
    ExperimentSpec(
        name="dataplane",
        cell_fn="repro.harness.experiments:dataplane_cell",
        description="per-hop pipeline throughput microbench (tracing on/off)",
        grid={"tracing": [False, True], "n_routers": [4], "n_packets": [5000]},
        seeds=(1, 2, 3),
        quick_grid={"tracing": [False], "n_routers": [4], "n_packets": [5000]},
        quick_seeds=(1,),
        directions={
            "pps": "higher",
            "delivered": "both",
            "forwarded": "both",
            "events": "both",
        },
    )
)
