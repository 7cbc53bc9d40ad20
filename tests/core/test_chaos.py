"""Chaos testing: random foreign-agent crashes under live traffic.

The targeted robustness tests (E5/E6) exercise specific failure
sequences; here a seeded draw writes arbitrary crash/reboot
interleavings of the foreign agents into a campus
:class:`~repro.scenario.spec.ScenarioSpec` — the same ``faults``
vocabulary the scenario fuzzer generates — while hosts roam and traffic
flows, and the protocol's self-healing must keep the system consistent
and mostly available.
"""

import random

import pytest

from repro.ip.protocols import UDP
from repro.scenario import ScenarioSpec, Session

N_CELLS = N_HOSTS = 3
CHAOS_START, CHAOS_STOP = 10.0, 150.0
MTBF, MTTR = 40.0, 4.0
FINAL_PINGS_AT = 220.0


def chaos_spec(seed: int) -> ScenarioSpec:
    """Waypoint roaming (mean dwell 20 s), one CBR flow per host, and
    exponential crash/repair schedules on every cell router."""
    rng = random.Random(f"campus-chaos-{seed}")
    moves = []
    for host in range(N_HOSTS):
        cell = host % N_CELLS
        moves.append({"t": 0.0, "host": host, "to": cell})
        t = 5.0 + host
        while t < CHAOS_STOP:
            cell = rng.choice([c for c in range(N_CELLS) if c != cell])
            moves.append({"t": round(t, 3), "host": host, "to": cell})
            t += rng.expovariate(1.0 / 20.0)
    faults = []
    for index in range(N_CELLS):
        t = CHAOS_START
        while True:
            t += rng.expovariate(1.0 / MTBF)
            if t >= CHAOS_STOP:
                break
            up = t + rng.expovariate(1.0 / MTTR)
            faults.append({"t": round(t, 3), "node": f"FR{index}", "kind": "crash"})
            faults.append({"t": round(up, 3), "node": f"FR{index}", "kind": "reboot"})
            t = up
    flows = [
        {"start": 8.0, "src": 0, "host": host, "interval": 1.0, "count": 200,
         "port": 41000 + host}
        for host in range(N_HOSTS)
    ]
    pings = [{"t": FINAL_PINGS_AT, "src": 0, "host": host} for host in range(N_HOSTS)]
    return ScenarioSpec(
        name=f"campus-chaos-{seed}",
        seed=seed,
        topology={
            "kind": "campus", "n_cells": N_CELLS, "n_mobile_hosts": N_HOSTS,
            "n_correspondents": 1, "advertise": True,
        },
        horizon=FINAL_PINGS_AT + 15.0,
        moves=sorted(moves, key=lambda m: m["t"]),
        faults=sorted(faults, key=lambda f: f["t"]),
        flows=flows,
        pings=pings,
    )


@pytest.mark.parametrize("seed", [5, 99])
def test_campus_survives_fa_chaos(seed):
    spec = chaos_spec(seed)
    session = Session(spec)
    sim, world = session.sim, session.world
    sim.tracer.restrict({"mhrp.loop", "ip.deliver"})
    replies = []
    world.correspondents[0].on_icmp(0, lambda p, m: replies.append(m))
    session.install_tail()

    # Some chaos actually happened: the first crash takes its router down.
    crash, reboot = next(
        (f, r) for f in spec.faults if f["kind"] == "crash"
        for r in spec.faults if r["node"] == f["node"] and r["t"] > f["t"]
    )
    session.run(until=(crash["t"] + reboot["t"]) / 2)
    assert not world.fault_nodes[crash["node"]].up
    session.run(until=FINAL_PINGS_AT - 0.5)

    # No routing loops formed despite arbitrary crash interleavings.
    assert sim.tracer.count("mhrp.loop") == 0
    # Availability: losses are bounded by the injected downtime windows.
    # Every flow has sent its whole count by now.
    hosts = {host.name for host in world.mobile_hosts}
    delivered = {
        e.detail["uid"] for e in sim.tracer.entries
        if e.category == "ip.deliver" and e.node in hosts
        and e.detail["packet"].protocol == UDP
    }
    assert len(delivered) / sum(flow["count"] for flow in spec.flows) > 0.6
    # Self-healing: after the chaos window, every host answers a ping.
    session.run()
    assert len(replies) == N_HOSTS
    # And the location database agrees with reality for every host.
    database = world.home_roles.home_agent.database
    for host in world.mobile_hosts:
        assert database.foreign_agent_of(host.home_address) == host.current_foreign_agent
