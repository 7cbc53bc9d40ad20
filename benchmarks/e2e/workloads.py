"""The seven pinned workloads: seed -> ``ScenarioSpec``, nothing else.

Every generator takes ``(seed, scale)`` and returns a plain
:class:`~repro.scenario.spec.ScenarioSpec`; the program under test never
sees the workload's name, only the spec (and the backend the workload
table asks the facade for).  ``scale`` is the one common size factor the
issue allows: ``1.0`` is the size the workloads were designed at (2-3 s
per pass), :data:`SCALE` is what the timed suite runs so a whole run of
one workload fits the driver's budget, :data:`QUICK_SCALE` is the smoke
test's size.

Why these seven (the one-line version lives in ``Workload.why`` and in
``BENCHMARK.json``): each optimisation the ROADMAP plans has one
workload that exercises its mechanism and one that bypasses it.

- ``pingstorm-sim`` / ``pingstorm-engine``: the same spec through both
  protocol adapters.  On ``sim`` the packet path (``ip.*``, ``link``,
  ``netsim.trace``, ``telemetry``) does most of the work; on ``engine``
  ``wire.engine``/``wire.driver``/``wire.codec`` do and the simulator
  layers do nothing.
- ``handoff-sim`` / ``handoff-sim-obs``: control and data mixed, with
  and without the span/metrics plane attached.
- ``forksweep-scenario``: uses session state for *copying*, so per-node
  or per-packet caches that speed the ping storm show up as fork cost.
- ``roam-partitioned``: real spec flows over the window protocol.
- ``load-partitioned``: the only workload the event kernel dominates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.scenario.spec import ScenarioSpec

#: Size factor of the timed suite (one pass is roughly half a second).
SCALE = 0.25
#: Size factor of ``--quick`` (the smoke test): 1/20 of the design size.
QUICK_SCALE = 0.05

_HEALTH = [{"kind": "health"}]


def _at_least(n: float, floor: int = 1) -> int:
    return max(floor, round(n))


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def pingstorm_spec(seed: int, scale: float) -> ScenarioSpec:
    """Figure-1, M parked in netD from t=5, one ping every 50 ms.

    Steady-state tunnel data path with a single registration.  The seed
    sets the simulator seed and the phase of the ping train."""
    from repro.wire.conformance import figure1_walkthrough_spec

    rng = random.Random(seed)
    n_pings = _at_least(5000 * scale)
    phase = rng.uniform(0.0, 0.049)
    spec = figure1_walkthrough_spec()
    spec.name = f"e2e-pingstorm-seed{seed}"
    spec.seed = seed
    spec.instruments = list(_HEALTH)
    spec.moves = [
        {"t": 0.0, "host": 0, "to": -1},
        {"t": 5.0, "host": 0, "to": 0},
    ]
    spec.pings = [
        {"t": round(10.0 + phase + 0.05 * i, 6), "src": 0, "host": 0}
        for i in range(n_pings)
    ]
    spec.horizon = round(10.0 + 0.05 * n_pings + 2.0, 6)
    return spec


def _roaming_moves(rng, n_hosts, start, stop, pick_target):
    """Every host re-attaches every U(3,8) s in ``[start, stop)``; a move
    never targets where the host already is (that would be a no-op the
    protocol rightly ignores, and could not count as a completed move)."""
    moves = [
        {"t": round(0.2 + 0.1 * h, 3), "host": h, "to": -1} for h in range(n_hosts)
    ]
    for h in range(n_hosts):
        here = -1
        t = start + rng.uniform(0.0, 3.0)
        while t < stop:
            target = pick_target(h)
            while target == here:
                target = pick_target(h)
            moves.append({"t": round(t, 3), "host": h, "to": target})
            here = target
            t += rng.uniform(3.0, 8.0)
    moves.sort(key=lambda m: (m["t"], m["host"]))
    return moves


def handoff_spec(seed: int, scale: float) -> ScenarioSpec:
    """Campus, 8 cells x 24 mobile hosts x 2 correspondents; every host
    re-attaches every U(3,8) s (80% cells / 20% home) under 8 CBR flows
    at 100 ms and 3 probe pairs.  ``scale`` shortens the roaming period,
    not the campus, so set-up cost and broadcast fan-out stay full size."""
    rng = random.Random(seed)
    n_cells, n_hosts, n_flows = 8, 24, 8
    roam_for = 105.0 * scale
    horizon = round(2.0 + roam_for + 13.0, 3)

    def pick_target(_host):
        return rng.randrange(n_cells) if rng.random() < 0.8 else -1

    moves = _roaming_moves(rng, n_hosts, 2.0, 2.0 + roam_for, pick_target)
    flow_hosts = rng.sample(range(n_hosts), n_flows)
    flows = [
        {
            "start": round(5.0 + 0.37 * i, 3),
            "src": i % 2,
            "host": flow_hosts[i],
            "interval": 0.1,
            "count": _at_least(1000 * scale),
            "port": 40000 + i,
        }
        for i in range(n_flows)
    ]
    probes = [
        {"t": round(horizon - 10.0 + i, 3), "src": i % 2, "host": rng.randrange(n_hosts)}
        for i in range(3)
    ]
    return ScenarioSpec(
        name=f"e2e-handoff-seed{seed}",
        seed=seed,
        topology={
            "kind": "campus",
            "n_cells": n_cells,
            "n_mobile_hosts": n_hosts,
            "n_correspondents": 2,
            "advertise": True,
            "max_previous_sources": 4,
        },
        horizon=horizon,
        instruments=list(_HEALTH),
        moves=moves,
        flows=flows,
        probes=probes,
    )


def forksweep_spec(seed: int, scale: float) -> ScenarioSpec:
    """The PR 5 registration storm (30 hosts, 6 cells, checkpoint 15 s)
    plus a health instrument so every fork carries a summary to compare.
    ``scale`` sets the forks per pass (see :func:`forks_per_pass`), not
    the spec: the state a fork copies stays full size."""
    from repro.harness.experiments import registration_storm_spec

    spec = registration_storm_spec(seed)
    spec.name = f"e2e-forksweep-seed{seed}"
    spec.instruments = list(_HEALTH)
    return spec


def forks_per_pass(scale: float) -> int:
    return _at_least(30 * scale, floor=2)


def roam_spec(seed: int, scale: float) -> ScenarioSpec:
    """Four campuses (depth 2, branching 2, hop delay 10 ms) x 4 cells x
    6 hosts x 1 correspondent; 30% of all moves cross campuses, 8
    cross-campus CBR flows at 100 ms.  ``scale`` shortens the horizon
    (and with it the number of synchronisation windows).

    The two hosts per campus that receive a flow roam inside their home
    campus only; the other four do all the cross-campus moves.  Found
    while sizing, not fixed here: a flow whose receiver has migrated to
    another partition silently loses 1-16% of its datagrams depending on
    the seed, and a benchmark needs workloads on which no op fails."""
    rng = random.Random(seed)
    campuses, cells, hosts, n_flows = 4, 4, 6, 8
    roam_for = 70.0 * scale
    horizon = round(2.0 + roam_for + 8.0, 3)
    flow_hosts = [
        campus * hosts + local
        for campus in range(campuses)
        for local in rng.sample(range(hosts), n_flows // campuses)
    ]
    # 30% of all moves, made by the 16 of 24 hosts that may leave home.
    p_cross = 0.3 * (campuses * hosts) / (campuses * hosts - n_flows)

    def pick_target(host):
        home = host // hosts
        campus = home
        if host not in flow_hosts and rng.random() < p_cross:
            campus = rng.choice([c for c in range(campuses) if c != home])
        return campus * cells + rng.randrange(cells)

    moves = _roaming_moves(rng, campuses * hosts, 2.0, 2.0 + roam_for, pick_target)
    flows = [
        {
            "start": round(3.0 + 0.37 * i, 3),
            # correspondent c lives in campus c; never the receiver's own
            "src": (host // hosts + 1 + i % (campuses - 1)) % campuses,
            "host": host,
            "interval": 0.1,
            "count": _at_least(roam_for / 0.1),
            "port": 40000 + i,
        }
        for i, host in enumerate(flow_hosts)
    ]
    return ScenarioSpec(
        name=f"e2e-roam-seed{seed}",
        seed=seed,
        topology={
            "kind": "hierarchy",
            "n_cells": cells,
            "n_mobile_hosts": hosts,
            "n_correspondents": 1,
            "advertise": True,
        },
        horizon=horizon,
        instruments=list(_HEALTH),
        partitions=campuses,
        hierarchy={"depth": 2, "branching": 2, "hop_delay": 0.01},
        moves=moves,
        flows=flows,
    )


def load_spec(seed: int, scale: float) -> ScenarioSpec:
    """The E4 load model: 4 campuses x 50 000 statistical hosts."""
    from repro.partition import partition_load_spec

    spec = partition_load_spec(
        partitions=4, hosts_per_campus=_at_least(50_000 * scale, floor=100), seed=seed
    )
    spec.name = f"e2e-load-seed{seed}"
    return spec


# ----------------------------------------------------------------------
# The workload table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    #: One line on why the workload exists (copied into BENCHMARK.json).
    why: str
    #: How ops are counted and outputs checked (see ``drive.py``).
    kind: str
    #: The facade backend, or ``"scenario"`` for the Session/Snapshot door.
    backend: str
    build: Callable[[int, float], ScenarioSpec]
    obs: bool = False
    #: ``workers=`` for the partitioned backend.
    workers: Optional[int] = None

    @property
    def is_sim(self) -> bool:
        return self.backend == "sim"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pingstorm-sim",
            "steady tunnel data path on sim: ip, link, trace and telemetry "
            "do most of the work; the ROADMAP 3x gate is defined here",
            "ping", "sim", pingstorm_spec,
        ),
        Workload(
            "pingstorm-engine",
            "same spec on the engine adapter: wire.engine, wire.driver and "
            "wire.codec do the work, the simulator layers none",
            "ping", "engine", pingstorm_spec,
        ),
        Workload(
            "handoff-sim",
            "control and data mixed: registrations, updates, ARP, timers, "
            "broadcast fan-out and blackout loss under CBR flows",
            "handoff", "sim", handoff_spec,
        ),
        Workload(
            "handoff-sim-obs",
            "handoff-sim with the span and metrics plane attached; the "
            "only workload an emit-path change for attached runs moves",
            "handoff", "sim", handoff_spec, obs=True,
        ),
        Workload(
            "forksweep-scenario",
            "session state is copied, not executed: per-packet or per-node "
            "caches that speed the ping storm fatten every deepcopy here",
            "fork", "scenario", forksweep_spec,
        ),
        Workload(
            "roam-partitioned",
            "real spec flows over the window protocol: counter swaps, "
            "export pickling and migrations dominate over kernel work",
            "roam", "partitioned", roam_spec, workers=0,
        ),
        Workload(
            "load-partitioned",
            "the only workload the event kernel dominates; a kernel change "
            "must show here and is predicted not to show on the ping storm",
            "load", "partitioned", load_spec, workers=0,
        ),
    )
}
