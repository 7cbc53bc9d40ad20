"""Workloads: topologies, mobility models, and traffic generators.

These drive the examples, the integration tests, and every benchmark.
:func:`~repro.workloads.topology.build_figure1` reproduces the paper's
Figure 1 internetwork exactly; the parameterized builders scale the same
shape up for the scalability experiments.
"""

from repro.workloads.mobility import (
    PingPongMobility,
    RandomWaypointMobility,
    ScriptedMobility,
)
from repro.workloads.loops import LoopRun, build_loop, run_loop_experiment
from repro.workloads.topology import (
    CampusTopology,
    Figure1Topology,
    build_campus,
    build_figure1,
)
from repro.workloads.traffic import (
    CBRStream,
    PoissonStream,
    RequestResponseClient,
    VectorCBRStream,
)

__all__ = [
    "CBRStream",
    "CampusTopology",
    "Figure1Topology",
    "LoopRun",
    "PingPongMobility",
    "PoissonStream",
    "RandomWaypointMobility",
    "RequestResponseClient",
    "ScriptedMobility",
    "VectorCBRStream",
    "build_campus",
    "build_figure1",
    "build_loop",
    "run_loop_experiment",
]
