"""The engine binder: a :class:`~repro.plan.TopologyPlan` as sans-io
engines.

:func:`bind_engine` walks the same plan
:func:`repro.scenario.world.bind_sim` does — same address plans, same
static routes, same role combinations — but assembles
:class:`~repro.wire.engine.NodeEngine` parts instead of simulator nodes,
so both the deterministic driver and the live UDP backend boot the
networks the simulator experiments run on.  The conformance harness
depends on this equivalence: a divergence between an engine run and a
simulator run must mean a protocol-logic difference, never a topology
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.plan import MOBILE, ROUTER, NodePlan, TopologyPlan, plan_for
from repro.wire.engine import (
    CacheAgentEngine,
    CorrespondentEngine,
    EngineTunnelErrorHandler,
    EngineWorld,
    ForeignAgentEngine,
    HomeAgentEngine,
    MobileHostEngine,
    NodeEngine,
)
from repro.wire.roles import AgentRouter, RoleClasses, compose_agent_roles

#: The engine-bound role constructors.
ENGINE_ROLES = RoleClasses(
    foreign_agent=ForeignAgentEngine,
    home_agent=HomeAgentEngine,
    cache_agent=CacheAgentEngine,
    tunnel_errors=EngineTunnelErrorHandler,
)


@dataclass
class EngineTopology:
    """A bound engine world, normalized the way
    :class:`repro.scenario.world.World` normalizes simulator worlds:
    a home medium, an ordered cell list, host/fault rosters — all by
    *name*, since engines are addressed by name in the world."""

    world: EngineWorld
    kind: str
    home_medium: str
    cells: List[str] = field(default_factory=list)
    mobile_hosts: List[str] = field(default_factory=list)
    correspondents: List[str] = field(default_factory=list)
    fault_nodes: Dict[str, str] = field(default_factory=dict)
    roles: Dict[str, AgentRouter] = field(default_factory=dict)
    #: medium name -> one-way propagation latency, for drivers.
    latency: Dict[str, float] = field(default_factory=dict)

    def mobile_host(self, index: int) -> MobileHostEngine:
        node = self.world.nodes[self.mobile_hosts[index]]
        assert isinstance(node, MobileHostEngine)
        return node

    def correspondent(self, index: int) -> CorrespondentEngine:
        node = self.world.nodes[self.correspondents[index]]
        assert isinstance(node, CorrespondentEngine)
        return node


def _bind_node(world: EngineWorld, plan: NodePlan) -> NodeEngine:
    shared = {
        "rng": world.node_rng(plan.name),
        "ident_allocator": world.ident_allocator(),
    }
    if plan.kind == ROUTER:
        return NodeEngine(plan.name, forwarding=True, **shared)
    if plan.kind == MOBILE:
        node = MobileHostEngine(
            plan.name,
            home_address=plan.home_address,
            home_network=plan.home_network,
            home_agent=plan.home_agent,
            use_sender_cache=plan.cache,
            **shared,
        )
    else:
        node = CorrespondentEngine(plan.name, use_cache=plan.cache, **shared)
    # Simulator hosts attach their own Section 4.5 handler; engine hosts
    # get theirs here.
    if node.cache_agent is not None:
        EngineTunnelErrorHandler(node, cache_agent=node.cache_agent)
    return node


def bind_engine(plan: TopologyPlan, seed: int = 42) -> EngineTopology:
    """Build ``plan`` as an engine world, in plan order."""
    world = EngineWorld(seed=seed)
    for medium in plan.media:
        if medium.loss:
            raise ConfigurationError(
                f"engine backends do not model link loss: wireless_loss="
                f"{medium.loss!r} on medium {medium.name!r}"
            )
        world.media[medium.name] = []
    roles: Dict[str, AgentRouter] = {}
    for node_plan in plan.nodes:
        node = world.add_node(_bind_node(world, node_plan))
        for iface in node_plan.interfaces:
            node.add_interface(iface.name, iface.address, iface.network)
            world.attach(iface.medium, node.name, iface.name)
        for prefix, next_hop, iface_name in node_plan.routes:
            node.routing_table.add_next_hop(prefix, next_hop, iface_name)
        if node_plan.roles is not None:
            roles[node.name] = compose_agent_roles(
                ENGINE_ROLES, node, **node_plan.roles
            )
    return EngineTopology(
        world=world,
        kind=plan.kind,
        home_medium=plan.home_medium,
        cells=list(plan.cells),
        mobile_hosts=list(plan.mobile_hosts),
        correspondents=list(plan.correspondents),
        fault_nodes=dict(plan.fault_nodes),
        roles=roles,
        latency={medium.name: medium.latency for medium in plan.media},
    )


def build_engine_world(topology: dict) -> EngineTopology:
    """Build the engine world described by a ScenarioSpec ``topology``
    dict (same vocabulary as :func:`repro.scenario.world.build_world`)."""
    return bind_engine(plan_for(topology))
