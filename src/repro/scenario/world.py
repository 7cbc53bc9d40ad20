"""Bind a :class:`~repro.plan.TopologyPlan` to live simulation objects.

:func:`bind_sim` is the simulator binder: it walks the plan in order and
builds ``Router``/``Host``/``MobileHost`` nodes on ``LAN``/``WirelessCell``
media (:func:`repro.wire.topo.bind_engine` is its engine twin over the
same plan).  The returned :class:`World` presents every shape through
one vocabulary — a home medium, an ordered cell list, mobile hosts,
correspondents, and named fault targets — which is what lets one session
kernel drive Figure-1 walkthroughs, campus fuzz scenarios, and the
comparison star alike.  :func:`build_world` goes from a spec's
``topology`` dict straight to the bound world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.agent_router import make_agent_router
from repro.core.mobile_host import MobileHost, StationaryCorrespondent
from repro.ip.address import IPNetwork
from repro.ip.host import Host
from repro.ip.node import IPNode
from repro.ip.router import Router
from repro.link.medium import LAN, Medium, WirelessCell
from repro.netsim.simulator import Simulator
from repro.plan import MOBILE, ROUTER, NodePlan, TopologyPlan, plan_for
from repro.wire.roles import AgentRouter


@dataclass
class World:
    """A bound topology, normalized for the session kernel.

    ``cells[i]`` is the medium a ``move`` entry with ``to == i``
    attaches to; ``fault_nodes[name]`` is the node a ``fault`` entry
    crashes or reboots; ``nodes`` is the roster instruments observe.
    ``by_name``/``media``/``prefixes``/``roles`` index everything the
    plan built by its plan name, for shape-specific access.
    """

    sim: Simulator
    kind: str
    home_medium: Medium
    cells: List[Medium] = field(default_factory=list)
    mobile_hosts: List[MobileHost] = field(default_factory=list)
    correspondents: List[Host] = field(default_factory=list)
    fault_nodes: Dict[str, IPNode] = field(default_factory=dict)
    nodes: List[IPNode] = field(default_factory=list)
    home_roles: Optional[AgentRouter] = None
    cell_roles: List[AgentRouter] = field(default_factory=list)
    by_name: Dict[str, IPNode] = field(default_factory=dict)
    media: Dict[str, Medium] = field(default_factory=dict)
    #: medium name -> the IP prefix living on it.
    prefixes: Dict[str, IPNetwork] = field(default_factory=dict)
    roles: Dict[str, AgentRouter] = field(default_factory=dict)


def bind_sim_node(sim: Simulator, plan: NodePlan, media: Dict[str, Medium]) -> IPNode:
    """Build one planned node (interfaces attached, routes installed)."""
    if plan.kind == MOBILE:
        return MobileHost(
            sim,
            plan.name,
            home_address=plan.home_address,
            home_network=plan.home_network,
            home_agent=plan.home_agent,
            use_sender_cache=plan.cache,
        )
    if plan.kind == ROUTER:
        node: IPNode = Router(sim, plan.name)
    else:
        node = (StationaryCorrespondent if plan.cache else Host)(sim, plan.name)
    for iface in plan.interfaces:
        node.add_interface(
            iface.name, iface.address, iface.network, medium=media[iface.medium]
        )
    for prefix, next_hop, iface_name in plan.routes:
        node.routing_table.add_next_hop(prefix, next_hop, iface_name)
    return node


def bind_sim(sim: Simulator, plan: TopologyPlan) -> World:
    """Build ``plan`` on ``sim``, in plan order."""
    media: Dict[str, Medium] = {}
    for medium in plan.media:
        if medium.wireless:
            media[medium.name] = WirelessCell(
                sim, medium.name, latency=medium.latency, loss_rate=medium.loss
            )
        else:
            media[medium.name] = LAN(sim, medium.name, latency=medium.latency)
    by_name: Dict[str, IPNode] = {}
    roles: Dict[str, AgentRouter] = {}
    for node_plan in plan.nodes:
        node = by_name[node_plan.name] = bind_sim_node(sim, node_plan, media)
        if node_plan.roles is not None:
            roles[node_plan.name] = make_agent_router(node, **node_plan.roles)
    agents = list(roles.values())
    return World(
        sim=sim,
        kind=plan.kind,
        home_medium=media[plan.home_medium],
        cells=[media[name] for name in plan.cells],
        mobile_hosts=[by_name[name] for name in plan.mobile_hosts],
        correspondents=[by_name[name] for name in plan.correspondents],
        fault_nodes={
            fault: by_name[name] for fault, name in plan.fault_nodes.items()
        },
        nodes=[by_name[name] for name in plan.observed],
        home_roles=next((r for r in agents if r.home_agent is not None), None),
        cell_roles=[r for r in agents if r.foreign_agent is not None],
        by_name=by_name,
        media=media,
        prefixes={medium.name: medium.network for medium in plan.media},
        roles=roles,
    )


def build_world(sim: Simulator, topology: dict) -> World:
    """Build the topology described by a spec's ``topology`` dict."""
    return bind_sim(sim, plan_for(topology))
