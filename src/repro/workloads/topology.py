"""Simulator worlds for the stock topologies, with named access.

:func:`build_figure1` and :func:`build_campus` bind the plans in
:mod:`repro.plan` (the one place the address plans, static routes and
role placement are written) with the simulator binder and wrap the
resulting :class:`~repro.scenario.world.World` in a named view —
``topo.r4``, ``topo.net_d``, ``topo.fa4_address`` — looked up by plan
name from the bound world.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ip.address import IPAddress
from repro.netsim.simulator import Simulator
from repro.plan import campus_plan, figure1_plan
from repro.scenario.world import World, bind_sim


class Figure1Topology:
    """Named access to a bound Figure-1 world (see
    :func:`repro.plan.figure1_plan` for the picture)."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.sim = world.sim
        node, medium, prefix, roles = (
            world.by_name, world.media, world.prefixes, world.roles
        )
        names = ("backbone", "netA", "netB", "netC", "netD", "netE")
        (self.backbone, self.net_a, self.net_b,
         self.net_c, self.net_d, self.net_e) = (medium[n] for n in names)
        (self.backbone_net, self.net_a_prefix, self.net_b_prefix,
         self.net_c_prefix, self.net_d_prefix, self.net_e_prefix) = (
            prefix[n] for n in names
        )
        self.r1, self.r2, self.r3, self.r4, self.r5, self.s, self.m = (
            node[n] for n in ("R1", "R2", "R3", "R4", "R5", "S", "M")
        )
        self.r1_roles = roles.get("R1")
        self.r2_roles, self.r4_roles, self.r5_roles = (
            roles[n] for n in ("R2", "R4", "R5")
        )
        self.home_agent_address = self.r2_roles.home_agent.address
        self.fa4_address = self.r4_roles.foreign_agent.address
        self.fa5_address = self.r5_roles.foreign_agent.address


def build_figure1(
    sim: Optional[Simulator] = None, seed: int = 42, **params
) -> Figure1Topology:
    """Build the paper's Figure 1 internetwork (plus R5/net E);
    ``params`` are :func:`repro.plan.figure1_plan`'s."""
    sim = sim or Simulator(seed=seed)
    return Figure1Topology(bind_sim(sim, figure1_plan(**params)))


def drive_figure1(topo: Figure1Topology) -> None:
    """Run the Section 6 walkthrough on a fresh Figure-1 topology: home
    attach, roam to net D, pings, handoff to net E, more pings.

    The timed schedule is shared verbatim by ``netstat``, the telemetry
    panel, and the invariant auditor, so their numbers describe the same
    run; it leaves the simulation at t=32s (drain any periodic
    advertisers separately if needed).
    """
    sim, s, m = topo.sim, topo.s, topo.m
    m.attach_home(topo.net_b)
    sim.run(until=5.0)
    m.attach(topo.net_d)          # roam: discovery, registration, tunnels
    sim.run(until=12.0)
    s.ping(m.home_address)        # via home agent, then direct tunnels
    sim.run(until=16.0)
    s.ping(m.home_address)
    sim.run(until=20.0)
    m.attach(topo.net_e)          # handoff: the stale cache re-tunnels
    sim.run(until=28.0)
    s.ping(m.home_address)
    sim.run(until=32.0)


class CampusTopology:
    """Named access to a bound star-of-routers world: one home network,
    a correspondent network and one foreign-agent cell per router."""

    def __init__(self, world: World, name_prefix: str = "") -> None:
        self.world = world
        self.sim = world.sim
        pre = name_prefix
        self.backbone = world.media[f"{pre}backbone"]
        self.backbone_net = world.prefixes[f"{pre}backbone"]
        self.home_lan = world.home_medium
        self.home_prefix = world.prefixes[f"{pre}home"]
        self.home_router = world.by_name[f"{pre}HR"]
        self.home_roles = world.home_roles
        self.correspondent_lan = world.media[f"{pre}corr"]
        self.correspondent_prefix = world.prefixes[f"{pre}corr"]
        self.correspondent_router = world.by_name[f"{pre}CR"]
        self.cells = world.cells
        self.cell_prefixes = [world.prefixes[cell.name] for cell in world.cells]
        self.cell_routers = [
            world.by_name[f"{pre}FR{i}"] for i in range(len(world.cells))
        ]
        self.cell_roles = world.cell_roles
        self.mobile_hosts = world.mobile_hosts
        self.correspondents = world.correspondents

    def foreign_agent_addresses(self) -> List[IPAddress]:
        return [roles.foreign_agent.address for roles in self.cell_roles]


def build_campus(
    n_cells: int,
    n_mobile_hosts: int,
    n_correspondents: int = 1,
    sim: Optional[Simulator] = None,
    seed: int = 42,
    **params,
) -> CampusTopology:
    """Build the campus star; ``params`` are
    :func:`repro.plan.campus_plan`'s (``advertise``, latencies,
    ``address_base``, ``name_prefix``, agent options)."""
    sim = sim or Simulator(seed=seed)
    plan = campus_plan(n_cells, n_mobile_hosts, n_correspondents, **params)
    return CampusTopology(bind_sim(sim, plan), params.get("name_prefix", ""))
