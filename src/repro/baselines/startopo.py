"""The shared star topology every comparison scenario runs on.

One backbone LAN joins: a home network (where the mobile host's
permanent address lives), a correspondent network, and ``n_cells``
foreign attachment networks (:func:`repro.plan.star_plan`).  Protocol
roles (agents, MSRs, forwarders, PFSs, base stations) are attached by
each scenario on top of the plain routers, so every protocol sees the
identical physical internetwork.
"""

from __future__ import annotations

from typing import List

from repro.ip.address import IPAddress
from repro.ip.router import Router
from repro.scenario.world import World
from repro.workloads.topology import CampusTopology


class StarTopology(CampusTopology):
    """The star-of-routers view under the names the baselines use."""

    def __init__(self, world: World) -> None:
        super().__init__(world)
        self.home_net = self.home_prefix
        self.corr_lan = self.correspondent_lan
        self.corr_net = self.correspondent_prefix
        self.corr_router = self.correspondent_router
        self.cell_nets = self.cell_prefixes

    @property
    def mobile_home_address(self) -> IPAddress:
        """The conventional permanent address for the scenario's mobile host."""
        return self.home_net.host(10)

    @property
    def correspondent_address(self) -> IPAddress:
        return self.corr_net.host(1)

    def all_routers(self) -> List[Router]:
        return [self.home_router, self.corr_router, *self.cell_routers]
