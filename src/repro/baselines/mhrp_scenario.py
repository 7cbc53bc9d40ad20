"""MHRP running on the comparison star topology.

Not a baseline — this is the paper's protocol packaged behind the same
:class:`~repro.baselines.interface.Scenario` interface as the five
competitors, so the benches run one workload over all six.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.scenario_base import UDPProbeScenario
from repro.core.agent_router import AgentRouter
from repro.core.mobile_host import MobileHost
from repro.netsim.simulator import Simulator


class MHRPScenario(UDPProbeScenario):
    """The paper's protocol on the star topology."""

    protocol_name = "MHRP"

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        n_cells: int = 3,
        seed: int = 7,
        sender_caches: bool = True,
        **agent_kwargs,
    ) -> None:
        sim = sim or Simulator(seed=seed)
        super().__init__(
            sim, n_cells, mhrp=True, sender_caches=sender_caches, **agent_kwargs
        )
        world = self.world
        self.home_roles: AgentRouter = world.home_roles
        self.cell_roles: List[AgentRouter] = world.cell_roles
        self.mobile: MobileHost = world.mobile_hosts[0]
        self._init_probe(
            world.correspondents[0], self.mobile, self.topo.mobile_home_address
        )
        self._control_tracker_base = 0
        sim.tracer.subscribe(self._count_control)

    # ------------------------------------------------------------------
    def _count_control(self, entry) -> None:
        # Registrations and location updates are MHRP's control plane.
        if entry.category in ("mhrp.register", "mhrp.update") and entry.detail.get(
            "event"
        ) in ("send", "sent"):
            self.note_control()

    # ------------------------------------------------------------------
    def move_to_cell(self, index: int) -> None:
        self.mobile.attach(self.topo.cells[index])

    def move_home(self) -> None:
        self.mobile.attach_home(self.topo.home_lan)

    # ------------------------------------------------------------------
    def snapshot_state(self) -> None:
        """Record per-node and global protocol state into the stats."""
        sizes = [len(self.home_roles.home_agent.database)]
        for roles in self.cell_roles:
            sizes.append(len(roles.foreign_agent.visitors))
            sizes.append(len(roles.cache_agent.cache))
        self.stats.max_node_state = max(
            self.stats.max_node_state, max(sizes) if sizes else 0
        )
        self.stats.global_state = 0  # MHRP has no global structure
