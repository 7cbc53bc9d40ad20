"""Border gateways: where packets leave and enter a partition.

Each partition's campus owns the ``{10+i}.0.0.0/8`` supernet (see
:mod:`repro.workloads.hierarchy`), so classification is by first octet.
The gateway is a real :class:`~repro.ip.node.Router` on the campus
backbone: the campus home router routes every *other* campus's supernet
at it, and a transit hook on its dataplane intercepts anything bound
off-campus — the packet is pickled and handed to the partition runtime
for export instead of being forwarded.  Using an ordinary router (and
not monkeypatching ``forward``) means originated, transited *and*
re-tunneled packets all funnel through the same interception point,
because they all reach the gateway via normal routing.

Inbound, the engine delivers the pickled packet at its cross-partition
arrival time and the runtime calls :meth:`BorderGateway.inject`, which
re-enters the local campus through
:meth:`~repro.ip.node.Node.forward_injected` — the forward/route stage
directly, deliberately *skipping* the transit hooks so an injected
packet can never bounce straight back out through its own entry wound.
"""

from __future__ import annotations

from repro.ip.address import IPNetwork
from repro.ip.dataplane import CONSUMED
from repro.ip.router import Router
from repro.workloads.hierarchy import (
    campus_address_base,
    campus_name_prefix,
    campus_of_address_value,
)

#: Backbone host number reserved for the border gateway (campus routers
#: use 1, 2 and 10..159; see :func:`repro.plan.campus_plan`).
GATEWAY_HOST = 250


class BorderGateway:
    """One campus's connection to the rest of the partitioned world."""

    def __init__(self, runtime, campus: int, home_router: Router, n_campuses: int) -> None:
        self.runtime = runtime
        self.campus = campus
        self.n_campuses = n_campuses
        backbone = home_router.interfaces["bb"]
        backbone_net = backbone.network
        self.router = Router(runtime.sim, f"{campus_name_prefix(campus)}GW")
        self.router.add_interface(
            "bb", backbone_net.host(GATEWAY_HOST), backbone_net, medium=backbone.medium
        )
        # Everything campus-internal goes back via the home router, which
        # knows every local prefix — and routes every *other* campus's
        # supernet here.
        self.router.routing_table.set_default(backbone.ip_address, "bb")
        for other in range(n_campuses):
            if other != campus:
                home_router.routing_table.add_next_hop(
                    IPNetwork(f"{campus_address_base(other)}.0.0.0/8"),
                    backbone_net.host(GATEWAY_HOST),
                    "bb",
                )
        self.router.dataplane.register(
            "transit", self._transit, name="partition-border"
        )

    # -- outbound ------------------------------------------------------
    def _transit(self, packet, iface):
        """Transit hook: export off-campus packets, pass local ones."""
        dst_campus = campus_of_address_value(packet.dst.value)
        if dst_campus == self.campus or not 0 <= dst_campus < self.n_campuses:
            return None  # local (or not in the plan): forward normally
        self.runtime.export_packet(dst_campus, packet)
        return CONSUMED

    # -- inbound -------------------------------------------------------
    def inject(self, packet) -> None:
        """Re-enter the campus with a packet from another partition."""
        self.router.forward_injected(packet)
