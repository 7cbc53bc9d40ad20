"""One declarative description of every stock internetwork.

The paper changes nothing about ordinary IP routing, so the *same*
internetwork must carry MHRP whoever runs it — simulator nodes or
sans-io engines.  That equivalence is kept here by construction: a
:class:`TopologyPlan` is pure data (media, nodes with interfaces and
static routes, agent-role placement, rosters), produced by exactly one
function per topology kind, and consumed by two thin binders —
:func:`repro.scenario.world.bind_sim` and
:func:`repro.wire.topo.bind_engine`.  A sim/engine divergence can
therefore only mean protocol logic, never topology.

**Plan order is construction order.**  Binders walk ``media`` then
``nodes`` front to back, creating each node's interfaces, routes and
roles before moving on.  The simulator's hardware-address counter,
packet-uid counter and rng (advertiser boot ids, first-advertisement
jitter) all advance during construction, so reordering a plan changes
every byte-identity golden; the goldens are the oracle for this file.

Adding a topology kind is one function here plus its :data:`PLANS`
entry; both binders pick it up.

::

                 backbone 10.0.0.0/24                       (figure1)
          +-----------+-----------+
          |           |           |
         R1          R2          R3
          |           |           |
      net A        net B       net C --- R4 --- net D (wireless)
     10.1/24      10.2/24     10.3/24         10.4/24
       [S]       [M's home]        \\--- R5 --- net E (wireless)
                                              10.5/24

R2 is M's home agent; R4 and R5 are foreign agents serving the two
wireless cells.  R5/net E extends the figure per Section 6.3's "suppose
mobile host M moves from R4 to some new foreign agent, say R5".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.ip.address import IPAddress, IPNetwork

#: Node kinds a binder must know how to build.
ROUTER, HOST, MOBILE = "router", "host", "mobile"

#: A route for this prefix is the node's default route.
DEFAULT_ROUTE = IPNetwork(0, 0)


@dataclass(frozen=True)
class MediumPlan:
    """One broadcast domain and the IP prefix that lives on it."""

    name: str
    network: IPNetwork
    latency: float
    wireless: bool = False
    loss: float = 0.0

    def iface(self, name: str, host: int) -> "InterfacePlan":
        """An interface on this medium holding host number ``host``."""
        return InterfacePlan(name, self.network.host(host), self.network, self.name)


@dataclass(frozen=True)
class InterfacePlan:
    name: str
    address: IPAddress
    network: IPNetwork
    medium: str


@dataclass(frozen=True)
class NodePlan:
    """One node: what to build and, for agents, which roles to compose.

    ``routes`` are ``(prefix, next hop, interface)`` in installation
    order.  ``roles`` holds the keyword arguments of
    :func:`repro.wire.roles.compose_agent_roles` (``None`` = no agent
    roles).  ``cache`` selects the sender-side cache agent of a host or
    mobile host.  The ``home_*`` fields describe a mobile host, which
    starts detached: the schedule's first move attaches it.
    """

    name: str
    kind: str
    interfaces: Tuple[InterfacePlan, ...] = ()
    routes: Tuple[Tuple[IPNetwork, IPAddress, str], ...] = ()
    roles: Optional[Mapping[str, object]] = None
    cache: bool = True
    home_address: Optional[IPAddress] = None
    home_network: Optional[IPNetwork] = None
    home_agent: Optional[IPAddress] = None


@dataclass(frozen=True)
class TopologyPlan:
    """Media and nodes in construction order, plus the rosters every
    schedule interpreter addresses a world through.

    ``cells[i]`` is the medium a ``move`` entry with ``to == i``
    attaches to; ``fault_nodes[name]`` is the node a ``fault`` entry
    crashes or reboots; ``observed`` is the node roster instruments
    watch, in attach order.
    """

    kind: str
    media: Tuple[MediumPlan, ...]
    nodes: Tuple[NodePlan, ...]
    home_medium: str
    cells: Tuple[str, ...]
    mobile_hosts: Tuple[str, ...]
    correspondents: Tuple[str, ...]
    fault_nodes: Mapping[str, str]
    observed: Tuple[str, ...]


def _mobile(
    name: str, home: IPNetwork, host: int, agent_host: int, cache: bool = True
) -> NodePlan:
    return NodePlan(
        name,
        MOBILE,
        cache=cache,
        home_address=home.host(host),
        home_network=home,
        home_agent=home.host(agent_host),
    )


def _stationary(name: str, lan: MediumPlan, host: int, cache: bool) -> NodePlan:
    """A one-interface host whose gateway is the LAN's ``.254`` router."""
    return NodePlan(
        name,
        HOST,
        interfaces=(lan.iface("eth0", host),),
        routes=((DEFAULT_ROUTE, lan.network.host(254), "eth0"),),
        cache=cache,
    )


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------
def figure1_plan(
    sender_is_cache_agent: bool = True,
    r1_is_cache_agent: bool = False,
    mobile_sender_cache: bool = True,
    advertise: bool = True,
    lan_latency: float = 0.001,
    wireless_latency: float = 0.003,
    wireless_loss: float = 0.0,
    **agent_kwargs,
) -> TopologyPlan:
    """The paper's Figure 1 internetwork (plus R5/net E).

    Args:
        sender_is_cache_agent: make S an MHRP-capable correspondent
            (Section 2 expects this of most hosts); when False, S is a
            completely unmodified host.
        r1_is_cache_agent: let S's first-hop router cache locations on
            behalf of a network of unmodified hosts (Section 6.2).
        agent_kwargs: forwarded to every agent's role composition (e.g.
            ``max_previous_sources``).
    """
    backbone = MediumPlan("backbone", IPNetwork("10.0.0.0/24"), lan_latency)
    net_a = MediumPlan("netA", IPNetwork("10.1.0.0/24"), lan_latency)
    net_b = MediumPlan("netB", IPNetwork("10.2.0.0/24"), lan_latency)
    net_c = MediumPlan("netC", IPNetwork("10.3.0.0/24"), lan_latency)
    net_d, net_e = (
        MediumPlan(name, IPNetwork(prefix), wireless_latency, True, wireless_loss)
        for name, prefix in (("netD", "10.4.0.0/24"), ("netE", "10.5.0.0/24"))
    )
    r1, r2, r3 = (backbone.network.host(i) for i in (1, 2, 3))
    r4, r5 = net_c.network.host(4), net_c.network.host(5)
    agent = {"advertise": advertise, **agent_kwargs}

    # Static routes: a small, converged internetwork — the paper assumes
    # ordinary IP routing works and changes nothing about it.
    def via(next_hop: IPAddress, iface: str, *media: MediumPlan):
        return tuple((m.network, next_hop, iface) for m in media)

    nodes = (
        NodePlan(
            "R1", ROUTER,
            (backbone.iface("bb", 1), net_a.iface("lan", 254)),
            via(r2, "bb", net_b) + via(r3, "bb", net_c, net_d, net_e),
            roles={"examine_forwarded": True} if r1_is_cache_agent else None,
        ),
        NodePlan(
            "R2", ROUTER,
            (backbone.iface("bb", 2), net_b.iface("lan", 254)),
            via(r1, "bb", net_a) + via(r3, "bb", net_c, net_d, net_e),
            roles={"home_iface": "lan", **agent},
        ),
        NodePlan(
            "R3", ROUTER,
            (backbone.iface("bb", 3), net_c.iface("lan", 254)),
            via(r1, "bb", net_a) + via(r2, "bb", net_b)
            + via(r4, "lan", net_d) + via(r5, "lan", net_e),
        ),
        NodePlan(
            "R4", ROUTER,
            (net_c.iface("lan", 4), net_d.iface("cell", 254)),
            ((DEFAULT_ROUTE, net_c.network.host(254), "lan"),),
            roles={"foreign_iface": "cell", **agent},
        ),
        NodePlan(
            "R5", ROUTER,
            (net_c.iface("lan", 5), net_e.iface("cell", 254)),
            ((DEFAULT_ROUTE, net_c.network.host(254), "lan"),),
            roles={"foreign_iface": "cell", **agent},
        ),
        _stationary("S", net_a, 1, cache=sender_is_cache_agent),
        _mobile("M", net_b.network, 10, 254, cache=mobile_sender_cache),
    )
    routers = ("R1", "R2", "R3", "R4", "R5")
    return TopologyPlan(
        kind="figure1",
        media=(backbone, net_a, net_b, net_c, net_d, net_e),
        nodes=nodes,
        home_medium="netB",
        cells=("netD", "netE"),
        mobile_hosts=("M",),
        correspondents=("S",),
        fault_nodes={name: name for name in routers},
        observed=("S", *routers, "M"),
    )


# ----------------------------------------------------------------------
# Star of routers: the shape campus and comparison star share
# ----------------------------------------------------------------------
def _star_of_routers(
    pre: str,
    backbone_net: IPNetwork,
    home_net: IPNetwork,
    home_router_host: int,
    corr_net: IPNetwork,
    cell_nets: List[IPNetwork],
    lan_latency: float,
    wireless_latency: float,
    corr_default: bool,
    agent: Optional[Dict[str, object]],
) -> Tuple[List[MediumPlan], MediumPlan, List[NodePlan]]:
    """One backbone LAN joining a home router ``HR`` (backbone host 1),
    a correspondent router ``CR`` (host 2) and one router ``FR{i}`` per
    wireless cell (host ``10 + i``).  The backbone is one LAN, so every
    router is one hop away and routes remote prefixes via it directly.
    ``agent`` (role kwargs, or ``None`` for plain routers) makes HR the
    home agent and every FR a foreign agent.  Returns every medium, the
    correspondent LAN among them (where callers put their hosts), and
    the routers."""
    backbone = MediumPlan(f"{pre}backbone", backbone_net, lan_latency)
    home = MediumPlan(f"{pre}home", home_net, lan_latency)
    corr = MediumPlan(f"{pre}corr", corr_net, lan_latency)
    cells = [
        MediumPlan(f"{pre}cell{i}", net, wireless_latency, wireless=True)
        for i, net in enumerate(cell_nets)
    ]
    hr, cr = backbone_net.host(1), backbone_net.host(2)
    to_cells = [(net, backbone_net.host(10 + i), "bb") for i, net in enumerate(cell_nets)]

    def roles(**placement):
        return None if agent is None else {**placement, **agent}

    nodes = [
        NodePlan(
            f"{pre}HR", ROUTER,
            (backbone.iface("bb", 1), home.iface("lan", home_router_host)),
            ((corr.network, cr, "bb"), *to_cells),
            roles=roles(home_iface="lan"),
        ),
        NodePlan(
            f"{pre}CR", ROUTER,
            (backbone.iface("bb", 2), corr.iface("lan", 254)),
            (
                *(((DEFAULT_ROUTE, hr, "bb"),) if corr_default else ()),
                (home_net, hr, "bb"),
                *to_cells,
            ),
        ),
    ]
    for i, cell in enumerate(cells):
        nodes.append(NodePlan(
            f"{pre}FR{i}", ROUTER,
            (backbone.iface("bb", 10 + i), cell.iface("cell", 254)),
            ((DEFAULT_ROUTE, hr, "bb"), *to_cells[:i], *to_cells[i + 1:]),
            roles=roles(foreign_iface="cell"),
        ))
    return [backbone, home, corr, *cells], corr, nodes


def _star_rosters(pre: str, n_cells: int) -> dict:
    return {
        "home_medium": f"{pre}home",
        "cells": tuple(f"{pre}cell{i}" for i in range(n_cells)),
        "fault_nodes": {
            "HR": f"{pre}HR",
            **{f"FR{i}": f"{pre}FR{i}" for i in range(n_cells)},
        },
    }


def campus_mobile_host(address_base: int, name_prefix: str, index: int) -> NodePlan:
    """Campus mobile host ``index``, from the address plan alone — a
    partition materializes visitors from other campuses with this."""
    home = IPNetwork(f"{address_base}.1.0.0/16")
    return _mobile(f"{name_prefix}M{index}", home, 1 + index, 65534)


def campus_plan(
    n_cells: int,
    n_mobile_hosts: int,
    n_correspondents: int = 1,
    advertise: bool = False,
    lan_latency: float = 0.001,
    wireless_latency: float = 0.003,
    address_base: int = 10,
    name_prefix: str = "",
    **agent_kwargs,
) -> TopologyPlan:
    """A star internetwork: one home network, ``n_cells`` foreign cells.

    With ``advertise=False`` (the default, to keep big simulations quiet)
    mobility models must drive registration explicitly through
    :class:`~repro.workloads.mobility.ScriptedMobility` soliciting after
    each attach — or simply enable advertising for small runs.

    Address plan: backbone ``{B}.0.0.0/16``; home ``{B}.1.0.0/16`` (so
    the scalability sweeps can register thousands of hosts on one home
    agent); cell *i* uses ``{B}.{100+i}.0.0/24``; correspondents live on
    ``{B}.2.0.0/24`` — where ``B`` is ``address_base`` (default 10, the
    historical plan).  A hierarchical world gives each campus its own
    base, so every campus owns the ``{B}.0.0.0/8`` supernet and a border
    gateway can classify local-vs-remote destinations by first octet.

    ``name_prefix`` is prepended to every node and medium name (e.g.
    ``"c3."``), keeping names unique when several campuses' traces and
    health summaries are merged into one plane.
    """
    if n_cells < 1:
        raise ValueError("need at least one cell")
    if n_cells > 150:
        raise ValueError("address plan supports at most 150 cells")
    if not 1 <= address_base <= 223:
        raise ValueError("address_base must be a valid unicast first octet")
    base, pre = address_base, name_prefix
    media, corr, nodes = _star_of_routers(
        pre,
        IPNetwork(f"{base}.0.0.0/16"),
        IPNetwork(f"{base}.1.0.0/16"),
        65534,
        IPNetwork(f"{base}.2.0.0/24"),
        [IPNetwork(f"{base}.{100 + i}.0.0/24") for i in range(n_cells)],
        lan_latency,
        wireless_latency,
        corr_default=True,
        agent={"advertise": advertise, **agent_kwargs},
    )
    routers = [node.name for node in nodes if node.name != f"{pre}CR"]
    mobiles = [campus_mobile_host(base, pre, i) for i in range(n_mobile_hosts)]
    hosts = [
        _stationary(f"{pre}C{i}", corr, 1 + i, cache=True)
        for i in range(n_correspondents)
    ]
    mobile_names = tuple(node.name for node in mobiles)
    host_names = tuple(node.name for node in hosts)
    return TopologyPlan(
        kind="campus",
        media=tuple(media),
        nodes=(*nodes, *mobiles, *hosts),
        mobile_hosts=mobile_names,
        correspondents=host_names,
        observed=(*routers, *host_names, *mobile_names),
        **_star_rosters(pre, n_cells),
    )


def star_plan(
    n_cells: int = 3,
    mhrp: bool = False,
    sender_caches: bool = False,
    lan_latency: float = 0.001,
    wireless_latency: float = 0.003,
    **agent_kwargs,
) -> TopologyPlan:
    """The comparison star every baseline-protocol scenario runs on:
    the star routers plus the correspondent host ``C``.

    With ``mhrp=True`` the paper's agent roles sit on every router and
    the mobile host ``M`` exists; baselines running a *different*
    protocol pass ``mhrp=False`` and attach their own roles and mobile
    client to the plain routers, so every protocol sees the identical
    physical internetwork.
    """
    if not 1 <= n_cells <= 200:
        raise ValueError("n_cells must be in 1..200")
    if agent_kwargs and not mhrp:
        raise ConfigurationError(
            f"unknown star topology parameters: {sorted(agent_kwargs)}"
        )
    home_net = IPNetwork("10.1.0.0/24")
    media, corr, nodes = _star_of_routers(
        "",
        IPNetwork("10.0.0.0/16"),
        home_net,
        254,
        IPNetwork("10.2.0.0/24"),
        [IPNetwork(f"10.100.{i}.0/24") for i in range(n_cells)],
        lan_latency,
        wireless_latency,
        corr_default=False,
        agent=dict(agent_kwargs) if mhrp else None,
    )
    routers = [node.name for node in nodes if node.name != "CR"]
    nodes.append(_stationary("C", corr, 1, cache=sender_caches))
    if mhrp:
        nodes.append(_mobile("M", home_net, 10, 254))
    return TopologyPlan(
        kind="star",
        media=tuple(media),
        nodes=tuple(nodes),
        mobile_hosts=("M",) if mhrp else (),
        correspondents=("C",),
        observed=("C", *routers, *(("M",) if mhrp else ())),
        **_star_rosters("", n_cells),
    )


#: Topology kind -> plan function.
PLANS: Dict[str, Callable[..., TopologyPlan]] = {
    "figure1": figure1_plan,
    "campus": campus_plan,
    "star": star_plan,
}


def plan_for(topology: Mapping[str, object]) -> TopologyPlan:
    """The plan a ScenarioSpec ``topology`` dict describes."""
    params = dict(topology)
    kind = params.pop("kind", None)
    plan = PLANS.get(kind)
    if plan is None:
        raise ConfigurationError(
            f"unknown topology kind {kind!r} (expected one of {sorted(PLANS)})"
        )
    return plan(**params)
