"""One topology plan, two binders: the sim-bound and engine-bound worlds
of every plan kind must be the same internetwork.

This is what keeps the conformance premise true ("a sim/engine
divergence must mean protocol logic, never topology"): addresses,
routes, role placement and options, media membership and rosters are
compared node by node, for every kind in :data:`repro.plan.PLANS`.
"""

import pytest

from repro.errors import ConfigurationError
from repro.netsim import Simulator
from repro.plan import PLANS, plan_for
from repro.scenario.world import bind_sim
from repro.wire.topo import bind_engine, build_engine_world

SAMPLES = {
    "figure1": [
        {},
        {"sender_is_cache_agent": False, "r1_is_cache_agent": True},
        {"mobile_sender_cache": False, "max_previous_sources": 4,
         "advertise": False, "wireless_latency": 0.02, "lan_latency": 0.002},
        {"believe_home_agent": False, "keep_forwarding_pointers": False},
    ],
    "campus": [
        {"n_cells": 1, "n_mobile_hosts": 1},
        {"n_cells": 3, "n_mobile_hosts": 4, "n_correspondents": 2,
         "advertise": True, "max_previous_sources": 4},
        {"n_cells": 4, "n_mobile_hosts": 2, "address_base": 13,
         "name_prefix": "c3.", "wireless_latency": 0.01},
    ],
    "star": [
        {"n_cells": 1},
        {"n_cells": 3, "mhrp": True},
        {"n_cells": 2, "mhrp": True, "sender_caches": True,
         "max_previous_sources": 4},
    ],
}

CASES = [
    pytest.param({"kind": kind, **params}, id=f"{kind}-{i}")
    for kind, samples in SAMPLES.items()
    for i, params in enumerate(samples)
]


def test_every_plan_kind_is_sampled():
    """A kind added to PLANS must be bound (and compared) by both
    binders here."""
    assert set(SAMPLES) == set(PLANS)


def _role_options(role):
    if role is None:
        return None
    names = (
        "home_iface_name", "local_iface_name", "max_previous_sources",
        "keep_forwarding_pointers", "believe_home_agent", "examine_forwarded",
    )
    options = {n: getattr(role, n) for n in names if hasattr(role, n)}
    options["advertises"] = getattr(role, "advertiser", None) is not None
    return options


def _describe_node(node, mobile: bool):
    description = {
        "forwarding": node.forwarding,
        "interfaces": {
            name: (str(iface.ip_address), str(iface.network))
            for name, iface in node.interfaces.items()
        },
        "routes": node.routing_table.state_dict(),
        "sender_cache": getattr(node, "cache_agent", None) is not None,
    }
    if mobile:
        description["home"] = (
            str(node.home_address), str(node.home_network), str(node.home_agent)
        )
    return description


def _describe_roles(roles):
    return {
        name: {
            role: _role_options(getattr(router, role))
            for role in ("cache_agent", "foreign_agent", "home_agent")
        }
        for name, router in roles.items()
    }


@pytest.mark.parametrize("topology", CASES)
def test_sim_and_engine_bind_the_same_internetwork(topology):
    plan = plan_for(topology)
    sim_world = bind_sim(Simulator(seed=1), plan)
    engine = bind_engine(plan)
    names = [node.name for node in plan.nodes]
    mobiles = set(plan.mobile_hosts)

    assert list(sim_world.by_name) == list(engine.world.nodes) == names
    for name in names:
        assert _describe_node(sim_world.by_name[name], name in mobiles) == (
            _describe_node(engine.world.nodes[name], name in mobiles)
        ), name
    assert _describe_roles(sim_world.roles) == _describe_roles(engine.roles)

    # Media: membership in attachment order, and latency.
    assert {
        name: [(iface.node.name, iface.name) for iface in medium.interfaces]
        for name, medium in sim_world.media.items()
    } == engine.world.media
    assert {
        name: medium.latency for name, medium in sim_world.media.items()
    } == engine.latency

    # Rosters and fault names.
    assert sim_world.home_medium.name == engine.home_medium
    assert [cell.name for cell in sim_world.cells] == engine.cells
    assert [mh.name for mh in sim_world.mobile_hosts] == engine.mobile_hosts
    assert [c.name for c in sim_world.correspondents] == engine.correspondents
    assert {
        fault: node.name for fault, node in sim_world.fault_nodes.items()
    } == engine.fault_nodes


def test_engine_backends_reject_link_loss_by_name():
    """The engines do not model loss; dropping the knob silently would
    make one spec mean two things."""
    with pytest.raises(ConfigurationError, match="wireless_loss"):
        build_engine_world({"kind": "figure1", "wireless_loss": 0.1})
