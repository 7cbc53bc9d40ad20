"""Integration: two organizations, each with its own home agent.

Section 2: "Each organization manages its own home agent (or agents) to
support the routing of IP packets to the mobile hosts owned by that
organization" — and a single router can be home agent for its own
network *and* foreign agent for visitors (the combined deployment).

Topology: two organization networks joined by a backbone; each border
router runs home agent + foreign agent + cache agent.  Each org owns one
mobile host; the hosts swap networks and talk to each other.
"""

import pytest

from repro.core.agent_router import make_agent_router
from repro.core.mobile_host import MobileHost
from repro.ip import IPNetwork, Router
from repro.link import LAN
from repro.netsim import Simulator


@pytest.fixture
def two_orgs():
    sim = Simulator(seed=21)
    bb_net = IPNetwork("10.0.0.0/24")
    backbone = LAN(sim, "backbone")
    net_a = IPNetwork("10.1.0.0/24")
    lan_a = LAN(sim, "orgA")
    net_b = IPNetwork("10.2.0.0/24")
    lan_b = LAN(sim, "orgB")

    ra = Router(sim, "RA")
    ra.add_interface("bb", bb_net.host(1), bb_net, medium=backbone)
    ra.add_interface("lan", net_a.host(254), net_a, medium=lan_a)
    rb = Router(sim, "RB")
    rb.add_interface("bb", bb_net.host(2), bb_net, medium=backbone)
    rb.add_interface("lan", net_b.host(254), net_b, medium=lan_b)
    ra.routing_table.add_next_hop(net_b, bb_net.host(2), "bb")
    rb.routing_table.add_next_hop(net_a, bb_net.host(1), "bb")

    # Each border router is home agent AND foreign agent on its LAN.
    roles_a = make_agent_router(ra, home_iface="lan", foreign_iface="lan")
    roles_b = make_agent_router(rb, home_iface="lan", foreign_iface="lan")

    ma = MobileHost(sim, "MA", home_address=net_a.host(10),
                    home_network=net_a, home_agent=net_a.host(254))
    mb = MobileHost(sim, "MB", home_address=net_b.host(10),
                    home_network=net_b, home_agent=net_b.host(254))
    return dict(
        sim=sim, lan_a=lan_a, lan_b=lan_b, ra=ra, rb=rb,
        roles_a=roles_a, roles_b=roles_b, ma=ma, mb=mb,
        net_a=net_a, net_b=net_b,
    )


def ping_ok(env, src, dst_address, timeout=8.0):
    sim = env["sim"]
    replies = []
    handler = lambda p, m: replies.append(m)  # noqa: E731
    src.on_icmp(0, handler)
    src.ping(dst_address)
    sim.run(until=sim.now + timeout)
    src._icmp_listeners[0].remove(handler)
    return bool(replies)


class TestCombinedAgentRouters:
    def test_advertisement_carries_both_roles(self, two_orgs):
        """A combined router advertises as home agent and foreign agent
        at once; visitors and returning owners both recognize it."""
        env = two_orgs
        env["ma"].attach_home(env["lan_a"])
        env["sim"].run(until=5.0)
        assert env["ma"].at_home

    def test_hosts_swap_networks(self, two_orgs):
        env = two_orgs
        sim = env["sim"]
        env["ma"].attach(env["lan_b"])   # MA visits org B
        env["mb"].attach(env["lan_a"])   # MB visits org A
        sim.run(until=8.0)
        # Each host registered with the *other* org's router as FA...
        assert env["roles_b"].foreign_agent.is_serving(env["ma"].home_address)
        assert env["roles_a"].foreign_agent.is_serving(env["mb"].home_address)
        # ...and with its own org's router as HA.
        db_a = env["roles_a"].home_agent.database
        db_b = env["roles_b"].home_agent.database
        assert db_a.foreign_agent_of(env["ma"].home_address) == env["net_b"].host(254)
        assert db_b.foreign_agent_of(env["mb"].home_address) == env["net_a"].host(254)

    def test_swapped_hosts_reach_each_other(self, two_orgs):
        env = two_orgs
        env["ma"].attach(env["lan_b"])
        env["mb"].attach(env["lan_a"])
        env["sim"].run(until=8.0)
        assert ping_ok(env, env["ma"], env["mb"].home_address)
        assert ping_ok(env, env["mb"], env["ma"].home_address)

    def test_visitor_on_home_lan_of_peer(self, two_orgs):
        """MA visiting org B pings MB who is AT HOME on that same LAN:
        pure local traffic via the combined router."""
        env = two_orgs
        sim = env["sim"]
        env["ma"].attach(env["lan_b"])
        env["mb"].attach_home(env["lan_b"])
        sim.run(until=8.0)
        assert ping_ok(env, env["ma"], env["mb"].home_address)
        assert ping_ok(env, env["mb"], env["ma"].home_address)

    def test_home_agents_are_independent(self, two_orgs):
        """Org A's agent refuses registrations for org B's hosts."""
        env = two_orgs
        sim = env["sim"]
        from repro.core.registration import (
            HA_REGISTER,
            RegistrationMessage,
        )
        from repro.wire.roles import ReliableRegistrar

        env["mb"].attach(env["lan_a"])
        sim.run(until=5.0)
        acks = []
        message = RegistrationMessage(
            kind=HA_REGISTER, seq=env["mb"].next_seq(),
            mobile_host=env["mb"].home_address,       # org B's host...
            agent=env["net_a"].host(254),
        )
        ReliableRegistrar(env["mb"]).send(
            env["net_a"].host(254), message, on_ack=acks.append  # ...to org A's HA
        )
        sim.run(until=sim.now + 5.0)
        assert acks and not acks[0].ok
        assert env["mb"].home_address not in env["roles_a"].home_agent.database

    def test_both_roam_back_home(self, two_orgs):
        env = two_orgs
        sim = env["sim"]
        env["ma"].attach(env["lan_b"])
        env["mb"].attach(env["lan_a"])
        sim.run(until=8.0)
        env["ma"].attach_home(env["lan_a"])
        env["mb"].attach_home(env["lan_b"])
        sim.run(until=16.0)
        assert env["ma"].at_home and env["mb"].at_home
        assert not env["roles_b"].foreign_agent.is_serving(env["ma"].home_address)
        assert not env["roles_a"].foreign_agent.is_serving(env["mb"].home_address)
        assert ping_ok(env, env["ma"], env["mb"].home_address)
