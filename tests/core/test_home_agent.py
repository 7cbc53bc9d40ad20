"""Integration tests for the home agent over the Figure 1 topology."""

import pytest

from repro.ip.protocols import MHRP


class TestRegistrationHandling:
    def test_away_registration_recorded(self, figure1_m_at_r4):
        topo = figure1_m_at_r4
        db = topo.r2_roles.home_agent.database
        assert db.foreign_agent_of(topo.m.home_address) == topo.fa4_address

    def test_home_registration_is_zero(self, figure1):
        topo = figure1
        topo.m.attach_home(topo.net_b)
        topo.sim.run(until=5.0)
        db = topo.r2_roles.home_agent.database
        fa = db.foreign_agent_of(topo.m.home_address)
        assert fa is not None and fa.is_zero

    def test_foreign_host_registration_refused(self, figure1):
        """A host whose address is not on the home network is not ours."""
        topo = figure1
        from repro.core.registration import (
            HA_REGISTER,
            RegistrationMessage,
        )
        from repro.wire.roles import ReliableRegistrar

        acks = []
        message = RegistrationMessage(
            kind=HA_REGISTER,
            seq=1,
            mobile_host=topo.net_a_prefix.host(1),  # S's address: not in net B
            agent=topo.fa4_address,
        )
        ReliableRegistrar(topo.s).send(
            topo.home_agent_address, message, on_ack=acks.append
        )
        topo.sim.run(until=5.0)
        assert len(acks) == 1
        assert not acks[0].ok
        assert topo.net_a_prefix.host(1) not in topo.r2_roles.home_agent.database


class TestInterception:
    def test_proxy_arp_claims_away_host(self, figure1_m_at_r4):
        """Section 2: hosts on the home LAN resolve M's address to the
        home agent's hardware address while M is away."""
        topo = figure1_m_at_r4
        sim = topo.sim
        from repro.ip import Host

        neighbour = Host(sim, "N")
        neighbour.add_interface(
            "eth0", topo.net_b_prefix.host(20), topo.net_b_prefix, medium=topo.net_b
        )
        neighbour.set_gateway(topo.net_b_prefix.host(254))
        neighbour.ping(topo.m.home_address)
        sim.run(until=10.0)
        learned = neighbour.arp["eth0"].lookup(topo.m.home_address)
        ha_hw = topo.r2.interfaces["lan"].hw_address
        assert learned == ha_hw

    def test_intercepted_packet_tunneled_and_delivered(self, figure1_m_at_r4):
        topo = figure1_m_at_r4
        replies = []
        topo.s.on_icmp(0, lambda p, m: replies.append(m))
        topo.s.ping(topo.m.home_address)
        topo.sim.run(until=10.0)
        assert len(replies) == 1
        assert topo.r2_roles.home_agent.packets_intercepted >= 1

    def test_sender_receives_location_update(self, figure1_m_at_r4):
        """Section 6.1: 'R2 also returns a location update message to S'."""
        topo = figure1_m_at_r4
        topo.s.ping(topo.m.home_address)
        topo.sim.run(until=10.0)
        assert topo.s.cache_agent.cache.peek(topo.m.home_address) == topo.fa4_address

    def test_no_interception_when_home(self, figure1):
        """Section 1: zero overhead when the mobile host is at home."""
        topo = figure1
        topo.m.attach_home(topo.net_b)
        topo.sim.run(until=5.0)
        tunnel_count_before = topo.sim.tracer.count("mhrp.tunnel")
        replies = []
        topo.s.on_icmp(0, lambda p, m: replies.append(m))
        topo.s.ping(topo.m.home_address)
        topo.sim.run(until=10.0)
        assert len(replies) == 1
        assert topo.sim.tracer.count("mhrp.tunnel") == tunnel_count_before
        assert topo.r2_roles.home_agent.packets_intercepted == 0

    def test_unregistered_home_host_is_plain(self, figure1):
        """Hosts that never became mobile get ordinary IP treatment."""
        topo = figure1
        sim = topo.sim
        from repro.ip import Host

        stay = Host(sim, "Stay")
        stay.add_interface(
            "eth0", topo.net_b_prefix.host(30), topo.net_b_prefix, medium=topo.net_b
        )
        stay.set_gateway(topo.net_b_prefix.host(254))
        replies = []
        topo.s.on_icmp(0, lambda p, m: replies.append(m))
        topo.s.ping(topo.net_b_prefix.host(30))
        sim.run(until=10.0)
        assert len(replies) == 1
        assert topo.r2_roles.home_agent.packets_intercepted == 0


class TestStaleTunnelHandling:
    def test_retunnels_to_current_fa_and_updates_stale_caches(self, figure1_m_at_r4):
        """Section 5.1's tunneled-to-home case: stale sender cache points
        at R4 after M moved to R5 and R4 lost its pointer."""
        topo = figure1_m_at_r4
        sim = topo.sim
        # Prime S's cache with R4.
        topo.s.ping(topo.m.home_address)
        sim.run(until=10.0)
        assert topo.s.cache_agent.cache.peek(topo.m.home_address) == topo.fa4_address
        # Move M to R5 and erase R4's forwarding pointer to force the
        # tunnel-to-home path.
        topo.m.attach(topo.net_e)
        sim.run(until=15.0)
        topo.r4_roles.cache_agent.cache.delete(topo.m.home_address)
        replies = []
        topo.s.on_icmp(0, lambda p, m: replies.append(m))
        topo.s.ping(topo.m.home_address)
        sim.run(until=25.0)
        # Delivered despite two levels of staleness...
        assert len(replies) == 1
        assert topo.r2_roles.home_agent.packets_retunneled >= 1
        # ...and both S and R4 now point at R5 (Section 6.3: "returns a
        # location update message to both S and R4").
        assert topo.s.cache_agent.cache.peek(topo.m.home_address) == topo.fa5_address
        assert topo.r4_roles.cache_agent.cache.peek(topo.m.home_address) == topo.fa5_address


class TestPlannedDisconnection:
    def test_disconnected_host_gets_unreachable(self, figure1_m_at_r4):
        topo = figure1_m_at_r4
        sim = topo.sim
        topo.m.disconnect()
        sim.run(until=10.0)
        errors = []
        topo.s.on_icmp_error(lambda p, e: errors.append(e))
        topo.s.ping(topo.m.home_address)
        sim.run(until=20.0)
        assert len(errors) >= 1

    def test_reconnect_after_disconnect_restores_service(self, figure1_m_at_r4):
        topo = figure1_m_at_r4
        sim = topo.sim
        topo.m.disconnect()
        sim.run(until=10.0)
        topo.m.attach(topo.net_e)
        sim.run(until=20.0)
        replies = []
        topo.s.on_icmp(0, lambda p, m: replies.append(m))
        topo.s.ping(topo.m.home_address)
        sim.run(until=30.0)
        assert len(replies) == 1


class TestHomeAgentReboot:
    def test_database_survives_reboot(self, figure1_m_at_r4):
        """Section 2: the database is recorded on disk to survive crashes."""
        topo = figure1_m_at_r4
        sim = topo.sim
        topo.r2.crash()
        sim.run(until=7.0)
        topo.r2.reboot()
        sim.run(until=8.0)
        db = topo.r2_roles.home_agent.database
        assert db.foreign_agent_of(topo.m.home_address) == topo.fa4_address
        # Interception still works after the reboot.
        replies = []
        topo.s.on_icmp(0, lambda p, m: replies.append(m))
        topo.s.ping(topo.m.home_address)
        sim.run(until=20.0)
        assert len(replies) == 1
