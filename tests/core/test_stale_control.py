"""Pinned regression tests for the stale-control-message bug.

The fuzzer's cache-convergence probes flushed this out: a mobile host's
``fa-disconnect`` for move *k* can be kept alive by the reliable
registrar's retransmissions while the old agent is down, and arrive
*after* the ``fa-connect`` of move *k+1* (or, at the home agent, an old
``ha-register`` after a newer one).  Naively processing the delayed
message de-registers a perfectly fresh visitor — worse, the bogus
departure stamp then suppresses the Section 5.2 recovery for a whole
departure-grace window — or re-points the home agent's tunnels at a
previous foreign agent.  :class:`StaleControlFilter` rejects any control
message strictly older than the newest already processed per host.
"""

from unittest import mock

import pytest

from repro.core.registration import (
    FA_CONNECT,
    FA_DISCONNECT,
    HA_REGISTER,
    RegistrationMessage,
    StaleControlFilter,
)
from repro.ip.address import IPAddress
from repro.ip.packet import IPPacket, RawPayload
from repro.ip.protocols import UDP

MH = IPAddress("10.2.0.10")
OTHER = IPAddress("10.3.0.20")


def message(seq, kind=FA_CONNECT, mobile_host=MH, **kw):
    return RegistrationMessage(kind=kind, seq=seq, mobile_host=mobile_host, **kw)


class TestStaleControlFilter:
    def test_first_message_is_fresh(self):
        assert not StaleControlFilter().is_stale(message(5))

    def test_older_sequence_is_stale(self):
        f = StaleControlFilter()
        assert not f.is_stale(message(5))
        assert f.is_stale(message(3, kind=FA_DISCONNECT))

    def test_equal_sequence_is_a_retransmission_not_stale(self):
        f = StaleControlFilter()
        assert not f.is_stale(message(5))
        assert not f.is_stale(message(5))

    def test_high_water_is_per_host(self):
        f = StaleControlFilter()
        assert not f.is_stale(message(9, mobile_host=MH))
        assert not f.is_stale(message(2, mobile_host=OTHER))
        assert f.is_stale(message(8, mobile_host=MH))

    def test_reset_forgets_everything(self):
        f = StaleControlFilter()
        assert not f.is_stale(message(9))
        f.reset()
        assert not f.is_stale(message(1))


def delayed(target, kind, seq, **kw):
    """Hand a crafted control message straight to the agent's handler,
    as if a delayed retransmission had just been demultiplexed.  The
    sequence counter starts at 1, so ``seq=0`` is strictly older than
    any message a host can really have sent."""
    msg = RegistrationMessage(kind=kind, seq=seq, mobile_host=MH, **kw)
    packet = IPPacket(src=MH, dst=target.address, protocol=UDP,
                      payload=RawPayload(b""))
    handler = {
        FA_CONNECT: getattr(target, "_on_connect", None),
        FA_DISCONNECT: getattr(target, "_on_disconnect", None),
        HA_REGISTER: getattr(target, "_on_register", None),
    }[kind]
    handler(packet, msg)
    return msg


class TestForeignAgentStaleHandling:
    def test_delayed_disconnect_does_not_deregister_fresh_visitor(
        self, figure1_m_at_r4
    ):
        topo = figure1_m_at_r4
        fa = topo.r4_roles.foreign_agent
        assert topo.m.home_address in fa.visitors
        delayed(fa, FA_DISCONNECT, seq=0)  # older than the real connect
        assert topo.m.home_address in fa.visitors
        # ...and no bogus departure stamp to suppress Section 5.2 recovery.
        assert topo.m.home_address not in fa.recent_departures

    def test_stale_message_is_negatively_acked_and_traced(self, figure1_m_at_r4):
        topo = figure1_m_at_r4
        fa = topo.r4_roles.foreign_agent
        acks = []
        with mock.patch.object(
            fa._dispatcher, "send_ack",
            side_effect=lambda *a, **kw: acks.append(kw),
        ):
            delayed(fa, FA_DISCONNECT, seq=0)
        assert acks and acks[-1].get("ok") is False
        stale = [
            e for e in topo.sim.tracer.select("mhrp.register")
            if e.detail.get("event") == "stale-ignored"
        ]
        assert len(stale) == 1

    def test_delayed_connect_does_not_resurrect_visitor(self, figure1_m_at_r4):
        """After the host moves on (fa-disconnect with a newer seq), a
        delayed fa-connect from an *earlier* move must not re-add it."""
        topo = figure1_m_at_r4
        fa = topo.r4_roles.foreign_agent
        topo.m.attach(topo.net_e)  # the real departure, newer seq
        topo.sim.run(until=topo.sim.now + 3.0)
        assert topo.m.home_address not in fa.visitors
        delayed(fa, FA_CONNECT, seq=0, agent=fa.address)
        assert topo.m.home_address not in fa.visitors

    def test_reboot_resets_the_filter(self, figure1_m_at_r4):
        """The sequence memory is RAM-resident: after a crash/reboot the
        agent must accept whatever seq the recovery produces."""
        topo = figure1_m_at_r4
        fa = topo.r4_roles.foreign_agent
        router = topo.r4
        router.crash()
        router.reboot()
        assert fa.stale_filter._high_water == {}

    def test_without_the_filter_the_bug_reproduces(self, figure1_m_at_r4):
        """Re-introduce the seed behaviour (no staleness check) and the
        delayed disconnect wrongly de-registers the fresh visitor — the
        failure mode the filter pins."""
        topo = figure1_m_at_r4
        fa = topo.r4_roles.foreign_agent
        with mock.patch.object(
            StaleControlFilter, "is_stale", lambda self, m: False
        ):
            delayed(fa, FA_DISCONNECT, seq=0)
        assert topo.m.home_address not in fa.visitors  # the bug
        assert topo.m.home_address in fa.recent_departures  # and its sting


class TestHomeAgentStaleHandling:
    def test_delayed_register_does_not_revert_binding(self, figure1_m_at_r4):
        topo = figure1_m_at_r4
        ha = topo.r2_roles.home_agent
        assert ha.database.foreign_agent_of(topo.m.home_address) == topo.fa4_address
        msg = RegistrationMessage(
            kind=HA_REGISTER, seq=0, mobile_host=topo.m.home_address,
            agent=topo.fa5_address,
        )
        packet = IPPacket(src=topo.m.home_address, dst=ha.address,
                          protocol=UDP, payload=RawPayload(b""))
        ha._on_register(packet, msg)
        # The stale registration was ignored: still bound to FA4.
        assert ha.database.foreign_agent_of(topo.m.home_address) == topo.fa4_address

    def test_fresh_register_still_updates_binding(self, figure1_m_at_r4):
        topo = figure1_m_at_r4
        ha = topo.r2_roles.home_agent
        msg = RegistrationMessage(
            kind=HA_REGISTER, seq=topo.m.next_seq(), mobile_host=topo.m.home_address,
            agent=topo.fa5_address,
        )
        packet = IPPacket(src=topo.m.home_address, dst=ha.address,
                          protocol=UDP, payload=RawPayload(b""))
        ha._on_register(packet, msg)
        assert ha.database.foreign_agent_of(topo.m.home_address) == topo.fa5_address

    def test_reboot_resets_the_filter(self, figure1_m_at_r4):
        topo = figure1_m_at_r4
        ha = topo.r2_roles.home_agent
        assert ha.stale_filter._high_water  # primed by the registration
        topo.r2.crash()
        topo.r2.reboot()
        assert ha.stale_filter._high_water == {}


class TestCountedDropTerminals:
    """The other fuzzer find: three home-agent discard paths traced a
    drop but never told the dataplane, so the packets vanished from the
    counters (and tripped packet conservation).  Each is now routed
    through ``dataplane.drop`` with a named reason."""

    def test_disconnected_host_drop_is_counted(self, figure1_m_at_r4):
        topo = figure1_m_at_r4
        topo.m.disconnect()
        topo.sim.run(until=topo.sim.now + 3.0)
        before = topo.r2.dataplane.counters.dropped.get("mh-disconnected", 0)
        topo.s.ping(topo.m.home_address)
        topo.sim.run(until=topo.sim.now + 4.0)
        assert topo.r2.dataplane.counters.dropped.get("mh-disconnected", 0) > before

    def test_home_agent_loop_dissolution_drop_is_counted(self, figure1):
        """A loop that runs through the home agent itself: the packet is
        dropped there, and the drop must be attributed."""
        topo = figure1
        topo.m.attach(topo.net_d)
        topo.sim.run(until=5.0)
        from repro.core.encapsulation import encapsulate

        packet = IPPacket(
            src=topo.net_a_prefix.host(1), dst=topo.m.home_address,
            protocol=UDP, payload=RawPayload(b"x"),
        )
        # Forge a tunnel-to-home whose list already names the home
        # agent itself (and not the current foreign agent, so neither
        # the Section 5.2 recovery nor a clean re-tunnel applies): the
        # home agent detects the loop through itself.
        encapsulate(packet, topo.m.home_address, agent_address=topo.fa5_address)
        packet.payload.header.previous_sources.append(topo.home_agent_address)
        topo.s.send(packet)
        topo.sim.run(until=topo.sim.now + 4.0)
        assert topo.r2.dataplane.counters.dropped.get("mhrp-loop-dissolved", 0) >= 1

    def test_malformed_mhrp_drop_is_counted(self, figure1_m_at_r4):
        """A packet claiming protocol MHRP without an MHRP payload is
        discarded by the foreign agent — through the dataplane."""
        from repro.ip.protocols import MHRP

        topo = figure1_m_at_r4
        packet = IPPacket(
            src=topo.net_a_prefix.host(1), dst=topo.fa4_address,
            protocol=MHRP, payload=RawPayload(b"garbage"),
        )
        topo.s.send(packet)
        topo.sim.run(until=topo.sim.now + 4.0)
        assert topo.r4.dataplane.counters.dropped.get("malformed-mhrp", 0) >= 1
