"""Unit tests for the registration control protocol."""

import pytest

from repro.core.registration import (
    ACK,
    FA_CONNECT,
    HA_REGISTER,
    RegistrationMessage,
    next_seq,
)
from repro.errors import RegistrationError
from repro.ip.address import IPAddress
from repro.wire.roles import ControlDispatcher, ReliableRegistrar

MH = IPAddress("10.2.0.10")


def make_message(kind=FA_CONNECT, **kw):
    defaults = dict(kind=kind, seq=next_seq(), mobile_host=MH)
    defaults.update(kw)
    return RegistrationMessage(**defaults)


class TestMessageFormat:
    def test_fixed_wire_size(self):
        msg = make_message(agent=IPAddress("10.4.0.254"), hw_value=0x020000000001)
        assert msg.byte_length == 18
        assert len(msg.to_bytes()) == 18

    def test_fields_in_wire(self):
        msg = make_message(agent=IPAddress("10.4.0.254"))
        wire = msg.to_bytes()
        assert IPAddress.from_bytes(wire[4:8]) == MH
        assert IPAddress.from_bytes(wire[8:12]) == "10.4.0.254"


class TestDispatcher:
    def test_for_node_is_singleton_per_node(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        d1 = ControlDispatcher.for_node(a)
        d2 = ControlDispatcher.for_node(a)
        assert d1 is d2

    def test_duplicate_kind_rejected(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        d = ControlDispatcher.for_node(a)
        d.on(FA_CONNECT, lambda p, m: None)
        with pytest.raises(RegistrationError):
            d.on(FA_CONNECT, lambda p, m: None)

    def test_kinds_route_to_handlers(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        got = {"fa": [], "ha": []}
        d = ControlDispatcher.for_node(b)
        d.on(FA_CONNECT, lambda p, m: got["fa"].append(m))
        d.on(HA_REGISTER, lambda p, m: got["ha"].append(m))
        ControlDispatcher.for_node(a)
        from repro.ip.packet import IPPacket
        from repro.ip.protocols import MOBILE_CONTROL

        for kind in (FA_CONNECT, HA_REGISTER):
            a.send(IPPacket(src=net.host(1), dst=net.host(2),
                            protocol=MOBILE_CONTROL, payload=make_message(kind)))
        sim.run_until_idle()
        assert len(got["fa"]) == 1
        assert len(got["ha"]) == 1


class TestReliableRegistrar:
    def test_delivery_and_ack(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        received, acked = [], []
        d = ControlDispatcher.for_node(b)
        d.on(FA_CONNECT, lambda p, m: (received.append(m),
                                       d.send_ack(p.src, m)))
        registrar = ReliableRegistrar(a)
        registrar.send(net.host(2), make_message(), on_ack=acked.append)
        sim.run_until_idle()
        assert len(received) == 1
        assert len(acked) == 1
        assert acked[0].kind == ACK

    def test_retransmits_through_loss(self, sim):
        from repro.ip import Host, IPNetwork
        from repro.link import LAN

        # Deterministic for the fixture's fixed seed; the retry schedule
        # (6 attempts) rides out 25% per-delivery loss comfortably.
        lan = LAN(sim, "lossy", latency=0.001, loss_rate=0.25)
        net = IPNetwork("10.0.0.0/24")
        a, b = Host(sim, "A"), Host(sim, "B")
        a.add_interface("eth0", net.host(1), net, medium=lan)
        b.add_interface("eth0", net.host(2), net, medium=lan)
        d = ControlDispatcher.for_node(b)
        d.on(FA_CONNECT, lambda p, m: d.send_ack(p.src, m))
        acked = []
        # Several attempts in a row; with 50% loss each direction the
        # retry schedule must still land at least one.
        ReliableRegistrar(a).send(net.host(2), make_message(), on_ack=acked.append)
        sim.run(until=60.0)
        assert len(acked) == 1  # exactly one: ack callback fires once

    def test_gives_up_when_peer_absent(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        failed = []
        ReliableRegistrar(a).send(
            net.host(99), make_message(), on_fail=lambda: failed.append(True)
        )
        sim.run(until=60.0)
        assert failed == [True]

    def test_duplicate_acks_ignored(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        acked = []
        d = ControlDispatcher.for_node(b)

        def handler(p, m):
            d.send_ack(p.src, m)
            d.send_ack(p.src, m)  # duplicate

        d.on(FA_CONNECT, handler)
        ReliableRegistrar(a).send(net.host(2), make_message(), on_ack=acked.append)
        sim.run_until_idle()
        assert len(acked) == 1
