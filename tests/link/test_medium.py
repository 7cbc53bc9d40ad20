"""Unit tests for transmission media."""

import pytest

from repro.errors import LinkError
from repro.ip import Host, IPNetwork
from repro.ip.packet import IPPacket, RawPayload
from repro.ip.protocols import UDP
from repro.link import LAN, PointToPointLink, WirelessCell
from repro.link.frame import ETHERTYPE_IP, Frame, HWAddress


def attach_host(sim, medium, name, addr, net):
    host = Host(sim, name)
    host.add_interface("eth0", addr, net, medium=medium)
    return host


class TestMediumBasics:
    def test_negative_latency_rejected(self, sim):
        with pytest.raises(LinkError):
            LAN(sim, "x", latency=-1)

    def test_bad_loss_rate_rejected(self, sim):
        with pytest.raises(LinkError):
            LAN(sim, "x", loss_rate=1.5)

    def test_double_attach_rejected(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        with pytest.raises(LinkError):
            lan.attach(a.interfaces["eth0"])

    def test_detach_unattached_rejected(self, sim):
        lan = LAN(sim, "x")
        host = Host(sim, "H")
        iface = host.add_interface("eth0", "10.0.0.1", IPNetwork("10.0.0.0/24"))
        with pytest.raises(LinkError):
            lan.detach(iface)

    def test_transmit_while_detached_rejected(self, sim):
        lan = LAN(sim, "x")
        host = Host(sim, "H")
        iface = host.add_interface("eth0", "10.0.0.1", IPNetwork("10.0.0.0/24"))
        frame = Frame(iface.hw_address, HWAddress.broadcast(), ETHERTYPE_IP,
                      IPPacket(src="10.0.0.1", dst="10.0.0.2", protocol=UDP))
        with pytest.raises(LinkError):
            lan.transmit(iface, frame)

    def test_latency_applied(self, sim):
        lan = LAN(sim, "x", latency=0.5)
        net = IPNetwork("10.0.0.0/24")
        a = attach_host(sim, lan, "A", net.host(1), net)
        b = attach_host(sim, lan, "B", net.host(2), net)
        arrivals = []
        b.register_protocol(UDP, lambda p, i: arrivals.append(sim.now))
        # Pre-load ARP so the first delivery isn't delayed by resolution.
        a.arp["eth0"].learn(net.host(2), b.interfaces["eth0"].hw_address)
        a.send(IPPacket(src=net.host(1), dst=net.host(2), protocol=UDP))
        sim.run_until_idle()
        assert arrivals == [0.5]

    def test_bytes_accounting(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        before = lan.bytes_transmitted
        a.ping(net.host(2))
        sim.run_until_idle()
        assert lan.bytes_transmitted > before
        assert lan.frames_transmitted >= 2  # ARP + at least one IP frame


class TestUnicastAndBroadcast:
    def test_unicast_reaches_only_target(self, sim):
        lan = LAN(sim, "x")
        net = IPNetwork("10.0.0.0/24")
        a = attach_host(sim, lan, "A", net.host(1), net)
        b = attach_host(sim, lan, "B", net.host(2), net)
        c = attach_host(sim, lan, "C", net.host(3), net)
        got = {"b": 0, "c": 0}
        b.register_protocol(UDP, lambda p, i: got.__setitem__("b", got["b"] + 1))
        c.register_protocol(UDP, lambda p, i: got.__setitem__("c", got["c"] + 1))
        a.send(IPPacket(src=net.host(1), dst=net.host(2), protocol=UDP))
        sim.run_until_idle()
        assert got == {"b": 1, "c": 0}

    def test_unicast_to_absent_hw_is_silently_dropped(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        ghost = HWAddress.allocate(sim)
        a.interfaces["eth0"].send_to(
            ghost, ETHERTYPE_IP,
            IPPacket(src=net.host(1), dst=net.host(9), protocol=UDP),
        )
        sim.run_until_idle()
        drops = [
            e for e in sim.tracer.select("link.drop")
            if e.detail.get("reason") == "no-receiver"
        ]
        assert len(drops) == 1

    def test_frame_in_flight_to_detached_iface_is_lost(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        a.arp["eth0"].learn(net.host(2), b.interfaces["eth0"].hw_address)
        a.send(IPPacket(src=net.host(1), dst=net.host(2), protocol=UDP))
        b.interfaces["eth0"].detach()  # detach before the latency elapses
        sim.run_until_idle()
        drops = [
            e for e in sim.tracer.select("link.drop")
            if e.detail.get("reason") == "detached"
        ]
        assert len(drops) == 1


class TestLossModel:
    def test_zero_loss_delivers_everything(self, sim):
        lan = LAN(sim, "x", loss_rate=0.0)
        net = IPNetwork("10.0.0.0/24")
        a = attach_host(sim, lan, "A", net.host(1), net)
        b = attach_host(sim, lan, "B", net.host(2), net)
        got = []
        b.register_protocol(UDP, lambda p, i: got.append(p))
        a.arp["eth0"].learn(net.host(2), b.interfaces["eth0"].hw_address)
        for _ in range(50):
            a.send(IPPacket(src=net.host(1), dst=net.host(2), protocol=UDP))
        sim.run_until_idle()
        assert len(got) == 50

    def test_full_loss_delivers_nothing(self, sim):
        lan = LAN(sim, "x", loss_rate=1.0)
        net = IPNetwork("10.0.0.0/24")
        a = attach_host(sim, lan, "A", net.host(1), net)
        b = attach_host(sim, lan, "B", net.host(2), net)
        got = []
        b.register_protocol(UDP, lambda p, i: got.append(p))
        a.arp["eth0"].learn(net.host(2), b.interfaces["eth0"].hw_address)
        for _ in range(10):
            a.send(IPPacket(src=net.host(1), dst=net.host(2), protocol=UDP))
        sim.run_until_idle()
        assert got == []

    def test_partial_loss_is_roughly_proportional(self, sim):
        lan = LAN(sim, "x", loss_rate=0.3)
        net = IPNetwork("10.0.0.0/24")
        a = attach_host(sim, lan, "A", net.host(1), net)
        b = attach_host(sim, lan, "B", net.host(2), net)
        got = []
        b.register_protocol(UDP, lambda p, i: got.append(p))
        a.arp["eth0"].learn(net.host(2), b.interfaces["eth0"].hw_address)
        for _ in range(200):
            a.send(IPPacket(src=net.host(1), dst=net.host(2), protocol=UDP))
        sim.run_until_idle()
        assert 100 <= len(got) <= 180  # ~140 expected at 30% loss


class TestPointToPoint:
    def test_at_most_two_endpoints(self, sim):
        link = PointToPointLink(sim, "p2p")
        net = IPNetwork("10.0.0.0/30")
        attach_host(sim, link, "A", net.host(1), net)
        attach_host(sim, link, "B", net.host(2), net)
        c = Host(sim, "C")
        iface = c.add_interface("eth0", "10.0.0.3", IPNetwork("10.0.0.0/24"))
        with pytest.raises(LinkError):
            iface.attach_to(link)

    def test_peer_of(self, sim):
        link = PointToPointLink(sim, "p2p")
        net = IPNetwork("10.0.0.0/30")
        a = attach_host(sim, link, "A", net.host(1), net)
        b = attach_host(sim, link, "B", net.host(2), net)
        assert link.peer_of(a.interfaces["eth0"]) is b.interfaces["eth0"]
        assert link.peer_of(b.interfaces["eth0"]) is a.interfaces["eth0"]

    def test_traffic_flows(self, sim):
        link = PointToPointLink(sim, "p2p")
        net = IPNetwork("10.0.0.0/30")
        a = attach_host(sim, link, "A", net.host(1), net)
        b = attach_host(sim, link, "B", net.host(2), net)
        replies = []
        a.on_icmp(0, lambda p, m: replies.append(m))
        a.ping(net.host(2))
        sim.run_until_idle()
        assert len(replies) == 1


class TestWirelessCell:
    def test_mobility_is_reattachment(self, sim):
        cell1 = WirelessCell(sim, "c1")
        cell2 = WirelessCell(sim, "c2")
        net = IPNetwork("10.0.0.0/24")
        roamer = attach_host(sim, cell1, "R", net.host(1), net)
        iface = roamer.interfaces["eth0"]
        assert cell1.is_attached(iface)
        iface.attach_to(cell2)
        assert not cell1.is_attached(iface)
        assert cell2.is_attached(iface)
