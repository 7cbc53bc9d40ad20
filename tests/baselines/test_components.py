"""Unit tests for baseline protocol components (formats and tables)."""

import pytest

from repro.baselines.columbia import IPIPPayload, MICP_SHIM_LEN, ipip_encapsulate
from repro.baselines.matsushita import IPTPPayload, IPTP_HEADER_LEN, iptp_encapsulate
from repro.baselines.sony_vip import (
    Binding,
    BindingCache,
    VIP_HEADER_LEN,
    VIPPayload,
)
from repro.ip.address import IPAddress
from repro.ip.packet import IPPacket, RawPayload
from repro.ip.protocols import IPIP, IPTP, UDP


def inner_packet(payload=b"data"):
    return IPPacket(src="10.0.0.1", dst="10.0.0.2", protocol=UDP,
                    payload=RawPayload(payload))


class TestIPIPFormat:
    def test_overhead_is_24_bytes(self):
        """20-byte outer IP header + 4-byte MICP shim = the paper's 24."""
        inner = inner_packet()
        outer = ipip_encapsulate(inner, IPAddress("1.1.1.1"), IPAddress("2.2.2.2"))
        assert outer.total_length - inner.total_length == 20 + MICP_SHIM_LEN == 24

    def test_outer_fields(self):
        inner = inner_packet()
        outer = ipip_encapsulate(inner, IPAddress("1.1.1.1"), IPAddress("2.2.2.2"))
        assert outer.protocol == IPIP
        assert outer.src == "1.1.1.1"
        assert outer.dst == "2.2.2.2"
        assert isinstance(outer.payload, IPIPPayload)
        assert outer.payload.inner is inner

    def test_uid_propagates_for_tracking(self):
        inner = inner_packet()
        outer = ipip_encapsulate(inner, IPAddress("1.1.1.1"), IPAddress("2.2.2.2"))
        assert outer.uid == inner.uid
        assert outer.payload.uid == inner.uid

    def test_serialization_embeds_inner(self):
        inner = inner_packet(b"zz")
        outer = ipip_encapsulate(inner, IPAddress("1.1.1.1"), IPAddress("2.2.2.2"))
        wire = outer.to_bytes()
        assert wire.endswith(inner.to_bytes())


class TestIPTPFormat:
    def test_overhead_is_40_bytes(self):
        """New IP header (20) + IPTP header (20) = the paper's 40."""
        inner = inner_packet()
        outer = iptp_encapsulate(inner, IPAddress("1.1.1.1"), IPAddress("2.2.2.2"))
        assert outer.total_length - inner.total_length == 20 + IPTP_HEADER_LEN == 40
        assert outer.protocol == IPTP

    def test_payload_length(self):
        inner = inner_packet(b"abcdef")
        payload = IPTPPayload(inner=inner)
        assert payload.byte_length == IPTP_HEADER_LEN + inner.total_length
        assert len(payload.to_bytes()) == payload.byte_length


class TestVIPFormat:
    def test_header_is_28_bytes(self):
        payload = VIPPayload(
            src_vip=IPAddress("10.1.0.1"),
            dst_vip=IPAddress("10.1.0.2"),
            version=1.5,
            inner=RawPayload(b"xyz"),
        )
        assert payload.byte_length == VIP_HEADER_LEN + 3
        wire = payload.to_bytes()
        assert len(wire) == payload.byte_length
        assert IPAddress.from_bytes(wire[0:4]) == "10.1.0.1"
        assert IPAddress.from_bytes(wire[4:8]) == "10.1.0.2"
        assert wire[-3:] == b"xyz"


class TestBindingCache:
    def test_newer_version_wins(self):
        cache = BindingCache()
        vip = IPAddress("10.1.0.1")
        cache.learn(vip, IPAddress("10.9.0.1"), version=1.0)
        cache.learn(vip, IPAddress("10.9.0.2"), version=2.0)
        assert cache.lookup(vip).physical == "10.9.0.2"

    def test_older_version_ignored(self):
        cache = BindingCache()
        vip = IPAddress("10.1.0.1")
        cache.learn(vip, IPAddress("10.9.0.2"), version=2.0)
        cache.learn(vip, IPAddress("10.9.0.1"), version=1.0)
        assert cache.lookup(vip).physical == "10.9.0.2"

    def test_purge(self):
        cache = BindingCache()
        vip = IPAddress("10.1.0.1")
        cache.learn(vip, IPAddress("10.9.0.1"), version=1.0)
        cache.purge(vip)
        assert cache.lookup(vip) is None
        assert len(cache) == 0


class TestGlobalRegistry:
    def test_registry_state_and_queries(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        from repro.baselines.sunshine_postel import (
            GlobalRegistry,
            SP_QUERY,
            SP_REGISTER,
        )
        from repro.core.registration import (
            RegistrationMessage,
            next_seq,
        )
        from repro.wire.roles import ReliableRegistrar

        registry = GlobalRegistry(b)
        registrar = ReliableRegistrar(a)
        mobile = IPAddress("9.0.0.1")
        forwarder = IPAddress("9.0.0.254")
        registrar.send(net.host(2), RegistrationMessage(
            kind=SP_REGISTER, seq=next_seq(), mobile_host=mobile, agent=forwarder,
        ))
        sim.run_until_idle()
        assert registry.entries[mobile] == forwarder
        answers = []
        registrar.send(net.host(2), RegistrationMessage(
            kind=SP_QUERY, seq=next_seq(), mobile_host=mobile,
        ), on_ack=answers.append)
        sim.run_until_idle()
        assert answers and answers[0].ok and answers[0].agent == forwarder
        # Unknown host: negative answer.
        answers2 = []
        registrar.send(net.host(2), RegistrationMessage(
            kind=SP_QUERY, seq=next_seq(), mobile_host=IPAddress("9.0.0.99"),
        ), on_ack=answers2.append)
        sim.run_until_idle()
        assert answers2 and not answers2[0].ok
        assert registry.queries_served == 2
