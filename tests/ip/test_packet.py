"""Unit tests for IP packets, options, and serialization."""

import pytest

from repro.errors import PacketError
from repro.ip.address import IPAddress
from repro.ip.checksum import verify_checksum
from repro.ip.options import (
    OPT_LSRR,
    IPOption,
    LSRROption,
    OPT_NOP,
    options_byte_length,
    serialize_options,
)
from repro.ip.packet import BASE_HEADER_LEN, IPPacket, RawPayload
from repro.ip.protocols import TCP, UDP


def make_packet(**kwargs):
    defaults = dict(
        src=IPAddress("10.0.0.1"),
        dst=IPAddress("10.0.0.2"),
        protocol=UDP,
        payload=RawPayload(b"hello"),
    )
    defaults.update(kwargs)
    return IPPacket(**defaults)


class TestRawPayload:
    def test_of_size(self):
        payload = RawPayload.of_size(10)
        assert payload.byte_length == 10
        assert len(payload.to_bytes()) == 10

    def test_of_size_zero(self):
        assert RawPayload.of_size(0).byte_length == 0

    def test_of_size_negative_rejected(self):
        with pytest.raises(PacketError):
            RawPayload.of_size(-1)


class TestIPPacketBasics:
    def test_lengths(self):
        packet = make_packet()
        assert packet.header_length == BASE_HEADER_LEN
        assert packet.total_length == BASE_HEADER_LEN + 5

    def test_string_addresses_coerced(self):
        packet = IPPacket(src="10.0.0.1", dst="10.0.0.2", protocol=UDP)
        assert isinstance(packet.src, IPAddress)

    def test_rejects_bad_protocol(self):
        with pytest.raises(PacketError):
            make_packet(protocol=256)

    def test_rejects_bad_ttl(self):
        with pytest.raises(PacketError):
            make_packet(ttl=-1)

    def test_uids_are_unique_and_preserved_by_copy(self):
        from repro.netsim.simulator import Simulator

        sim = Simulator()
        p1, p2 = make_packet(uid=sim.next_uid()), make_packet(uid=sim.next_uid())
        assert (p1.uid, p2.uid) == (1, 2)
        assert make_packet().uid == 0  # built outside any world
        assert p1.copy().uid == p1.uid

    def test_copy_is_independent_for_header_fields(self):
        p = make_packet()
        c = p.copy()
        c.ttl = 1
        c.dst = IPAddress("9.9.9.9")
        assert p.ttl != 1
        assert p.dst == "10.0.0.2"


class TestSerialization:
    def test_wire_format_fields(self):
        packet = make_packet(ttl=17, tos=0x10, identification=0xBEEF, protocol=TCP)
        wire = packet.to_bytes()
        assert len(wire) == packet.total_length
        assert wire[0] == (4 << 4) | 5  # version 4, IHL 5 words
        assert wire[1] == 0x10
        assert int.from_bytes(wire[2:4], "big") == packet.total_length
        assert int.from_bytes(wire[4:6], "big") == 0xBEEF
        assert wire[8] == 17
        assert wire[9] == TCP
        assert IPAddress.from_bytes(wire[12:16]) == packet.src
        assert IPAddress.from_bytes(wire[16:20]) == packet.dst
        assert wire[20:] == b"hello"

    def test_header_checksum_verifies(self):
        packet = make_packet()
        wire = packet.to_bytes()
        assert verify_checksum(wire[:packet.header_length])

    def test_options_increase_ihl(self):
        lsrr = LSRROption(route=[IPAddress("1.1.1.1")])
        packet = make_packet(options=[lsrr])
        wire = packet.to_bytes()
        assert packet.header_length == BASE_HEADER_LEN + 8  # 7 bytes padded to 8
        assert wire[0] & 0x0F == packet.header_length // 4


class TestOptions:
    def test_single_byte_options(self):
        assert IPOption(OPT_NOP).to_bytes() == b"\x01"
        assert IPOption(OPT_NOP).byte_length == 1

    def test_tlv_option(self):
        opt = IPOption(kind=0x44, data=b"\x01\x02")
        assert opt.to_bytes() == bytes([0x44, 4, 1, 2])

    def test_padding_to_word_boundary(self):
        opts = [IPOption(OPT_NOP)]
        assert options_byte_length(opts) == 4
        assert len(serialize_options(opts)) == 4


class TestLSRR:
    def make(self):
        return LSRROption(
            route=[IPAddress("1.0.0.1"), IPAddress("2.0.0.2")], pointer=4
        )

    def test_byte_layout(self):
        opt = self.make()
        wire = opt.to_bytes()
        assert wire[0] == OPT_LSRR
        assert wire[1] == 11  # 3 + 4*2
        assert wire[2] == 4
        assert IPAddress.from_bytes(wire[3:7]) == "1.0.0.1"

    def test_round_trip(self):
        opt = self.make()
        opt.pointer = 8
        parsed = LSRROption.from_bytes(opt.to_bytes())
        assert parsed.route == opt.route
        assert parsed.pointer == 8

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(PacketError):
            LSRROption.from_bytes(b"\x01\x02\x03")
        good = self.make().to_bytes()
        with pytest.raises(PacketError):
            LSRROption.from_bytes(good[:-1])  # truncated

    def test_advance_consumes_and_records(self):
        opt = self.make()
        me = IPAddress("9.9.9.9")
        hop = opt.advance(recorded=me)
        assert hop == "1.0.0.1"
        assert opt.route[0] == me
        assert opt.pointer == 8
        assert not opt.exhausted

    def test_exhaustion(self):
        opt = self.make()
        opt.advance(IPAddress("9.9.9.1"))
        opt.advance(IPAddress("9.9.9.2"))
        assert opt.exhausted
        with pytest.raises(PacketError):
            opt.next_hop()

    def test_reversed_route(self):
        opt = self.make()
        assert [str(a) for a in opt.reversed_route()] == ["2.0.0.2", "1.0.0.1"]

    def test_find_lsrr_on_packet(self):
        opt = self.make()
        packet = make_packet(options=[opt])
        assert packet.find_lsrr() is opt
        assert make_packet().find_lsrr() is None

    def test_copy_independent(self):
        opt = self.make()
        dup = opt.copy()
        dup.advance(IPAddress("9.9.9.9"))
        assert opt.pointer == 4
