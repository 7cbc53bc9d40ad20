"""Unit tests for hardware addresses and frames."""

import pytest

from repro.ip.packet import IPPacket, RawPayload
from repro.link.frame import (
    ETHERTYPE_IP,
    FRAME_OVERHEAD,
    Frame,
    HWAddress,
)
from repro.netsim.simulator import Simulator


class TestHWAddress:
    def test_allocate_is_unique(self):
        sim = Simulator()
        addrs = {HWAddress.allocate(sim) for _ in range(100)}
        assert len(addrs) == 100
        # Each world counts from 1 on its own.
        assert HWAddress.allocate(Simulator()) == HWAddress.allocate(Simulator())

    def test_allocated_is_unicast(self):
        assert not HWAddress.allocate(Simulator()).is_broadcast

    def test_broadcast(self):
        b = HWAddress.broadcast()
        assert b.is_broadcast
        assert str(b) == "ff:ff:ff:ff:ff:ff"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            HWAddress(1 << 48)
        with pytest.raises(ValueError):
            HWAddress(-1)

    def test_string_format(self):
        assert str(HWAddress(0x020000000001)) == "02:00:00:00:00:01"

    def test_equality_and_hash(self):
        assert HWAddress(5) == HWAddress(5)
        assert HWAddress(5) != HWAddress(6)
        assert len({HWAddress(5), HWAddress(5)}) == 1

    def test_ordering(self):
        assert HWAddress(1) < HWAddress(2)


class TestFrame:
    def make(self, dst=None):
        packet = IPPacket(src="10.0.0.1", dst="10.0.0.2", protocol=17,
                          payload=RawPayload(b"abcd"))
        sim = Simulator()
        return Frame(
            src=HWAddress.allocate(sim),
            dst=dst or HWAddress.allocate(sim),
            ethertype=ETHERTYPE_IP,
            payload=packet,
        ), packet

    def test_byte_length_includes_framing(self):
        frame, packet = self.make()
        assert frame.byte_length == packet.total_length + FRAME_OVERHEAD

    def test_broadcast_detection(self):
        frame, _ = self.make(dst=HWAddress.broadcast())
        assert frame.is_broadcast
        frame2, _ = self.make()
        assert not frame2.is_broadcast

    def test_byte_length_for_non_packet_payload(self):
        from repro.ip.arp import ARPMessage, ARP_REQUEST
        from repro.ip.address import IPAddress
        from repro.link.frame import ETHERTYPE_ARP

        hw = HWAddress.allocate(Simulator())
        message = ARPMessage(
            op=ARP_REQUEST,
            sender_hw=hw,
            sender_ip=IPAddress("10.0.0.1"),
            target_ip=IPAddress("10.0.0.2"),
        )
        frame = Frame(
            src=hw, dst=HWAddress.broadcast(),
            ethertype=ETHERTYPE_ARP, payload=message,
        )
        assert frame.byte_length == 28 + FRAME_OVERHEAD
