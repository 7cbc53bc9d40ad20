"""PacketStamp: trace records capture a packet's text fields when they are
recorded and keep them, however the packet changes afterwards."""

import copy
import pickle

from repro.core.encapsulation import encapsulate, retunnel
from repro.ip.address import IPAddress
from repro.ip.options import LSRROption
from repro.ip.packet import IPPacket, PacketStamp, RawPayload
from repro.ip.protocols import UDP
from repro.link.frame import FRAME_OVERHEAD
from repro.netsim import Simulator


def make_packet(**kwargs):
    defaults = dict(
        src=IPAddress("10.0.0.1"),
        dst=IPAddress("10.0.0.2"),
        protocol=UDP,
        payload=RawPayload(b"hello"),
    )
    defaults.update(kwargs)
    return IPPacket(**defaults)


def test_recorded_text_survives_in_place_mutation():
    sim = Simulator()
    packet = encapsulate(make_packet(), IPAddress("10.9.0.1"), IPAddress("10.8.0.1"))
    sim.trace("ip.forward", "R", packet=packet.stamp(), uid=packet.uid)
    recorded = str(packet.stamp())

    retunnel(packet, IPAddress("10.7.0.1"), IPAddress("10.9.0.1"))
    packet.options.append(LSRROption(route=[IPAddress("10.6.0.1")]))
    packet.ttl -= 1

    (entry,) = sim.tracer.entries
    assert str(entry.detail["packet"]) == recorded
    assert repr(packet) != recorded


def test_str_is_packet_repr_with_options():
    packet = make_packet(options=[LSRROption(route=[IPAddress("10.6.0.1")])], ttl=9)
    stamp = packet.stamp()
    assert str(stamp) == repr(packet)
    assert "len=33" in str(stamp)  # 20 + 8 (option, padded) + 5
    assert (stamp.uid, stamp.src, stamp.dst, stamp.ttl, stamp.length) == (
        packet.uid, packet.src, packet.dst, 9, 33
    )


def test_repr_is_the_text_repr():
    stamp = make_packet().stamp()
    assert repr(stamp) == repr(str(stamp))
    assert repr({"packet": stamp}) == repr({"packet": str(stamp)})


def test_deepcopy_shares_and_pickle_round_trips():
    stamp = make_packet().stamp()
    assert copy.deepcopy(stamp) is stamp
    assert copy.copy(stamp) is stamp
    clone = pickle.loads(pickle.dumps(stamp))
    assert clone == stamp and hash(clone) == hash(stamp)
    assert str(clone) == str(stamp)


def test_link_tx_stamps_ip_frames_and_keeps_arp_text(two_hosts_one_lan):
    sim, lan, a, b, net = two_hosts_one_lan
    a.ping(net.host(2))
    sim.run_until_idle()
    sent = sim.tracer.select("link.tx")
    arp = [e.detail["frame"] for e in sent if e.detail["uid"] is None]
    ip = [e for e in sent if e.detail["uid"] is not None]
    assert arp and all(isinstance(text, str) and text.startswith("<ARP") for text in arp)
    assert ip
    for entry in ip:
        stamp = entry.detail["frame"]
        assert isinstance(stamp, PacketStamp)
        assert entry.detail["bytes"] == stamp.length + FRAME_OVERHEAD
