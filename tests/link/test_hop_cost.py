"""What one simulated hop costs, counted on the detached Figure-1
walkthrough — a machine-independent gate on the per-hop work: one
``total_length`` per hop, one stamp per unicast frame, and no ``Event``
per frame delivery.

If a hop goes back to computing the packet length in every stage, to
stamping the packet again when the frame arrives, or to scheduling its
deliveries through ``Simulator.schedule``, these tests fail.  So do they
if a role changes a unicast packet while its frame is in flight, which
would make the shared ``link.rx`` stamp stale."""

import pytest

from repro.baselines.columbia import ColumbiaScenario
from repro.baselines.ibm_lsrr import IBMLSRRScenario
from repro.baselines.matsushita import MatsushitaScenario
from repro.baselines.mhrp_scenario import MHRPScenario
from repro.baselines.sony_vip import SonyVIPScenario
from repro.baselines.sunshine_postel import SunshinePostelScenario
from repro.ip.packet import IPPacket, PacketStamp
from repro.ip.protocols import MHRP
from repro.link.interface import NetworkInterface
from repro.link.medium import Medium
from repro.netsim.events import Event
from repro.workloads.topology import build_figure1, drive_figure1

#: ``IPPacket.total_length`` reads on the walkthrough.  It was 394 when
#: the MTU check, the frame size and the ``link.rx`` stamp each computed
#: the length again.
TOTAL_LENGTH_CALLS = 226


def test_unicast_rx_reuses_the_tx_stamp_and_broadcast_receivers_stamp_their_own(
    monkeypatch,
):
    broadcast = []
    original_receive = NetworkInterface.receive_frame

    def receive_frame(self, frame):
        broadcast.append(frame.is_broadcast)
        original_receive(self, frame)

    # Every ``link.rx`` record is followed by exactly one receive_frame.
    monkeypatch.setattr(NetworkInterface, "receive_frame", receive_frame)
    topo = build_figure1(seed=42)
    drive_figure1(topo)
    entries = list(topo.sim.tracer.entries)
    tx_by_id = {id(e.detail["frame"]): e for e in entries if e.category == "link.tx"}
    rx = [e for e in entries if e.category == "link.rx"]
    assert len(rx) == len(broadcast)

    unicast = [e for e, is_bcast in zip(rx, broadcast) if not is_bcast]
    for entry in unicast:
        tx = tx_by_id.get(id(entry.detail["frame"]))
        assert tx is not None, entry
        assert tx.detail["medium"] == entry.detail["medium"]
    assert any(isinstance(e.detail["frame"], PacketStamp) for e in unicast)

    stamped = [
        e.detail["frame"]
        for e, is_bcast in zip(rx, broadcast)
        if is_bcast and isinstance(e.detail["frame"], PacketStamp)
    ]
    assert len(stamped) >= 2, "walkthrough received no broadcast IP frames"
    assert all(id(stamp) not in tx_by_id for stamp in stamped)
    assert len({id(stamp) for stamp in stamped}) == len(stamped)


@pytest.mark.parametrize(
    "scenario_cls",
    [
        MHRPScenario,
        SunshinePostelScenario,
        ColumbiaScenario,
        SonyVIPScenario,
        MatsushitaScenario,
        IBMLSRRScenario,
    ],
)
def test_shared_rx_stamp_equals_a_fresh_stamp_at_delivery(monkeypatch, scenario_cls):
    """Sharing the ``link.tx`` stamp is only right while nothing changes a
    unicast packet between transmit and delivery.  Every comparison
    protocol retunnels, rewrites or source-routes packets in place across
    handoffs; each shared stamp must still read as the packet does when
    it arrives."""
    shared = []
    original_deliver = Medium._deliver

    def deliver(self, target, frame, stamp=None):
        if stamp is not None and self.is_attached(target):
            payload = frame.payload
            stamper = getattr(payload, "stamp", None)
            fresh = repr(payload) if stamper is None else stamper()
            assert stamp == fresh, (self.name, target.node_name)
            # Packets change in place after delivery (a foreign agent
            # decapsulates), so note the protocol as the frame arrives.
            shared.append((payload, getattr(payload, "protocol", None)))
        original_deliver(self, target, frame, stamp)

    monkeypatch.setattr(Medium, "_deliver", deliver)
    scenario = scenario_cls(n_cells=3)
    for cell in (0, 1, 2):
        scenario.move_to_cell(cell)
        scenario.settle()
        if hasattr(scenario, "prime"):
            scenario.prime()
            scenario.settle(3.0)
        for _ in range(2):
            scenario.send_packet()
            scenario.settle(3.0)
    assert scenario.stats.packets_delivered > 0
    packets = [p for p, _ in shared if isinstance(p, IPPacket)]
    assert packets, "no unicast IP frame shared its stamp"
    if scenario_cls is MHRPScenario:
        assert any(protocol == MHRP for _, protocol in shared)
    if scenario_cls in (SunshinePostelScenario, IBMLSRRScenario):
        assert any(p.find_lsrr() is not None for p in packets)


def test_no_pending_frame_delivery_is_an_event(monkeypatch):
    delivery_funcs = {Medium._deliver, Medium._deliver_batch}
    seen = []
    original_transmit = Medium.transmit

    def transmit(self, sender, frame, *size):
        original_transmit(self, sender, frame, *size)
        for _, _, payload in self.sim.queue._heap:
            action = payload.action if payload.__class__ is Event else payload
            func = getattr(getattr(action, "func", None), "__func__", None)
            if func in delivery_funcs:
                seen.append(payload.__class__ is Event)

    monkeypatch.setattr(Medium, "transmit", transmit)
    drive_figure1(build_figure1(seed=42))
    assert seen, "no frame delivery was ever pending"
    assert not any(seen)


def test_walkthrough_computes_each_packet_length_once_per_hop(monkeypatch):
    calls = []
    original = IPPacket.total_length

    def total_length(self):
        calls.append(self.uid)
        return original.fget(self)

    monkeypatch.setattr(IPPacket, "total_length", property(total_length))
    drive_figure1(build_figure1(seed=42))
    assert len(calls) == TOTAL_LENGTH_CALLS
