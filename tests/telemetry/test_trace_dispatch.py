"""How many listener calls one trace record costs, counted on the
Figure-1 walkthrough — a machine-independent gate on the fan-out and
on the per-record work (packet formatting, detail dicts).

The health hub subscribes to ``ProtocolHealth.TRACE_CATEGORIES``, and its
journey index folds the journey categories when it is read; if either is
re-widened to every category, these counts move and the test fails."""

from repro.ip.packet import IPPacket, PacketStamp
from repro.netsim.trace import Tracer
from repro.telemetry.health import ProtocolHealth
from repro.telemetry.journeys import JourneyIndex
from repro.workloads.topology import build_figure1, drive_figure1

_JOURNEY_CATEGORIES = {"ip.send", "ip.forward", "ip.deliver", "ip.drop", "mhrp.tunnel"}


class _CountingIndex(JourneyIndex):
    def __init__(self):
        super().__init__()
        self.observed = []

    def observe(self, entry):
        self.observed.append(entry)
        super().observe(entry)


class _CountingHealth(ProtocolHealth):
    def __init__(self):
        super().__init__()
        self.index = _CountingIndex()
        self.traced = []

    def _on_trace(self, entry):
        self.traced.append(entry)
        super()._on_trace(entry)


def _walkthrough():
    topo = build_figure1(seed=42)
    sim = topo.sim
    built = len(sim.tracer.entries)  # advertisements recorded while building
    nodes = [topo.s, topo.r1, topo.r2, topo.r3, topo.r4, topo.r5, topo.m]
    hub = sim.attach(_CountingHealth(), nodes=nodes)
    drive_figure1(topo)
    return sim, hub, built


def _ids(entries):
    return [id(e) for e in entries]


def test_health_listener_runs_once_per_tunnel_or_loop_entry():
    sim, hub, built = _walkthrough()
    streamed = list(sim.tracer.entries)[built:]
    wanted = [e for e in streamed if e.category in ProtocolHealth.TRACE_CATEGORIES]
    assert any(e.category == "mhrp.tunnel" for e in wanted)
    assert _ids(hub.traced) == _ids(wanted)
    assert len(hub.traced) < len(streamed)


def test_journey_index_observes_only_journey_categories():
    sim, hub, built = _walkthrough()
    observed = hub.index.observed
    assert observed == []  # recording calls nothing in the index
    # The first read folds everything stored, the build-time entries
    # included, in record order; a second read folds nothing again.
    assert len(hub.index) > 0
    hub.index.uids()
    entries = list(sim.tracer.entries)
    wanted = [e for e in entries if e.category in _JOURNEY_CATEGORIES]
    assert _ids(observed) == _ids(wanted)
    assert len(wanted) < len(entries)
    assert built > 0
    # Entries recorded after a read are folded by the next one, once.
    sim.trace("arp", "S", uid=1)
    sim.trace("ip.send", "S", uid=1)
    sim.trace("mhrp.update", "S", uid=1)
    hub.index.journeys()
    hub.index.journey(1)
    assert _ids(observed) == _ids(
        wanted + [e for e in sim.tracer.entries if e.category == "ip.send"][-1:]
    )


def test_streamed_index_equals_post_hoc_index():
    sim, hub, _ = _walkthrough()
    post_hoc = JourneyIndex.from_entries(sim.tracer.entries)
    assert hub.index.uids() == post_hoc.uids()
    assert hub.index.uids(), "walkthrough produced no journeys"
    for uid in post_hoc.uids():
        assert hub.index.journey(uid) == post_hoc.journey(uid), uid
        assert hub.index.is_complete(uid) == post_hoc.is_complete(uid), uid


def test_detached_walkthrough_formats_no_packet_and_packs_one_dict_per_record(
    monkeypatch,
):
    """Trace records stamp packets instead of formatting them, and the
    dict ``Simulator.trace`` packs is the one the entry stores."""
    reprs = []
    original_repr = IPPacket.__repr__
    monkeypatch.setattr(
        IPPacket, "__repr__", lambda self: reprs.append(self) or original_repr(self)
    )
    passed = []
    original_record = Tracer.record

    def record(self, time, category, node, detail=None, /, **fields):
        passed.append(detail)
        original_record(self, time, category, node, detail, **fields)

    monkeypatch.setattr(Tracer, "record", record)
    topo = build_figure1(seed=42)
    drive_figure1(topo)
    entries = list(topo.sim.tracer.entries)
    assert reprs == []
    assert any(isinstance(e.detail.get("packet"), PacketStamp) for e in entries)
    assert len(passed) == len(entries)
    assert all(e.detail is detail for e, detail in zip(entries, passed))
