"""The journey index is folded on read, never on record.

:meth:`JourneyIndex.attach` makes the index a tracer reader: recording
calls nothing in it, and each query first folds the entries recorded
since the last one.  The tracer folds it before it would lose unread
entries (ring eviction, ``clear``, ``limit``), and pickling folds it.
Every way of reading must give the index an eager per-entry listener
would have built."""

import dataclasses

from repro.harness.experiments import handoff_telemetry_spec
from repro.scenario import Session
from repro.telemetry.health import ProtocolHealth
from repro.telemetry.journeys import JourneyIndex
from repro.workloads.topology import build_figure1


def _contents(index):
    """Everything a reader can observe of an index."""
    return (
        [
            (j.uid, [(s.time, s.node, s.kind, s.detail) for s in j.steps])
            for j in index.journeys()
        ],
        [index.is_complete(uid) for uid in index.uids()],
        [j.uid for j in index.in_flight()],
        index.evicted,
    )


def _spec(**changes):
    return dataclasses.replace(handoff_telemetry_spec(seed=42, duration=18.0), **changes)


#: Few enough retained journeys that the run evicts some.
_SMALL_INDEX = [{"kind": "health", "max_completed_journeys": 8}]


def test_ring_mode_index_equals_unbounded_index():
    ring = Session(_spec(trace_limit=16, instruments=_SMALL_INDEX)).run_full()
    unbounded = Session(_spec(trace_limit=None, instruments=_SMALL_INDEX)).run_full()
    tracer = ring.sim.tracer
    assert tracer.dropped > 50 * tracer.max_entries  # many ring turns
    assert ring.telemetry.index.max_completed == unbounded.telemetry.index.max_completed
    # The first read of all, and one that is not a journey query.
    assert ring.telemetry.index.evicted == unbounded.telemetry.index.evicted > 0
    assert _contents(ring.telemetry.index) == _contents(unbounded.telemetry.index)


def test_ring_mode_folds_once_per_ring_not_per_record():
    session = Session(_spec(trace_limit=16))
    folds = []
    index = session.telemetry.index
    tracer = session.sim.tracer
    tracer.remove_reader(index.fold)
    tracer.add_reader(lambda: folds.append(None) or index.fold())
    session.run_full()
    recorded = tracer.first_recorded + len(tracer.entries)
    assert 0 < len(folds) <= recorded // tracer.max_entries + 1


def _figure1(hub):
    topo = build_figure1(seed=42)
    nodes = [topo.s, topo.r1, topo.r2, topo.r3, topo.r4, topo.r5, topo.m]
    topo.sim.attach(hub, nodes=nodes)
    topo.m.attach_home(topo.net_b)
    topo.sim.run(until=5.0)
    topo.m.attach(topo.net_d)
    topo.sim.run(until=12.0)
    topo.s.ping(topo.m.home_address)
    topo.sim.run(until=16.0)
    return topo


def _more(topo):
    topo.m.attach(topo.net_e)
    topo.sim.run(until=24.0)
    topo.s.ping(topo.m.home_address)
    topo.sim.run(until=28.0)


def test_reads_after_unbind_hold_what_was_recorded_while_bound():
    hub = ProtocolHealth(max_completed_journeys=8)
    topo = _figure1(hub)
    sim = topo.sim
    bound = list(sim.tracer.entries)
    sim.detach(hub)
    assert sim.tracer._readers == []
    _more(topo)
    assert len(sim.tracer.entries) > len(bound)
    expected = JourneyIndex.from_entries(bound, max_completed=8)
    assert _contents(hub.index) == _contents(expected)
    assert hub.index.uids()


def test_reads_after_clear_keep_the_cleared_entries():
    hub = ProtocolHealth(max_completed_journeys=None)
    topo = _figure1(hub)
    sim = topo.sim
    before = list(sim.tracer.entries)
    sim.tracer.clear()
    _more(topo)
    after = list(sim.tracer.entries)
    assert before and after
    expected = JourneyIndex.from_entries(before + after)
    assert _contents(hub.index) == _contents(expected)
    # A second clear after a read, and a read with nothing new.
    sim.tracer.clear()
    assert _contents(hub.index) == _contents(expected)


def test_limit_folds_before_it_truncates():
    hub = ProtocolHealth(max_completed_journeys=None)
    topo = _figure1(hub)
    everything = list(topo.sim.tracer.entries)
    topo.sim.tracer.limit(4)
    assert _contents(hub.index) == _contents(JourneyIndex.from_entries(everything))


def test_fork_index_equals_cold_index():
    spec = _spec()
    snapshot = Session(spec).run_to_checkpoint().snapshot()
    fork = snapshot.fork()
    fork.install_tail()
    fork.run()
    cold = Session(spec).run_full()
    assert _contents(fork.telemetry.index) == _contents(cold.telemetry.index)
    assert fork.telemetry.index.uids()


def test_every_read_folds_first():
    from repro.netsim.trace import Tracer

    tracer = Tracer()
    index = JourneyIndex(max_completed=1).attach(tracer)
    for uid in (1, 2, 3):
        tracer.record(0.0, "ip.send", "S", uid=uid)
        tracer.record(0.1, "ip.deliver", "M", uid=uid)
    assert index.evicted == 2
    tracer.record(0.2, "ip.send", "S", uid=4)
    assert len(index) == 2
    tracer.record(0.3, "ip.drop", "R", uid=4)
    assert index.is_complete(4)
