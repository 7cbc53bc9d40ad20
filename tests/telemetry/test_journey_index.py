"""The streaming journey index: equivalence with post-hoc reconstruction
(:meth:`JourneyIndex.from_entries` over the recorded trace) on the
golden Figure-1 scenario, plus eviction bounds."""

from repro.netsim.trace import TraceEntry
from repro.telemetry.journeys import JourneyIndex

from tests.core.test_golden_trace import run_figure1_scenario


def _steps_as_tuples(journey):
    return [(s.time, s.node, s.kind, s.detail) for s in journey.steps]


_JOURNEY_CATEGORIES = {"ip.send", "ip.forward", "ip.deliver", "ip.drop", "mhrp.tunnel"}


def _all_uids(sim):
    """uids with at least one journey-relevant event, first-seen order
    (link.tx/link.rx frames also carry uids but contribute no steps)."""
    seen, uids = set(), []
    for entry in sim.tracer.entries:
        uid = entry.detail.get("uid")
        if (
            uid is not None
            and uid not in seen
            and entry.category in _JOURNEY_CATEGORIES
        ):
            seen.add(uid)
            uids.append(uid)
    return uids


def test_live_index_matches_post_hoc_index_on_figure1():
    """Attach the index as a live listener *before* the scenario runs;
    every journey must equal what a post-hoc pass over the trace builds,
    from the whole trace and from the entries of that uid alone."""
    from repro.workloads.topology import build_figure1

    topo = build_figure1(seed=42)
    sim, s, m = topo.sim, topo.s, topo.m
    live = JourneyIndex().attach(sim.tracer)
    m.attach_home(topo.net_b)
    sim.run(until=5.0)
    m.attach(topo.net_d)
    sim.run(until=12.0)
    s.ping(m.home_address)
    sim.run(until=16.0)
    m.attach(topo.net_e)
    sim.run(until=24.0)
    s.ping(m.home_address)
    sim.run(until=28.0)

    uids = _all_uids(sim)
    assert uids, "scenario produced no uid-stamped trace entries"
    post_hoc = JourneyIndex.from_entries(sim.tracer.entries)
    assert sorted(live.uids()) == sorted(uids) == sorted(post_hoc.uids())
    for uid in uids:
        alone = JourneyIndex.from_entries(
            e for e in sim.tracer.entries if e.detail.get("uid") == uid
        )
        expected = _steps_as_tuples(live.journey(uid))
        assert _steps_as_tuples(post_hoc.journey(uid)) == expected, (
            f"live index diverges from post-hoc reconstruction for uid {uid}"
        )
        assert _steps_as_tuples(alone.journey(uid)) == expected


def test_post_hoc_index_on_golden_scenario():
    """A post-hoc index over the golden-trace scenario keeps first-seen
    order, time-ordered steps, and the tunnelled/delivered journeys."""
    sim = run_figure1_scenario()
    index = JourneyIndex.from_entries(sim.tracer.entries)
    uids = _all_uids(sim)

    # First-seen order is preserved by matching().
    everything = index.matching(lambda j: True)
    assert [j.uid for j in everything] == uids == index.uids()

    for uid in uids:
        journey = index.journey(uid)
        assert journey.uid == uid
        # Steps come out time-ordered (trace order).
        times = [s.time for s in journey.steps]
        assert times == sorted(times)

    tunneled = index.matching(lambda j: j.was_tunneled)
    assert tunneled, "Figure-1 must tunnel at least one packet"
    assert all(j.was_tunneled for j in tunneled)
    delivered_at_m = index.matching(lambda j: j.delivered_at == "M")
    assert delivered_at_m, "packets must reach the mobile host"

    # Unknown uid: no journey, not an exception.
    assert index.journey(10**9) is None


def _entry(t, category, node, **detail):
    return TraceEntry(time=t, category=category, node=node, detail=detail)


def test_eviction_bounds_completed_journeys():
    index = JourneyIndex(max_completed=5)
    for uid in range(20):
        index.observe(_entry(uid + 0.0, "ip.send", "A", uid=uid))
        index.observe(_entry(uid + 0.5, "ip.deliver", "B", uid=uid))
    assert len(index) == 5
    assert index.evicted == 15
    # The newest completed journeys survive.
    assert index.uids() == list(range(15, 20))


def test_in_flight_journeys_are_never_evicted():
    index = JourneyIndex(max_completed=2)
    for uid in range(10):
        index.observe(_entry(uid + 0.0, "ip.send", "A", uid=uid))  # never completes
    for uid in range(100, 110):
        index.observe(_entry(uid + 0.0, "ip.send", "A", uid=uid))
        index.observe(_entry(uid + 0.5, "ip.drop", "R", uid=uid, reason="no-route"))
    assert len(index.in_flight()) == 10
    assert sorted(j.uid for j in index.in_flight()) == list(range(10))
    assert len(index) == 12  # 10 in flight + max_completed


def test_delivery_reopens_journey_on_further_events():
    """An MHRP tunnel-endpoint delivery is not the end of the logical
    packet: later events must re-open the journey."""
    index = JourneyIndex(max_completed=1)
    index.observe(_entry(0.0, "ip.send", "S", uid=7))
    index.observe(_entry(0.2, "ip.deliver", "FA", uid=7))   # tunnel endpoint
    assert index.is_complete(7)
    index.observe(_entry(0.3, "mhrp.tunnel", "FA", uid=7, event="fa-deliver"))
    assert not index.is_complete(7)
    index.observe(_entry(0.4, "ip.deliver", "M", uid=7))    # the real delivery
    assert index.is_complete(7)
    assert [s.kind for s in index.journey(7).steps] == [
        "send", "deliver", "mhrp:fa-deliver", "deliver"
    ]


def test_max_completed_validation():
    import pytest

    with pytest.raises(ValueError):
        JourneyIndex(max_completed=0)


def test_entries_without_uid_are_ignored():
    index = JourneyIndex()
    index.observe(_entry(0.0, "mhrp.update", "R", event="sent"))
    index.observe(_entry(0.1, "arp", "R"))
    assert len(index) == 0
    assert index.entries_seen == 2
