"""The stretch baseline follows the wiring, however it changes.

:meth:`ProtocolHealth._shortest_hops` memoizes one BFS per origin until
an interface attaches or detaches.  A mobile host that moves through
its own protocol tells the hub (``mh_moved``); a bare
``iface.attach_to``/``detach`` — the baselines' mobility and a
partition handing a host away — does not, and the distances must
follow it all the same."""

from repro.telemetry.health import ProtocolHealth
from repro.workloads.topology import build_figure1


def _figure1_hub():
    topo = build_figure1(seed=42)
    nodes = [topo.s, topo.r1, topo.r2, topo.r3, topo.r4, topo.r5, topo.m]
    hub = topo.sim.attach(ProtocolHealth(), nodes=nodes)
    topo.m.attach_home(topo.net_b)
    topo.m.attach(topo.net_d)
    topo.sim.run(until=5.0)
    return topo, hub


def test_direct_attach_moves_the_baseline():
    topo, hub = _figure1_hub()
    assert hub._shortest_hops("S", "M") == 4
    topo.m.iface.attach_to(topo.net_b)  # no mh_moved: the hub is not told
    assert hub._shortest_hops("S", "M") == 3
    assert hub._shortest_hops("M", "S") == 3


def test_direct_detach_makes_the_host_unreachable():
    topo, hub = _figure1_hub()
    assert hub._shortest_hops("S", "M") == 4
    topo.m.iface.detach()
    assert hub._shortest_hops("S", "M") is None
    assert hub._shortest_hops("M", "S") is None


def test_wiring_counter_is_a_cache_key_not_state():
    topo, _ = _figure1_hub()
    sim = topo.sim
    before = sim.wiring
    topo.m.iface.attach_to(topo.net_e)
    assert sim.wiring == before + 2  # a detach, then an attach
    state = sim.state_dict()
    sim.wiring += 1
    assert sim.state_dict() == state


def test_baseline_counts_only_the_attached_nodes():
    """Nodes left out of ``nodes=`` are neither endpoints nor transit."""
    topo = build_figure1(seed=42)
    hub = topo.sim.attach(ProtocolHealth(), nodes=[topo.s, topo.m])
    topo.m.attach_home(topo.net_b)
    assert hub._shortest_hops("S", "M") is None
    assert hub._shortest_hops("S", "R1") is None
