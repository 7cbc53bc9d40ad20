"""Registration sequence numbers are 16 bits on the wire and wrap.

Each mobile host allocates its own: 65 535 is followed by 1 (zero is
skipped), and the agents' stale filter orders one host's numbers by
RFC 1982 serial arithmetic.  A host whose numbers cross the wrap must
register and deliver exactly like a cold one, and so must a host whose
two registrations the rest of the world separates by more than half the
number space, on the simulator and on the engine.
"""

import pytest

from repro import backend
from repro.core import registration
from repro.core.mobile_host import MobileHost
from repro.core.registration import (
    RegistrationMessage,
    SeqAllocator,
    StaleControlFilter,
    wrap16,
)
from repro.ip.address import IPAddress
from repro.wire.conformance import (
    fuzz_conformance_specs,
    health_fingerprint,
    project_events,
)
from repro.wire.engine import MobileHostEngine

#: The first sequence number of a warm host; its registrations cross
#: the wrap.
WRAP_FROM = 65530

#: More allocations than half the 16-bit number space.
BURST = 50000

HOST_CLASSES = {"sim": MobileHost, "engine": MobileHostEngine}


def _spec():
    """Two hosts, each registering three times: host 0 at t = 0.2, 2
    and 7, host 1 at t = 0.3, 4 and 10."""
    spec = next(
        s for s in fuzz_conformance_specs() if s.name == "fuzz-conformance-1101"
    )
    spec.instruments = [{"kind": "health"}]
    return spec


def _events(result):
    if result.backend == "sim":
        return result.trace.entries
    return (event for _, event in result.trace)


def _observe(backend_name: str):
    result = backend.run(_spec(), backend=backend_name)
    return project_events(_events(result)), health_fingerprint(result.health)


def test_allocator_wraps_and_skips_zero():
    assert [wrap16(n) for n in (1, 65535, 65536, 65537)] == [1, 65535, 1, 2]
    alloc = SeqAllocator(WRAP_FROM - 1)
    assert [alloc() for _ in range(8)] == [
        65530, 65531, 65532, 65533, 65534, 65535, 1, 2,
    ]


@pytest.mark.parametrize("backend_name", sorted(HOST_CLASSES))
def test_every_mobile_host_owns_its_allocator(backend_name):
    result = backend.run(_spec(), backend=backend_name, until=0.0)
    if backend_name == "sim":
        hosts = result.detail.world.mobile_hosts
    else:
        topo = result.detail.topo
        hosts = [topo.mobile_host(i) for i in range(len(topo.mobile_hosts))]
    first, second = (host.next_seq for host in hosts)
    assert first is not second
    assert [first(), first(), second()] == [1, 2, 1]


def _message(seq: int, host: str = "10.1.0.1") -> RegistrationMessage:
    return RegistrationMessage(kind=registration.HA_REGISTER, seq=seq,
                               mobile_host=IPAddress(host))


def test_stale_filter_orders_across_the_wrap():
    flt = StaleControlFilter()
    assert not flt.is_stale(_message(65535))
    assert not flt.is_stale(_message(1))       # newer, across the wrap
    assert flt.is_stale(_message(65534))       # older, across the wrap
    assert not flt.is_stale(_message(1))       # a retransmission


def test_a_host_with_no_high_water_mark_is_never_stale():
    flt = StaleControlFilter()
    assert not flt.is_stale(_message(40000, "10.1.0.7"))
    assert not flt.is_stale(_message(1, "10.1.0.8"))


@pytest.mark.parametrize("backend_name", sorted(HOST_CLASSES))
def test_registration_across_the_wrap_matches_a_cold_start(monkeypatch, backend_name):
    cold = _observe(backend_name)
    host_class = HOST_CLASSES[backend_name]
    init = host_class.__init__
    allocators = []

    def warm_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        self.next_seq = SeqAllocator(WRAP_FROM - 1)
        allocators.append(self.next_seq)

    monkeypatch.setattr(host_class, "__init__", warm_init)
    assert _observe(backend_name) == cold
    assert allocators and all(alloc() < WRAP_FROM for alloc in allocators)


@pytest.mark.parametrize("backend_name", sorted(HOST_CLASSES))
def test_a_burst_elsewhere_between_two_registrations_is_not_stale(backend_name):
    """At t = 0.25 host 0 has registered once (at 0.2) and host 1 not
    yet (at 0.3).  Host 1 then allocates ``BURST`` numbers; host 0's
    next registrations must still count as newer, and host 1's first
    one is not stale either."""
    spec = _spec()
    cold = backend.run(spec, backend=backend_name)
    paused = backend.run(spec, backend=backend_name, until=0.25)
    driver = paused.detail
    if backend_name == "sim":
        other = driver.world.mobile_hosts[1]
    else:
        other = driver.topo.mobile_host(1)
    for _ in range(BURST):
        other.next_seq()
    driver.run(until=spec.horizon)
    assert project_events(_events(paused)) == project_events(_events(cold))


def test_a_session_built_mid_run_does_not_rewind_registrations():
    """The hosts of a session already running keep their own sequence
    numbers while another session is built."""
    from repro.scenario import Session
    from repro.wire.conformance import figure1_walkthrough_spec

    def projection(interleave: bool):
        session = Session(figure1_walkthrough_spec())
        session.install_tail()
        if interleave:
            session.run(until=10.0)
            Session(figure1_walkthrough_spec())
        session.run()
        return project_events(session.sim.tracer.entries)

    assert projection(interleave=True) == projection(interleave=False)
