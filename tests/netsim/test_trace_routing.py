"""Category-routed trace dispatch, the tuple-backed TraceEntry, and the
cached dotted-quad text every traced packet renders."""

import copy
import random

import pytest

from repro.errors import SnapshotError
from repro.ip.address import IPAddress
from repro.netsim.simulator import Simulator
from repro.netsim.trace import TraceEntry, Tracer
from repro.scenario.session import validate_forkable

CATEGORIES = ("ip.send", "ip.forward", "mhrp.tunnel", "mhrp.loop", "arp")


class _Recorder:
    """A named listener that appends ``(name, category)`` to a shared log."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def __call__(self, entry):
        self.log.append((self.name, entry.category))


def _record_all(tracer):
    for i, category in enumerate(CATEGORIES):
        tracer.record(float(i), category, "n", seq=i)


class TestRoutedDispatch:
    def test_scoped_listener_sees_only_its_categories(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append, categories=("mhrp.tunnel", "mhrp.loop"))
        _record_all(tracer)
        assert [e.category for e in seen] == ["mhrp.tunnel", "mhrp.loop"]
        assert len(tracer.entries) == len(CATEGORIES)  # storage unaffected

    def test_wildcard_listener_sees_every_category(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append, categories=("arp",))
        everything = []
        tracer.subscribe(everything.append)
        _record_all(tracer)
        assert [e.category for e in everything] == list(CATEGORIES)
        assert [e.category for e in seen] == ["arp"]

    def test_mixed_subscriptions_keep_order_within_a_category(self):
        tracer = Tracer()
        log = []
        tracer.subscribe(_Recorder("a", log))
        tracer.subscribe(_Recorder("b", log), categories=("ip.send",))
        tracer.subscribe(_Recorder("c", log))
        tracer.subscribe(_Recorder("d", log), categories=("ip.send", "arp"))
        _record_all(tracer)
        assert log == [
            ("a", "ip.send"), ("b", "ip.send"), ("c", "ip.send"), ("d", "ip.send"),
            ("a", "ip.forward"), ("c", "ip.forward"),
            ("a", "mhrp.tunnel"), ("c", "mhrp.tunnel"),
            ("a", "mhrp.loop"), ("c", "mhrp.loop"),
            ("a", "arp"), ("c", "arp"), ("d", "arp"),
        ]

    def test_unsubscribe_removes_listener_from_every_route(self):
        tracer = Tracer()
        log = []
        scoped = _Recorder("scoped", log)
        wild = _Recorder("wild", log)
        tracer.subscribe(scoped, categories=("ip.send", "arp"))
        tracer.subscribe(wild)
        assert tracer.unsubscribe(scoped)
        _record_all(tracer)
        assert [name for name, _ in log] == ["wild"] * len(CATEGORIES)
        assert tracer.unsubscribe(wild)
        assert not tracer.unsubscribe(wild)
        log.clear()
        _record_all(tracer)
        assert log == []
        assert tracer.listeners() == []

    def test_listeners_lists_every_subscription_in_order(self):
        tracer = Tracer()
        first, second = [].append, [].append
        tracer.subscribe(first, categories=("arp",))
        tracer.subscribe(second)
        assert tracer.listeners() == [first, second]
        assert tracer.state_dict()["n_listeners"] == 2

    def test_filters_apply_before_routing(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append, categories=("ip.send", "arp"))
        tracer.restrict({"arp"})
        _record_all(tracer)
        tracer.enabled = False
        _record_all(tracer)
        assert [e.category for e in seen] == ["arp"]

    def test_validate_forkable_rejects_scoped_lambda(self):
        sim = Simulator(seed=0)
        sim.tracer.subscribe(lambda entry: None, categories=("mhrp.tunnel",))
        with pytest.raises(SnapshotError, match="lambda/closure"):
            validate_forkable(sim)


class TestTraceEntry:
    def test_fields_cannot_be_assigned(self):
        entry = TraceEntry(time=1.0, category="arp", node="R1", detail={"x": 1})
        with pytest.raises(AttributeError):
            entry.node = "R2"

    def test_deepcopy_shares_the_entry(self):
        entry = TraceEntry(time=1.0, category="arp", node="R1", detail={"x": [1]})
        assert copy.deepcopy(entry) is entry
        assert copy.deepcopy([entry])[0] is entry

    def test_detail_defaults_to_empty(self):
        entry = TraceEntry(time=0.5, category="arp", node="R1")
        assert entry.detail == {}
        assert str(entry) == f"[{0.5:10.6f}] {'arp':<14} {'R1':<12} "


def _dotted_quad_reference(v):
    return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"


def test_address_text_matches_the_uncached_format():
    rng = random.Random(1993)
    values = [0, 2**32 - 1] + [rng.randrange(2**32) for _ in range(1000)]
    for v in values:
        assert str(IPAddress(v)) == _dotted_quad_reference(v)
        assert repr(IPAddress(v)) == f"IPAddress({_dotted_quad_reference(v)!r})"
