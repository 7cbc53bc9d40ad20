"""The engine driver on the one kernel: sliced runs and mid-run forks.

``EngineDriver`` schedules on a bare ``netsim.Simulator``; the clock,
the queue and every pending callable (partials over bound methods, the
per-(node, key) ``Timer``s) ride a ``copy.deepcopy`` the same way a
``Session`` snapshot does.  No fork API is added — these only guard
that stopping, resuming and copying a run never change its answer.
"""

import copy

import pytest

from repro.telemetry.health import ProtocolHealth
from repro.wire.conformance import conformance_specs
from repro.wire.driver import EngineDriver
from repro.wire.topo import build_engine_world

SPECS = conformance_specs()


def booted(spec) -> EngineDriver:
    driver = EngineDriver(build_engine_world(spec.topology), health=ProtocolHealth())
    driver.install_spec(spec)
    return driver


def answer(driver: EngineDriver):
    events = [
        (t, e.category, e.node, sorted((k, str(v)) for k, v in e.detail.items()))
        for t, e in driver.events
    ]
    return events, driver.feed.health.summary(), driver.now


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_sliced_run_equals_single_run(spec):
    cold = booted(spec)
    cold.run(until=spec.horizon)

    sliced = booted(spec)
    sliced.run(until=spec.horizon / 3)
    sliced.run(until=spec.horizon / 3)  # nothing due: a no-op
    sliced.run(until=spec.horizon)

    assert answer(sliced) == answer(cold)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_deepcopy_fork_mid_run_equals_cold_run(spec):
    cold = booted(spec)
    cold.run(until=spec.horizon)

    original = booted(spec)
    original.run(until=spec.horizon / 2)
    fork = copy.deepcopy(original)
    fork.run(until=spec.horizon)

    assert answer(fork) == answer(cold)
    # The fork is its own object graph, ids included: the original has
    # not moved, and resumed after the fork ran it still ends as cold.
    assert original.now == spec.horizon / 2
    assert len(original.events) < len(cold.events)
    original.run(until=spec.horizon)
    assert answer(original) == answer(cold)
