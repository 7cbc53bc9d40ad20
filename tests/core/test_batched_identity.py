"""Batched-vs-serial byte identity at scenario scale.

``Simulator.run_batched`` claims to execute the exact serial
``(time, sequence)`` order; ``tests/netsim/test_batched_kernel.py``
pins that on synthetic schedules.  This suite forces *every* simulator
in real scenario code through the batched kernel (via
``Simulator.default_batched``) and requires byte-for-byte agreement
with the pinned artifacts and with serial runs:

- the committed golden Figure-1 trace,
- health fingerprints and protocol-event projections across the
  conformance corpus,
- full traces and session state dicts over 25 fuzzed campus seeds,
- fork-vs-cold identity (the snapshot contract) with batching on.
"""

from __future__ import annotations

import json

import pytest

from repro.invariants import fuzz
from repro.netsim import Simulator
from repro.scenario import ScenarioSpec, Session
from repro.wire.conformance import conformance_specs, run_simulator_reference

from tests.core.test_golden_trace import GOLDEN_PATH, scenario_trace, trace_rows

FUZZ_SEEDS = range(25)


@pytest.fixture
def force_batched():
    """Route every ``run()`` in scenario code through ``run_batched``."""
    Simulator.default_batched = True
    try:
        yield
    finally:
        Simulator.default_batched = False


def trace_json(session: Session) -> str:
    return json.dumps(trace_rows(session.sim.tracer))


def fuzzed_campus_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec.from_fuzz_v1(fuzz.make_scenario(seed, "quick"))


# ----------------------------------------------------------------------
# Golden Figure-1 trace
# ----------------------------------------------------------------------
def test_figure1_golden_trace_identical_under_batching(force_batched):
    """The batched kernel replays the committed pre-batching golden
    trace entry for entry — the strongest single witness that
    coalesced broadcast delivery and batch sweeps change nothing."""
    golden = json.loads(GOLDEN_PATH.read_text())
    current = scenario_trace()
    assert len(current) == len(golden)
    for index, (want, got) in enumerate(zip(golden, current)):
        assert got == want, (
            f"batched trace diverges at entry {index}:\n"
            f"  golden: {want}\n  batched: {got}"
        )


# ----------------------------------------------------------------------
# Conformance corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", conformance_specs(), ids=lambda s: s.name)
def test_conformance_runs_identical_batched_vs_serial(spec):
    serial = run_simulator_reference(spec)
    Simulator.default_batched = True
    try:
        batched = run_simulator_reference(spec)
    finally:
        Simulator.default_batched = False
    assert batched.fingerprint == serial.fingerprint
    assert batched.projection == serial.projection
    assert batched.summary == serial.summary


# ----------------------------------------------------------------------
# Fuzzed campus sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzzed_campus_identical_batched_vs_serial(seed):
    serial = Session(fuzzed_campus_spec(seed)).run_full()
    Simulator.default_batched = True
    try:
        batched = Session(fuzzed_campus_spec(seed)).run_full()
    finally:
        Simulator.default_batched = False
    assert trace_json(batched) == trace_json(serial)
    assert batched.state_dict() == serial.state_dict()


# ----------------------------------------------------------------------
# Snapshot contract with batching on
# ----------------------------------------------------------------------
def test_fork_is_byte_identical_to_cold_under_batching(force_batched):
    spec = fuzzed_campus_spec(seed=3)
    spec.checkpoint = 10.0
    cold = Session(fuzzed_campus_spec(seed=3)).run_full()
    cold_spec_checkpointed = fuzzed_campus_spec(seed=3)
    cold_spec_checkpointed.checkpoint = 10.0

    snapshot = Session(spec).run_to_checkpoint().snapshot()
    forked = snapshot.fork()
    forked.install_tail()
    forked.run()

    checkpointed_cold = Session(cold_spec_checkpointed).run_full()
    assert trace_json(forked) == trace_json(checkpointed_cold)
    assert forked.state_dict() == checkpointed_cold.state_dict()
