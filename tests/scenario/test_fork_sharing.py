"""What a fork shares with its snapshot, and what it must not.

A :class:`~repro.scenario.session.Snapshot` pickles the session once and
sets the instances of ``SHARED_TYPES`` aside by reference; every fork
unpickles the rest into objects of its own.  These tests pin the sharing
rule to the value types' own ``__deepcopy__`` contract, check that forks
really do share those values, and that they share nothing mutable.
"""

import ast
from pathlib import Path

import pytest

from repro.errors import SnapshotError
from repro.harness.experiments import handoff_telemetry_spec
from repro.netsim.trace import TraceEntry
from repro.scenario import Session
from repro.scenario.session import SHARED_TYPES
from repro.telemetry.journeys import JourneyStep

SRC = Path(__file__).resolve().parents[2] / "src"


def identity_deepcopy_classes():
    """(module, class) of every class in ``src/repro`` whose
    ``__deepcopy__`` is ``return self``."""
    found = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and item.name == "__deepcopy__"
                    and len(item.body) == 1
                    and isinstance(item.body[0], ast.Return)
                    and isinstance(item.body[0].value, ast.Name)
                    and item.body[0].value.id == "self"
                ):
                    found.add((module, node.name))
    return found


def snapshot_at_checkpoint():
    spec = handoff_telemetry_spec(seed=42, duration=18.0)
    return Session(spec).run_to_checkpoint().snapshot()


def journey_steps(session):
    index = session.telemetry.index
    return [step for journey in index._journeys.values() for step in journey.steps]


def test_shared_types_are_exactly_the_identity_deepcopy_classes():
    assert identity_deepcopy_classes() == set(SHARED_TYPES)


def test_forks_share_trace_entries_and_journey_steps_by_identity():
    snapshot = snapshot_at_checkpoint()
    first, second = snapshot.fork(), snapshot.fork()
    assert first.sim is not second.sim

    entries = list(first.sim.tracer.entries)
    assert entries and all(type(e) is TraceEntry for e in entries)
    assert all(a is b for a, b in zip(entries, second.sim.tracer.entries))
    assert len(entries) == len(second.sim.tracer.entries)

    steps = journey_steps(first)
    assert steps and all(type(s) is JourneyStep for s in steps)
    assert all(a is b for a, b in zip(steps, journey_steps(second)))
    assert len(steps) == len(journey_steps(second))


def test_running_one_fork_leaves_another_untouched():
    snapshot = snapshot_at_checkpoint()
    idle = snapshot.fork()
    busy = snapshot.fork()
    busy.install_tail()
    busy.run()
    assert busy.sim.now == busy.spec.horizon
    # ``state_dict`` reads the global counters, which the fresh fork
    # rewinds to the checkpoint: read both after it.
    fresh = snapshot.fork().state_dict()
    assert idle.state_dict() == fresh
    assert busy.state_dict() != fresh


def test_unpicklable_protocol_handler_fails_the_snapshot_by_name():
    session = Session(handoff_telemetry_spec(seed=42, duration=18.0))
    session.run_to_checkpoint()
    seen = []
    session.world.mobile_hosts[0].register_protocol(250, lambda p, i: seen.append(p))
    with pytest.raises(SnapshotError, match="function .*<lambda>.* held by a MobileHost"):
        session.snapshot()
