"""One schedule reader: every backend queues the same schedule.

``ScheduleInstaller._install`` is the only interpreter of
``spec.entries()``; ``Session``, ``EngineDriver`` and ``LiveRun`` differ
in what the queued actions *do* and in where ``_at`` puts them, never in
what is queued.  This test replaces ``_at`` with a recorder on all three
and compares the ``(t, label, action name, args)`` sequences — it is
what keeps the conformance premise ("a sim/engine divergence means
protocol logic") true: a divergence can no longer be the schedule.
"""

import pytest

from repro.invariants.fuzz import make_scenario
from repro.live.backend import LiveRun
from repro.scenario.session import Session
from repro.scenario.spec import PROBE_GAP, ScenarioSpec
from repro.wire.conformance import conformance_specs
from repro.wire.driver import EngineDriver
from repro.wire.topo import build_engine_world


def dense_handoff_spec() -> ScenarioSpec:
    """Every entry kind, several hosts, same-instant entries."""
    return ScenarioSpec(
        name="dense-handoff",
        seed=23,
        topology={
            "kind": "campus", "n_cells": 3, "n_mobile_hosts": 4,
            "n_correspondents": 2,
        },
        horizon=40.0,
        moves=[
            {"t": 1.0 + 0.5 * i, "host": i % 4, "to": (i * 7) % 5 - 2}
            for i in range(60)
        ],
        faults=[
            {"t": 12.0, "node": "FR1", "kind": "crash"},
            {"t": 14.0, "node": "FR1", "kind": "reboot"},
        ],
        flows=[
            {"start": 2.0 + h, "src": h % 2, "host": h, "interval": 0.25,
             "count": 40, "port": 40000 + h}
            for h in range(4)
        ],
        probes=[{"t": 5.0 + 3 * i, "src": i % 2, "host": i % 4} for i in range(8)],
        pings=[{"t": 1.0 + 0.5 * i, "src": i % 2, "host": i % 4} for i in range(60)],
    )


def fuzz_spec(seed: int) -> ScenarioSpec:
    spec = ScenarioSpec.from_fuzz_v1(make_scenario(seed))
    spec.instruments = []  # the auditor is simulator-only
    return spec


SPECS = (
    conformance_specs()
    + [dense_handoff_spec()]
    + [fuzz_spec(seed) for seed in range(4200, 4220)]
)


def record(installer, spec):
    """Install ``spec`` on ``installer`` with a recording ``_at``."""
    queued = []

    def fake_at(t, action, label):
        queued.append((float(t), label, action.func.__name__, action.args))

    installer._at = fake_at
    installer._install(spec.entries())
    return queued


def cold_session(spec):
    # checkpoint 0: nothing is installed at build time, so the recorder
    # sees the whole schedule in one _install, like the engine backends.
    data = spec.to_dict()
    data["checkpoint"] = 0.0
    return Session(ScenarioSpec.from_dict(data))


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_all_backends_queue_the_same_schedule(spec):
    session = cold_session(spec)
    on_session = record(session, spec)
    on_driver = record(EngineDriver(build_engine_world(spec.topology)), spec)
    on_live = record(LiveRun(spec), spec)  # no sockets until main()

    # The two engine hosts share one actuator: identical, flows included.
    assert on_driver == on_live
    # Flows start inside the simulator's CBRStream instead of through
    # _at; everything else is the same (t, label, action, args) sequence.
    flows = [row for row in on_driver if row[1] == "scenario-flow"]
    assert on_session == [row for row in on_driver if row[1] != "scenario-flow"]
    # A flow's id is its position in spec.flows, on both families.
    assert [(t, args) for t, _, _, args in flows] == [
        (float(entry["start"]), (i, entry)) for i, entry in enumerate(spec.flows)
    ]
    assert [stream.start_at for stream in session._flows] == [
        entry["start"] for entry in spec.flows
    ]
    # The whole schedule was read: one row per entry, two per probe.
    n_entries = sum(1 for _ in spec.entries())
    assert len(on_driver) == n_entries + len(spec.probes)


def test_probe_gap_is_spelled_once():
    spec = dense_handoff_spec()
    rows = record(EngineDriver(build_engine_world(spec.topology)), spec)
    warm = [r for r in rows if r[1] == "scenario-probe-warm"]
    audited = [r for r in rows if r[1] == "scenario-probe-audited"]
    assert [(t + PROBE_GAP, args[:2]) for t, _, _, args in warm] == [
        (t, args[:2]) for t, _, _, args in audited
    ]
    assert all(args[2] is False for *_, args in warm)
    assert all(args[2] is True for *_, args in audited)
