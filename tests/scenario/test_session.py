"""Session snapshot/fork determinism: a fork must be byte-identical to a
cold run of the same spec — same serialized trace, same component state.
"""

import json

import pytest

from repro.errors import SnapshotError
from repro.harness.experiments import handoff_telemetry_spec
from repro.invariants import fuzz
from repro.scenario import ScenarioSpec, Session
from tests.core.test_golden_trace import trace_rows


def trace_json(session: Session) -> str:
    """The session's full trace, serialized — the byte-identity witness."""
    return json.dumps(trace_rows(session.sim.tracer))


def cold_run(spec: ScenarioSpec) -> Session:
    return Session(spec).run_full()


def forked_run(spec: ScenarioSpec) -> Session:
    snapshot = Session(spec).run_to_checkpoint().snapshot()
    forked = snapshot.fork()
    forked.install_tail()
    forked.run()
    return forked


def fuzzed_campus_spec(seed: int = 3, checkpoint: float = 10.0) -> ScenarioSpec:
    spec = ScenarioSpec.from_fuzz_v1(fuzz.make_scenario(seed, "quick"))
    spec.checkpoint = checkpoint
    return spec


class TestForkDeterminism:
    def test_figure1_fork_is_byte_identical_to_cold(self):
        spec = handoff_telemetry_spec(seed=42, duration=18.0)
        cold = cold_run(spec)
        forked = forked_run(spec)
        assert trace_json(forked) == trace_json(cold)
        assert forked.state_dict() == cold.state_dict()

    def test_fuzzed_campus_fork_is_byte_identical_to_cold(self):
        spec = fuzzed_campus_spec()
        assert spec.prefix_entries(), "fuzzed spec needs a non-empty warm-up"
        cold = cold_run(spec)
        forked = forked_run(spec)
        assert trace_json(forked) == trace_json(cold)
        assert forked.state_dict() == cold.state_dict()

    def test_telemetry_summary_survives_the_fork(self):
        spec = handoff_telemetry_spec(seed=42, duration=18.0)
        assert forked_run(spec).telemetry.summary() == cold_run(
            spec
        ).telemetry.summary()

    def test_two_forks_are_independent_and_identical(self):
        spec = fuzzed_campus_spec(seed=4)
        snapshot = Session(spec).run_to_checkpoint().snapshot()
        first = snapshot.fork()
        first.install_tail()
        first.run()
        # Running the first fork must not have disturbed the snapshot.
        second = snapshot.fork()
        second.install_tail()
        second.run()
        assert trace_json(first) == trace_json(second)
        assert first.state_dict() == second.state_dict()

    def test_fork_accepts_a_different_tail(self):
        spec = handoff_telemetry_spec(seed=42, duration=18.0)
        variant = handoff_telemetry_spec(seed=42, duration=18.0)
        variant.pings = variant.pings[:3]  # tail change only
        snapshot = Session(spec).run_to_checkpoint().snapshot()
        forked = snapshot.fork(variant)
        forked.install_tail()
        forked.run()
        assert trace_json(forked) == trace_json(cold_run(variant))


class TestAdapterStateContract:
    """The core/ agents are thin adapters over the ``repro.wire`` role
    engines (PR 7); the PR 5 snapshot contract must survive that
    indirection — forks stay byte-identical to cold runs, and role
    state round-trips through ``state_dict``/``load_state`` on the
    adapter-backed agents."""

    def test_local_query_campus_fork_is_byte_identical_to_cold(self):
        """A fuzzed campus with ``believe_home_agent=False`` (the
        Section 5.2 local-query mode, newly threaded through the
        topology builders): fork-vs-cold byte identity holds with the
        query/verify timers in play."""
        spec = fuzzed_campus_spec(seed=5)
        spec.topology["believe_home_agent"] = False
        cold = cold_run(spec)
        forked = forked_run(spec)
        for roles in cold.world.cell_roles:
            assert roles.foreign_agent.believe_home_agent is False
        assert trace_json(forked) == trace_json(cold)
        assert forked.state_dict() == cold.state_dict()

    def test_role_state_round_trips_through_adapters(self):
        """Mid-scenario role state loads into a fresh world's twin
        agent and reads back identically."""
        spec = fuzzed_campus_spec(seed=3)
        session = cold_run(spec)
        fresh = Session(fuzzed_campus_spec(seed=3))

        def agents(world):
            found = {}
            if world.home_roles is not None and world.home_roles.home_agent:
                found["home"] = world.home_roles.home_agent
            for i, cell in enumerate(world.cell_roles):
                if cell.foreign_agent is not None:
                    found[f"fa{i}"] = cell.foreign_agent
                if cell.cache_agent is not None:
                    found[f"cache{i}"] = cell.cache_agent
            return found

        ran, twins = agents(session.world), agents(fresh.world)
        assert set(ran) == set(twins) and ran
        for key, agent in ran.items():
            state = agent.state_dict()
            twins[key].load_state(state)
            assert twins[key].state_dict() == state, key


class TestSnapshotContract:
    def test_fork_rejects_a_mismatched_prefix(self):
        spec = handoff_telemetry_spec(seed=42, duration=18.0)
        other = handoff_telemetry_spec(seed=43, duration=18.0)
        snapshot = Session(spec).run_to_checkpoint().snapshot()
        with pytest.raises(SnapshotError, match="prefix hash"):
            snapshot.fork(other)

    def test_install_tail_twice_is_an_error(self):
        session = Session(handoff_telemetry_spec(seed=42, duration=18.0))
        session.run_to_checkpoint()
        session.install_tail()
        with pytest.raises(SnapshotError, match="already installed"):
            session.install_tail()

    def test_snapshot_after_tail_is_an_error(self):
        session = Session(handoff_telemetry_spec(seed=42, duration=18.0))
        session.run_to_checkpoint()
        session.install_tail()
        with pytest.raises(SnapshotError, match="before the tail"):
            session.snapshot()

    def test_snapshot_rejects_pending_closures(self):
        session = Session(handoff_telemetry_spec(seed=42, duration=18.0))
        session.run_to_checkpoint()
        leak = []
        session.sim.schedule_at(30.0, lambda: leak.append(1), label="closure")
        with pytest.raises(SnapshotError, match="lambda/closure"):
            session.snapshot()


class TestInterleavedWorlds:
    """Every id comes from the world that uses it, so runs that share a
    process never perturb each other."""

    def test_interleaved_runs_each_match_their_cold_run(self):
        from dataclasses import replace

        from repro.backend import run
        from repro.wire.conformance import figure1_walkthrough_spec

        spec = replace(figure1_walkthrough_spec(), checkpoint=10.0)
        cold = trace_json(cold_run(spec))
        cold_engine = repr(run(spec, backend="engine").trace)
        assert '"uid"' in cold and '"hw"' in cold

        first = Session(spec).run_to_checkpoint()
        snapshot = first.snapshot()
        first.install_tail()
        first.run(until=14.0)
        second = Session(spec).run_to_checkpoint()
        engine = run(spec, backend="engine")
        forked = snapshot.fork().install_tail()
        forked.run(until=18.0)
        second.install_tail()
        second.run(until=22.0)
        for session in (first, forked, second):
            session.run()

        assert repr(engine.trace) == cold_engine
        assert trace_json(first) == cold
        assert trace_json(second) == cold
        assert trace_json(forked) == cold


class TestSnapshotBlob:
    def test_blob_holds_no_itertools_objects(self):
        """Pickling itertools objects is deprecated (Python 3.12): the
        id counters a fork carries must be plain ints."""
        import pickletools

        from repro.wire.conformance import figure1_walkthrough_spec

        blob = Session(figure1_walkthrough_spec()).snapshot()._blob
        strings = {
            arg for _, arg, _ in pickletools.genops(blob) if isinstance(arg, str)
        }
        assert "repro.scenario.session" in strings  # module names are seen
        assert not [s for s in strings if s.split(" ")[0] == "itertools"]


class TestStateDictContracts:
    """state_dict()/load_state() round-trips on the engine components."""

    def test_simulator_state_round_trips(self):
        spec = handoff_telemetry_spec(seed=42, duration=18.0)
        session = Session(spec).run_to_checkpoint()
        state = session.sim.state_dict()
        assert json.loads(json.dumps(state)) == state
        session.sim.rng.random()  # perturb
        session.sim.load_state(state)
        assert session.sim.state_dict() == state

    def test_node_state_dicts_are_jsonable(self):
        spec = fuzzed_campus_spec()
        session = Session(spec).run_to_checkpoint()
        state = session.state_dict()
        assert json.loads(json.dumps(state)) == state
