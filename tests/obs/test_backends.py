"""Cross-backend observability guarantees.

Two acceptance criteria live here:

- **Attached**: the normalized Figure-1 span DAG is identical across
  the simulator, the deterministic engine driver, and the live
  asyncio-UDP backend (and sim == driver across the whole conformance
  corpus).
- **Detached/attached neutrality**: attaching the obs plane must not
  perturb behaviour — the golden Figure-1 trace and the committed
  health summary stay byte-identical with the plane attached.
"""

import json
from pathlib import Path

import pytest

from repro.backend import run
from repro.obs import ObsPlane, normalized_dag
from repro.wire.conformance import conformance_specs, figure1_walkthrough_spec


def _sim_dag(spec):
    from repro.scenario.session import Session
    from repro.scenario.spec import ScenarioSpec

    data = spec.to_dict()
    data["instruments"] = [{"kind": "obs"}]
    session = Session(ScenarioSpec.from_dict(data))
    session.run_full()
    return normalized_dag(session.obs.spans), session.obs


def _driver_dag(spec):
    obs = ObsPlane()
    run(spec, backend="engine", obs=obs)
    return normalized_dag(obs.spans), obs


class TestCorpusDagIdentity:
    @pytest.mark.parametrize(
        "spec", conformance_specs(), ids=lambda s: s.name
    )
    def test_sim_and_driver_produce_the_same_dag(self, spec):
        sim_dag, sim_obs = _sim_dag(spec)
        driver_dag, driver_obs = _driver_dag(spec)
        assert sim_dag == driver_dag
        # The retransmit-collapse accounting matches too.
        assert (
            sim_obs.spans.summary()["merged"]
            == driver_obs.spans.summary()["merged"]
        )

    def test_figure1_dag_is_nonempty_and_structured(self):
        dag, _ = _driver_dag(figure1_walkthrough_spec())
        assert len(dag) >= 10
        roots = {tree["label"][0] for tree in dag}
        assert roots == {"mhrp.register", "mhrp.tunnel"}
        assert any(tree["children"] for tree in dag)


class TestLiveDagIdentity:
    def test_figure1_live_matches_driver(self):
        spec = figure1_walkthrough_spec()
        driver_dag, _ = _driver_dag(spec)
        obs = ObsPlane()
        run(spec, backend="live", obs=obs)
        assert normalized_dag(obs.spans) == driver_dag


class TestAttachedNeutrality:
    def test_golden_figure1_trace_unchanged_with_obs_attached(self):
        """Span recording is a pure tracer listener: the committed
        golden trace must stay byte-identical with the plane attached."""
        from tests.core.test_golden_trace import (
            GOLDEN_PATH,
            trace_rows,
        )
        from repro.workloads.topology import build_figure1

        topo = build_figure1(seed=42)
        sim, s, m = topo.sim, topo.s, topo.m
        obs = sim.attach(ObsPlane())
        m.attach_home(topo.net_b)
        sim.run(until=5.0)
        m.attach(topo.net_d)
        sim.run(until=12.0)
        s.ping(m.home_address)
        sim.run(until=16.0)
        s.ping(m.home_address)
        sim.run(until=20.0)
        m.attach(topo.net_e)
        sim.run(until=28.0)
        s.ping(m.home_address)
        sim.run(until=32.0)
        m.attach_home(topo.net_b)
        sim.run(until=38.0)
        s.ping(m.home_address)
        sim.run(until=42.0)

        current = trace_rows(sim.tracer)
        golden = json.loads(GOLDEN_PATH.read_text())
        assert current == golden
        assert len(obs.spans) > 0  # the plane really was listening

    def test_health_summary_unchanged_with_obs_attached(self):
        """The committed CI golden health summary, re-derived with the
        obs plane attached alongside the health hub."""
        from repro.telemetry.cli import figure1_scenario
        from repro.workloads.topology import build_figure1, drive_figure1
        from repro.telemetry.health import ProtocolHealth

        golden_path = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "results" / "health_figure1.json"
        )
        golden = json.loads(golden_path.read_text())

        topo = build_figure1(seed=42)
        sim = topo.sim
        nodes = [topo.s, topo.r1, topo.r2, topo.r3, topo.r4, topo.r5, topo.m]
        hub = sim.attach(ProtocolHealth(), nodes=nodes)
        sim.attach(ObsPlane())
        drive_figure1(topo)
        assert hub.summary() == golden

    def test_snapshot_rejects_nothing_with_obs_attached(self):
        """Obs attachment keeps sessions forkable (bound-method
        listener, no closures in the event queue)."""
        from repro.scenario.session import Session, validate_forkable
        from repro.scenario.spec import ScenarioSpec

        spec = figure1_walkthrough_spec()
        data = spec.to_dict()
        data["instruments"] = [{"kind": "obs"}]
        data["checkpoint"] = 4.0
        session = Session(ScenarioSpec.from_dict(data))
        session.run_to_checkpoint()
        validate_forkable(session.sim)  # must not raise
