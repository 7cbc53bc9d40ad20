"""The unified backend facade: one ``run()`` for five executions."""

import pytest

from repro import backend
from repro.backend import BACKENDS, RunResult, run, run_main
from repro.partition import partition_handoff_spec
from repro.wire.conformance import figure1_walkthrough_spec


class TestRun:
    def test_sim_and_batched_agree(self):
        sim = run(figure1_walkthrough_spec(), backend="sim")
        batched = run(figure1_walkthrough_spec(), backend="batched")
        for result in (sim, batched):
            assert isinstance(result, RunResult)
            assert result.ok
            assert result.spec_name == "figure1-walkthrough"
            assert result.events > 0
            assert result.sim_time == pytest.approx(32.0)
            assert result.health is not None and result.health["moves"] == 3
        assert batched.events == sim.events
        assert batched.health == sim.health

    def test_engine_backend(self):
        result = run(figure1_walkthrough_spec(), backend="engine")
        assert result.backend == "engine"
        assert result.ok and result.events > 0
        assert result.health["registrations"] >= 2
        # trace is the (time, event) log the conformance projection eats
        assert all(len(item) == 2 for item in result.trace)

    def test_engine_until_stops_the_clock(self):
        full = run(figure1_walkthrough_spec(), backend="engine")
        early = run(figure1_walkthrough_spec(), backend="engine", until=10.0)
        assert early.sim_time == pytest.approx(10.0)
        assert early.events < full.events

    def test_media_latency_comes_from_the_spec_on_every_backend(self):
        """The engine driver used to run every spec at its own constant
        latencies, dropping the topology's ``wireless_latency``."""
        from repro.harness.experiments import handoff_telemetry_spec

        def latency_ms(backend, wireless_latency):
            spec = handoff_telemetry_spec(1, wireless_latency, 0.5, 20.0)
            return run(spec, backend=backend).health["latency_ms_mean"]

        for name in ("sim", "engine"):
            assert latency_ms(name, 0.03) > latency_ms(name, 0.003), name

    def test_live_backend(self):
        result = run(figure1_walkthrough_spec(), backend="live", speed=40.0)
        assert result.backend == "live"
        assert result.counters["datagrams_sent"] > 0
        assert result.health["moves"] == 3

    def test_partitioned_backend(self):
        result = run(partition_handoff_spec(), backend="partitioned", workers=0)
        assert result.backend == "partitioned"
        assert result.counters["partitions"] == 4
        assert result.counters["mode"] == "window"
        assert result.health["moves"] > 0
        # trace carries the byte-identity fingerprint
        assert set(result.trace) == {"trace", "health", "mobile_state"}

    def test_seed_override_does_not_mutate_the_spec(self):
        spec = figure1_walkthrough_spec()
        result = run(spec, backend="sim", seed=7)
        assert result.ok
        assert spec.seed == 42

    def test_health_instrument_is_appended_without_mutation(self):
        spec = figure1_walkthrough_spec()
        assert spec.instruments == []
        result = run(spec, backend="sim")
        assert result.health is not None
        assert spec.instruments == []


class TestRejections:
    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run(figure1_walkthrough_spec(), backend="quantum")

    def test_live_rejects_until(self):
        with pytest.raises(ValueError, match="horizon"):
            run(figure1_walkthrough_spec(), backend="live", until=5.0)

    def test_partitioned_rejects_until_and_obs(self):
        with pytest.raises(ValueError, match="horizon"):
            run(partition_handoff_spec(), backend="partitioned", until=5.0)
        with pytest.raises(ValueError, match="obs"):
            run(partition_handoff_spec(), backend="partitioned", obs=True)

    def test_partitioned_requires_partitions_field(self):
        with pytest.raises(ValueError, match="partitions"):
            run(figure1_walkthrough_spec(), backend="partitioned")


class TestCli:
    def test_every_backend_name_is_offered(self):
        assert BACKENDS == ("sim", "batched", "engine", "live", "partitioned")

    def test_run_main_engine(self, capsys):
        assert run_main(["figure1", "--backend", "engine"]) == 0
        out = capsys.readouterr().out
        assert "engine run 'figure1-walkthrough'" in out
        assert "registrations" in out

    def test_run_main_partitioned_serial(self, capsys):
        assert run_main(
            ["partition-handoff", "--backend", "partitioned", "--workers", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "partitions: 4" in out

    def test_run_main_json(self, capsys):
        import json

        assert run_main(["figure1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "sim"
        assert payload["events"] > 0
        assert payload["health"]["moves"] == 3

    def test_run_main_unknown_scenario(self, capsys):
        assert run_main(["no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_main_invalid_combo(self, capsys):
        assert run_main(["figure1", "--backend", "live", "--until", "5"]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_facade_module_is_the_cli_entry(self):
        # ``python -m repro run`` dispatches here.
        import repro.__main__ as main_mod

        assert "run" in main_mod._COMMANDS
        assert backend.run_main is run_main
