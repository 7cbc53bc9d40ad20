"""CLI surfaces: ``python -m repro top`` in both modes, and the
no-telemetry exit codes of ``health`` and ``trace``."""

import json

import pytest

from repro.obs.cli import top_main
from repro.telemetry.cli import NO_DATA_EXIT, health_main, trace_main
from repro.telemetry.health import ProtocolHealth
from tests.live.test_cli import clock_message


class TestTopRunMode:
    def test_sim_backend_renders_combined_panel(self, capsys):
        assert top_main(["figure1", "--backend", "sim"]) == 0
        out = capsys.readouterr().out
        assert "protocol-health" not in out.lower() or out  # panel printed
        assert "observability plane" in out
        assert "spans:" in out
        assert "stage timing" in out

    def test_driver_backend_json_payload(self, capsys):
        assert top_main(["figure1", "--backend", "driver", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "driver"
        assert payload["health"]["registrations"] == 2
        assert payload["obs"]["spans"]["spans"] == 41

    def test_dag_json_matches_across_backends(self, capsys):
        assert top_main(
            ["figure1", "--backend", "sim", "--dag", "--json"]
        ) == 0
        sim_dag = json.loads(capsys.readouterr().out)["dag"]
        assert top_main(
            ["figure1", "--backend", "driver", "--dag", "--json"]
        ) == 0
        driver_dag = json.loads(capsys.readouterr().out)["dag"]
        assert sim_dag == driver_dag and len(sim_dag) >= 10

    def test_unknown_scenario_exits_2(self, capsys):
        assert top_main(["no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_perfetto_export(self, tmp_path, capsys):
        path = tmp_path / "spans.json"
        assert top_main(
            ["figure1", "--backend", "driver", "--quiet",
             "--perfetto", str(path)]
        ) == 0
        document = json.loads(path.read_text())
        phases = {e.get("ph") for e in document["traceEvents"]}
        assert {"X", "s", "f"} <= phases


class TestTopTailMode:
    def _stream(self, tmp_path, rows):
        path = tmp_path / "snapshots.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    def test_tails_last_row(self, tmp_path, capsys):
        path = self._stream(tmp_path, [
            {"t_virtual": 1.0, "drift_virtual": 0.0, "event_loop_lag": 0.001,
             "timer_wheel_depth": 3, "datagrams_sent": 4,
             "datagrams_received": 4, "datagrams_unresolved": 0, "spans": 2,
             "metrics": {"counters": {"obs_events_total{category=x}": 9}}},
            {"t_virtual": 2.0, "drift_virtual": 0.5, "event_loop_lag": 0.002,
             "timer_wheel_depth": 5, "datagrams_sent": 8,
             "datagrams_received": 8, "datagrams_unresolved": 0, "spans": 6,
             "health": {"moves": 1, "registrations": 1,
                        "packets_delivered": 3, "packets_dropped": 0},
             "metrics": {"counters": {"obs_events_total{category=x}": 20}}},
        ])
        assert top_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "t=   2.000s" in out
        assert "drift=0.500s" in out
        assert "1 moves, 1 registrations" in out
        assert "obs_events_total{category=x}" in out

    def test_tail_json_emits_last_row(self, tmp_path, capsys):
        path = self._stream(tmp_path, [{"t_virtual": 7.0, "spans": 1}])
        assert top_main([str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["t_virtual"] == 7.0

    def test_empty_stream_exits_3(self, tmp_path, capsys):
        path = self._stream(tmp_path, [])
        assert top_main([str(path)]) == 3
        assert "no snapshot rows" in capsys.readouterr().err

    def test_partial_trailing_row_is_ignored(self, tmp_path, capsys):
        path = self._stream(tmp_path, [{"t_virtual": 1.0, "spans": 1}])
        with open(path, "a") as handle:
            handle.write('{"t_virtual": 2.0, "spa')  # torn write
        assert top_main([str(path)]) == 0
        assert "t=   1.000s" in capsys.readouterr().out

    def test_end_to_end_from_live_snapshots(self, tmp_path, capsys):
        """live --snapshots -> top tails the stream it wrote."""
        from repro.live.cli import live_main

        path = tmp_path / "live.jsonl"
        assert live_main(
            ["figure1", "--speed", "40", "--quiet",
             "--snapshots", str(path)]
        ) == 0
        assert top_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans: 41" in out


class TestNoTelemetryExits:
    def _empty_scenario(self, monkeypatch, module):
        hub = ProtocolHealth()
        monkeypatch.setattr(
            module, "run_scenario", lambda name, seed: (None, hub)
        )

    def test_health_exits_3_with_message(self, monkeypatch, capsys):
        import repro.telemetry.cli as cli

        self._empty_scenario(monkeypatch, cli)
        assert health_main(["figure1"]) == NO_DATA_EXIT
        err = capsys.readouterr().err
        assert "produced no telemetry data" in err
        assert "nothing to report" in err

    def test_trace_exits_3_with_message(self, monkeypatch, capsys):
        import repro.telemetry.cli as cli

        self._empty_scenario(monkeypatch, cli)
        assert trace_main([]) == NO_DATA_EXIT
        assert "no packet journeys" in capsys.readouterr().err

    def test_real_runs_still_exit_0(self):
        assert health_main(["figure1", "--quiet"]) == 0
        assert trace_main(["--json"]) == 0


class TestLiveObsFlags:
    def test_metrics_dump_and_dag(self, tmp_path, capsys):
        from repro.live.cli import live_main

        dump = tmp_path / "metrics.txt"
        assert live_main(
            ["figure1", "--speed", "40", "--json",
             "--metrics-dump", str(dump), "--dag"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        clock = clock_message(payload)
        assert payload["obs"]["spans"]["spans"] == 41, clock
        assert len(payload["dag"]) >= 10, clock
        exposition = dump.read_text()
        assert "repro_obs_events_total" in exposition
        assert "repro_live_datagrams_total" in exposition
