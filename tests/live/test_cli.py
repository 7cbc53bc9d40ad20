"""``python -m repro live`` CLI surface."""

import json

import pytest

from repro.backend import resolve_spec as _resolve_spec, scenario_names
from repro.live.cli import live_main


def clock_message(payload: dict) -> str:
    """How far a ``--json`` run's virtual clock fell behind the wall
    clock, so a loaded machine reads differently from a protocol
    divergence in an assertion message."""
    return (
        f"clock: drift_warnings={payload['drift_warnings']} "
        f"runtime_samples={payload['runtime_samples']} "
        f"max_drift_virtual={payload['max_drift_virtual']:.3f}s"
    )


class TestScenarioResolution:
    def test_corpus_names_resolve(self):
        assert _resolve_spec("figure1").name == "figure1-walkthrough"
        assert _resolve_spec("walkthrough").name == "figure1-walkthrough"
        assert _resolve_spec("fuzz-1102").name == "fuzz-conformance-1102"
        assert _resolve_spec("fuzz-conformance-1103").name == "fuzz-conformance-1103"

    def test_unknown_name_is_an_error(self):
        with pytest.raises(FileNotFoundError):
            _resolve_spec("no-such-scenario")

    def test_spec_json_path_resolves(self, tmp_path):
        spec = _resolve_spec("figure1")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = _resolve_spec(str(path))
        assert loaded.to_dict() == spec.to_dict()

    def test_fuzzer_v1_json_path_resolves(self, tmp_path):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps({
            "seed": 7, "n_cells": 2, "n_hosts": 1,
            "max_previous_sources": 4, "horizon": 5.0,
            "moves": [], "pings": [],
        }))
        loaded = _resolve_spec(str(path))
        assert loaded.topology["kind"] == "campus"


class TestMain:
    def test_unknown_scenario_exits_2(self, capsys):
        assert live_main(["no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_json_run(self, capsys):
        """A real (short, sped-up) run over loopback with --json."""
        code = live_main(["fuzz-1102", "--json", "--speed", "40"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        clock = clock_message(payload)
        assert payload["scenario"] == "fuzz-conformance-1102"
        assert payload["datagrams_sent"] > 0, clock
        assert payload["summary"]["registrations"] >= 1, clock

    def test_quiet_prints_nothing(self, capsys):
        code = live_main(["fuzz-1102", "--quiet", "--speed", "40"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_scenario_listing_is_current(self):
        for name in scenario_names():
            _resolve_spec(name)
