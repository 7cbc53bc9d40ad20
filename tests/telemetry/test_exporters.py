"""Exporters: the Perfetto/Chrome trace must be valid trace-event JSON
and the JSONL timeline must round-trip."""

import io
import json

from repro.netsim.trace import TraceEntry
from repro.telemetry.exporters import (
    chrome_trace,
    export_chrome_trace,
    export_jsonl,
    timeline_records,
)
from repro.telemetry.journeys import JourneyIndex


def _entry(t, category, node, **detail):
    return TraceEntry(time=t, category=category, node=node, detail=detail)


def _small_index() -> JourneyIndex:
    index = JourneyIndex()
    index.observe(_entry(0.00, "ip.send", "S", uid=1))
    index.observe(_entry(0.01, "mhrp.tunnel", "S", uid=1, event="sender-encapsulate"))
    index.observe(_entry(0.02, "ip.forward", "R1", uid=1))
    index.observe(_entry(0.03, "ip.deliver", "M", uid=1))
    index.observe(_entry(0.00, "ip.send", "A", uid=2))
    index.observe(_entry(0.05, "ip.drop", "R2", uid=2, reason="no-route"))
    return index


def test_timeline_records_time_ordered_with_uid():
    records = timeline_records(_small_index())
    assert len(records) == 6
    times = [r["time"] for r in records]
    assert times == sorted(times)
    assert {r["uid"] for r in records} == {1, 2}
    assert all("uid" not in r["detail"] for r in records)
    drop = [r for r in records if r["kind"] == "drop"][0]
    assert drop["detail"]["reason"] == "no-route"


def test_export_jsonl_round_trips():
    out = io.StringIO()
    n = export_jsonl(_small_index(), out)
    lines = out.getvalue().strip().splitlines()
    assert n == len(lines) == 6
    parsed = [json.loads(line) for line in lines]
    assert parsed == timeline_records(_small_index())


def test_chrome_trace_is_valid_trace_event_json():
    document = chrome_trace(_small_index())
    # Must survive a strict serialize/parse cycle.
    document = json.loads(json.dumps(document))
    events = document["traceEvents"]
    assert isinstance(events, list) and events

    slices = [e for e in events if e["ph"] == "X"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert len(slices) == 6
    for event in slices:
        assert event["pid"] == 1
        assert event["tid"] in (1, 2)           # one track per packet uid
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert isinstance(event["name"], str) and "@" in event["name"]
    # Tunnel ops are categorized separately from plain IP steps.
    assert any(e["cat"] == "tunnel" for e in slices)
    # Thread-name metadata gives each packet track a label.
    names = [e for e in metadata if e["name"] == "thread_name"]
    assert {e["tid"] for e in names} == {1, 2}


def test_chrome_trace_span_durations_run_to_next_step():
    document = chrome_trace(_small_index())
    track1 = sorted(
        (e for e in document["traceEvents"] if e["ph"] == "X" and e["tid"] == 1),
        key=lambda e: e["ts"],
    )
    # send at t=0 lasts until the tunnel op at t=0.01 -> 10_000 us.
    assert track1[0]["dur"] == 10_000
    # The final step is a zero-duration marker.
    assert track1[-1]["dur"] == 0


def test_export_chrome_trace_to_file(tmp_path):
    path = tmp_path / "trace.json"
    n = export_chrome_trace(_small_index(), str(path))
    document = json.loads(path.read_text())
    assert len(document["traceEvents"]) == n


def _evicting_index(max_completed=2):
    """Five completed journeys through a ``max_completed=2`` index, so
    uids 1..3 are evicted and 4..5 retained."""
    index = JourneyIndex(max_completed=max_completed)
    for uid in range(1, 6):
        t = uid / 10.0
        index.observe(_entry(t, "ip.send", "S", uid=uid))
        index.observe(_entry(t + 0.01, "ip.deliver", "M", uid=uid))
    return index


def test_export_jsonl_under_eviction_writes_only_retained():
    index = _evicting_index()
    assert index.evicted == 3
    out = io.StringIO()
    n = export_jsonl(index, out)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert n == len(records) == 4  # 2 retained journeys x 2 steps
    assert {r["uid"] for r in records} == {4, 5}
    times = [r["time"] for r in records]
    assert times == sorted(times)


def test_chrome_trace_under_eviction_tracks_match_retained():
    index = _evicting_index()
    document = json.loads(json.dumps(chrome_trace(index)))
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert {e["tid"] for e in slices} == {4, 5}
    names = [
        e for e in document["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert {e["tid"] for e in names} == {4, 5}


def test_exports_with_in_flight_journeys_mid_eviction():
    """Exports taken mid-run: completed journeys already evicted while
    others are still in flight must produce a coherent document."""
    index = JourneyIndex(max_completed=1)
    for uid in (1, 2):
        index.observe(_entry(uid / 10.0, "ip.send", "S", uid=uid))
        index.observe(_entry(uid / 10.0 + 0.01, "ip.deliver", "M", uid=uid))
    index.observe(_entry(0.9, "ip.send", "S", uid=3))  # still in flight
    assert index.evicted == 1
    records = timeline_records(index)
    assert {r["uid"] for r in records} == {2, 3}
    document = json.loads(json.dumps(chrome_trace(index)))
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert {e["tid"] for e in slices} == {2, 3}
    # The in-flight journey's only step renders as a zero-length marker.
    flight = [e for e in slices if e["tid"] == 3]
    assert len(flight) == 1 and flight[0]["dur"] == 0


# ----------------------------------------------------------------------
# Causal span DAG export (repro.obs)
# ----------------------------------------------------------------------

def _span_recorder():
    from repro.obs import SpanRecorder

    recorder = SpanRecorder()
    recorder.consume(1.0, "mhrp.register", "M", {
        "event": "send", "kind": "ha-register", "to": "HA", "attempt": 0,
    })
    recorder.consume(1.1, "mhrp.register", "HA", {
        "event": "ha-register", "mobile_host": "M", "foreign_agent": "FA",
    })
    recorder.consume(2.0, "mhrp.tunnel", "S", {
        "event": "sender-encapsulate", "uid": 7,
    })
    recorder.consume(2.1, "mhrp.tunnel", "FA", {
        "event": "fa-deliver", "uid": 7,
    })
    return recorder


def test_span_chrome_trace_has_nesting_and_flow_arrows():
    from repro.telemetry.exporters import span_chrome_trace

    document = json.loads(json.dumps(span_chrome_trace(_span_recorder())))
    events = document["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    flows = [e for e in events if e["ph"] in ("s", "f")]
    assert len(slices) == 4
    assert all(e["pid"] == 2 for e in slices)
    # Two traces -> two parent->child edges -> one s/f pair each.
    assert len(flows) == 4
    starts = {e["id"]: e["ts"] for e in flows if e["ph"] == "s"}
    ends = {e["id"]: e["ts"] for e in flows if e["ph"] == "f"}
    assert set(starts) == set(ends)
    for flow_id, ts in starts.items():
        assert ends[flow_id] >= ts
    # Parent slices last until their latest descendant (proper nesting).
    register_root = [e for e in slices if e["name"].startswith("send @")][0]
    assert abs(register_root["dur"] - 100_000) < 1e-3


def test_export_span_chrome_trace_to_file(tmp_path):
    from repro.telemetry.exporters import export_span_chrome_trace

    path = tmp_path / "spans.json"
    n = export_span_chrome_trace(_span_recorder(), str(path))
    document = json.loads(path.read_text())
    assert len(document["traceEvents"]) == n


def test_figure1_perfetto_export_is_loadable():
    """The acceptance criterion: a Figure-1 run exports as valid
    trace-event JSON with every packet as its own track."""
    from repro.telemetry.cli import figure1_scenario

    _, hub = figure1_scenario(seed=42)
    document = json.loads(json.dumps(chrome_trace(hub.index)))
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(slices) > 50
    assert len({e["tid"] for e in slices}) == len(hub.index)


def test_figure1_jsonl_export_matches_the_committed_golden(tmp_path, capsys):
    """``python -m repro health figure1 --jsonl`` writes the journey
    timeline of the walkthrough byte for byte as committed."""
    from pathlib import Path

    from repro.telemetry.cli import health_main

    golden = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "results" / "journeys_figure1.jsonl"
    )
    out = tmp_path / "figure1.jsonl"
    assert health_main(["figure1", "--quiet", "--jsonl", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()
