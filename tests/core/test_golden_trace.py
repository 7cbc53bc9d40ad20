"""Golden-trace equivalence for the dataplane pipeline refactor.

The Figure-1 MHRP scenario below exercises every per-hop mechanism the
pipeline replaced: home-agent interception and tunneling, cache-agent
diversion at the sender, foreign-agent delivery and re-tunneling across
a handoff, location updates, and the return home.  The full tracer
output of a seed-code run (pre-refactor) is committed under
``golden/figure1_trace.json``; this test re-runs the scenario and
asserts the refactored path produces *identical* trace entries in the
same order — including the ``ip.deliver`` entries, so end-to-end
delivery order is covered too.

Regenerate the golden file (only when the scenario itself changes, never
to paper over a behaviour change) with::

    PYTHONPATH=src python tests/core/test_golden_trace.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.netsim.trace import jsonable

GOLDEN_PATH = Path(__file__).parent / "golden" / "figure1_trace.json"


def run_figure1_scenario():
    """The paper's Section 6 walkthrough, deterministically."""
    from repro.workloads.topology import build_figure1

    topo = build_figure1(seed=42)
    sim, s, m = topo.sim, topo.s, topo.m

    m.attach_home(topo.net_b)          # M starts at home: plain IP
    sim.run(until=5.0)
    m.attach(topo.net_d)               # roam to R4's cell
    sim.run(until=12.0)
    s.ping(m.home_address)             # first packet: via home agent,
    sim.run(until=16.0)                # then S tunnels directly
    s.ping(m.home_address)
    sim.run(until=20.0)
    m.attach(topo.net_e)               # handoff R4 -> R5 (Section 6.3)
    sim.run(until=28.0)
    s.ping(m.home_address)             # stale cache: R4 re-tunnels
    sim.run(until=32.0)
    m.attach_home(topo.net_b)          # return home
    sim.run(until=38.0)
    s.ping(m.home_address)             # plain IP again
    sim.run(until=42.0)
    return sim


def trace_rows(entries) -> list:
    """Trace entries in the golden file's JSON form."""
    return [
        {
            "time": entry.time,
            "category": entry.category,
            "node": entry.node,
            "detail": jsonable(entry.detail),
        }
        for entry in entries
    ]


def scenario_trace() -> list:
    return trace_rows(run_figure1_scenario().tracer)


def test_figure1_trace_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = scenario_trace()
    assert len(current) == len(golden), (
        f"trace length changed: {len(golden)} golden vs {len(current)} now"
    )
    for index, (want, got) in enumerate(zip(golden, current)):
        assert got == want, (
            f"trace diverges at entry {index}:\n  golden: {want}\n  now:    {got}"
        )


def test_figure1_delivery_order_matches_golden():
    """The ip.deliver subsequence alone — delivery order end to end."""
    golden = [e for e in json.loads(GOLDEN_PATH.read_text()) if e["category"] == "ip.deliver"]
    current = [e for e in scenario_trace() if e["category"] == "ip.deliver"]
    assert current == golden


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        print(__doc__)
        raise SystemExit(2)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(scenario_trace(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
