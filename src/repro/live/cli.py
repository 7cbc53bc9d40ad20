"""``python -m repro live`` — run a scenario over real UDP sockets.

Boots a ScenarioSpec topology as sans-io engines on loopback UDP (one
socket per node interface), runs the schedule against the wall clock at
a configurable speed factor, and reports the protocol-health summary.
``--conformance`` additionally runs the same spec on the discrete-event
simulator and diffs the two observations (per-node protocol-event
sequences plus the timing-free health fingerprint), exiting 1 on any
divergence — the same gate the CI ``live-smoke`` job runs.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.clibase import build_parser

def _render_summary(run, summary: dict, report) -> str:
    lines = [
        f"live run {run.spec.name!r}: horizon {run.horizon:g}s at "
        f"{run.speed:g}x ({run.horizon / run.speed:.2f}s wall)",
        f"  sockets: {len(run._endpoints)}  datagrams: "
        f"{run.datagrams_sent} sent, {run.datagrams_received} received, "
        f"{run.datagrams_unresolved} unresolved",
        f"  health: {summary.get('moves', 0)} moves, "
        f"{summary.get('registrations', 0)} registrations, "
        f"{summary.get('loops_dissolved', 0)} loops dissolved, "
        f"{summary.get('packets_delivered', 0)} packets delivered",
    ]
    if report is not None:
        lines.append("  " + report.render().replace("\n", "\n  "))
    return "\n".join(lines)


def live_main(argv: Optional[List[str]] = None) -> int:
    from repro.backend import resolve_spec
    from repro.live.backend import DEFAULT_SPEED

    parser = build_parser(
        "live",
        "run a scenario on the live asyncio-UDP backend "
        "(sans-io engines over loopback sockets)",
        seed_help="override the scenario's seed",
    )
    parser.add_argument(
        "scenario", nargs="?", default="figure1",
        help="a corpus scenario name or a scenario JSON path "
             "(default figure1; an unknown name lists the corpus)",
    )
    parser.add_argument(
        "--speed", type=float, default=DEFAULT_SPEED,
        help=f"virtual seconds per wall second (default {DEFAULT_SPEED:g})",
    )
    parser.add_argument(
        "--conformance", action="store_true",
        help="also run the simulator reference and diff the protocol-"
             "event projections; exit 1 on divergence",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="hard wall-clock cap in seconds "
             "(default: horizon/speed + 30)",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="attach the repro.obs plane (causal spans + runtime metrics)",
    )
    parser.add_argument(
        "--metrics-dump", metavar="PATH", default=None,
        help="serve /metrics over loopback HTTP during the run, scrape "
             "it mid-run over a real socket, and write the exposition "
             "body to PATH (implies --obs)",
    )
    parser.add_argument(
        "--snapshots", metavar="PATH", default=None,
        help="append one JSONL runtime snapshot per sampler tick to "
             "PATH (implies --obs)",
    )
    parser.add_argument(
        "--dag", action="store_true",
        help="print the normalized causal span DAG as JSON after the "
             "run (implies --obs)",
    )
    args = parser.parse_args(argv)

    try:
        spec = resolve_spec(args.scenario)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.seed is not None:
        spec.seed = args.seed

    from repro.live.backend import LiveRun
    from repro.telemetry.health import ProtocolHealth
    from repro.wire.conformance import (
        backend_run_from_events,
        check_spec,
    )

    want_obs = args.obs or args.dag or bool(args.metrics_dump or args.snapshots)
    obs = None
    if want_obs:
        from repro.obs import ObsPlane

        obs = ObsPlane()
    health = ProtocolHealth()
    run = LiveRun(
        spec, speed=args.speed, health=health, obs=obs,
        serve_metrics=bool(args.metrics_dump),
        snapshot_path=args.snapshots,
    )
    timeout = (
        args.timeout if args.timeout is not None
        else run.horizon / run.speed + 30.0
    )

    async def _self_scrape() -> str:
        # Scrape our own /metrics endpoint over a real TCP connection
        # halfway through the run — proving the exposition path works
        # while the scenario is in flight, exactly as an external
        # scraper would see it.
        from repro.obs.server import scrape

        while run.metrics_port is None:
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.5 * run.horizon / run.speed)
        return await scrape(run.metrics_port)

    async def _bounded():
        scraper = (
            asyncio.ensure_future(_self_scrape())
            if args.metrics_dump else None
        )
        try:
            await asyncio.wait_for(run.main(), timeout=timeout)
        finally:
            if scraper is not None and not scraper.done():
                scraper.cancel()
        return await scraper if scraper is not None else None

    try:
        exposition = asyncio.run(_bounded())
    except asyncio.TimeoutError:
        print(
            f"live run exceeded the {timeout:g}s wall-clock cap",
            file=sys.stderr,
        )
        return 1
    if args.metrics_dump and exposition is not None:
        Path(args.metrics_dump).write_text(exposition)

    summary = health.summary()
    report = None
    if args.conformance:
        candidate = backend_run_from_events(
            "live", (event for _, event in run.events), health=health
        )
        report = check_spec(spec, candidate=candidate)

    dag = None
    if args.dag:
        from repro.obs import normalized_dag

        dag = normalized_dag(obs.spans)

    if args.as_json:
        payload = {
            "scenario": spec.name,
            "speed": run.speed,
            "horizon": run.horizon,
            "sockets": len(run._endpoints),
            "datagrams_sent": run.datagrams_sent,
            "datagrams_received": run.datagrams_received,
            "datagrams_unresolved": run.datagrams_unresolved,
            "summary": summary,
        }
        if obs is not None:
            payload["obs"] = {
                "spans": obs.spans.summary(),
                "runtime_samples": run.runtime_samples,
                "drift_warnings": run.drift_warnings,
                "max_drift_virtual": round(run.clock.max_drift_virtual, 6),
            }
        if dag is not None:
            payload["dag"] = dag
        if report is not None:
            payload["conformance"] = {
                "ok": report.ok,
                "mismatches": report.mismatches,
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif not args.quiet:
        print(_render_summary(run, summary, report))
        if obs is not None:
            spans = obs.spans.summary()
            print(
                f"  obs: {spans['spans']} spans in {spans['traces']} "
                f"traces ({spans['merged']} retransmits merged); "
                f"max drift {run.clock.max_drift_virtual:.3f}s virtual "
                f"over {run.runtime_samples} samples, "
                f"{run.drift_warnings} drift warnings"
            )
        if dag is not None:
            print(json.dumps(dag, indent=2))
    return 0 if report is None or report.ok else 1
