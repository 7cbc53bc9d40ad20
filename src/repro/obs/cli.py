"""``python -m repro top`` — protocol health + runtime stats, one panel.

Two modes, chosen by the positional ``source``:

- **run mode** (default): ``source`` names a conformance-corpus
  scenario (or a scenario JSON path).  The scenario runs on the chosen
  ``--backend`` (``sim`` | ``driver`` | ``live``) with both a
  :class:`~repro.telemetry.health.ProtocolHealth` hub and an
  :class:`~repro.obs.ObsPlane` attached, then renders the combined
  panel: protocol health, causal span summary, hot-path stage timing,
  and (live) runtime drift/lag stats.
- **tail mode**: ``source`` is the path of a JSONL runtime snapshot
  stream written by ``python -m repro live --snapshots PATH``; the
  latest row is rendered (``--follow`` keeps polling for new rows
  until the stream goes idle).

``--dag`` prints the normalized span DAG as JSON — the byte-identical
cross-backend artifact — and ``--perfetto PATH`` writes the span DAG
as a Chrome trace with causality flow arrows.
"""

from __future__ import annotations

import json
import sys
import time as _time
from pathlib import Path
from typing import List, Optional

from repro.clibase import build_parser

BACKENDS = ("sim", "driver", "live")


# ----------------------------------------------------------------------
# Run mode
# ----------------------------------------------------------------------

def _run_backend(spec, backend: str, speed: float):
    """Run ``spec`` through the facade with health + obs attached;
    returns (health, obs, extra-runtime-lines)."""
    from repro.backend import run
    from repro.obs import ObsPlane

    obs = ObsPlane()
    if backend == "sim":
        session = run(spec, "sim", obs=obs).detail
        return session.telemetry, obs, []
    if backend == "driver":
        driver = run(spec, "engine", obs=obs).detail
        return driver.feed.health, obs, []
    live = run(spec, "live", obs=obs, speed=speed).detail
    extra = [
        f"  runtime: {live.runtime_samples} samples, max drift "
        f"{live.clock.max_drift_virtual:.3f}s virtual, "
        f"{live.drift_warnings} drift warnings, "
        f"{live.datagrams_sent} datagrams sent / "
        f"{live.datagrams_received} received",
    ]
    return live.feed.health, obs, extra


# ----------------------------------------------------------------------
# Tail mode
# ----------------------------------------------------------------------

def _read_rows(path: Path, offset: int) -> tuple:
    """New complete JSONL rows past byte ``offset`` → (rows, new offset)."""
    with open(path) as handle:
        handle.seek(offset)
        chunk = handle.read()
    rows = []
    consumed = 0
    for line in chunk.splitlines(keepends=True):
        if not line.endswith("\n"):
            break  # partial row still being written
        consumed += len(line)
        line = line.strip()
        if line:
            rows.append(json.loads(line))
    return rows, offset + consumed


def _render_row(row: dict) -> str:
    lines = [
        f"t={row.get('t_virtual', 0):8.3f}s virtual  "
        f"drift={row.get('drift_virtual', 0):.3f}s  "
        f"loop-lag={row.get('event_loop_lag', 0) * 1000:.1f}ms  "
        f"timers={row.get('timer_wheel_depth', 0)}",
        f"  datagrams: {row.get('datagrams_sent', 0)} sent, "
        f"{row.get('datagrams_received', 0)} received, "
        f"{row.get('datagrams_unresolved', 0)} unresolved; "
        f"spans: {row.get('spans', 0)}",
    ]
    health = row.get("health")
    if health:
        lines.append(
            f"  health: {health.get('moves', 0)} moves, "
            f"{health.get('registrations', 0)} registrations, "
            f"{health.get('packets_delivered', 0)} delivered, "
            f"{health.get('packets_dropped', 0)} dropped"
        )
    counters = (row.get("metrics") or {}).get("counters") or {}
    top = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
    if top:
        lines.append("  top counters:")
        for key, value in top:
            lines.append(f"    {key:56s} {value}")
    return "\n".join(lines)


def _tail(path: Path, args) -> int:
    rows, offset = _read_rows(path, 0)
    if not rows and not args.follow:
        print(f"{path}: no snapshot rows to show", file=sys.stderr)
        return 3
    if args.follow:
        idle_since = _time.monotonic()
        while _time.monotonic() - idle_since < args.idle_timeout:
            if rows:
                print(_render_row(rows[-1]))
                print()
                idle_since = _time.monotonic()
            _time.sleep(args.poll_interval)
            rows, offset = _read_rows(path, offset)
        return 0
    if args.as_json:
        print(json.dumps(rows[-1], indent=2, sort_keys=True))
    else:
        print(_render_row(rows[-1]))
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def top_main(argv: Optional[List[str]] = None) -> int:
    from repro.backend import resolve_spec
    from repro.live.backend import DEFAULT_SPEED

    parser = build_parser(
        "top",
        "protocol-health + runtime stats panel for a scenario run or a "
        "live snapshot stream",
        seed_help="override the scenario's seed (run mode)",
    )
    parser.add_argument(
        "source", nargs="?", default="figure1",
        help="a corpus scenario name (an unknown name lists the corpus), "
             "a scenario JSON path, or a JSONL snapshot stream from "
             "`live --snapshots` (default figure1)",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default="sim",
        help="which backend runs the scenario (default sim)",
    )
    parser.add_argument(
        "--speed", type=float, default=DEFAULT_SPEED,
        help=f"live-backend speed factor (default {DEFAULT_SPEED:g})",
    )
    parser.add_argument(
        "--dag", action="store_true",
        help="print the normalized causal span DAG as JSON",
    )
    parser.add_argument(
        "--perfetto", metavar="PATH",
        help="write the span DAG as a Chrome trace with causality "
             "flow arrows",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="tail mode: keep polling the snapshot stream for new rows",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=0.5,
        help="tail --follow poll period in seconds (default 0.5)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=5.0,
        help="tail --follow exits after this many idle seconds "
             "(default 5)",
    )
    args = parser.parse_args(argv)

    path = Path(args.source)
    if path.is_file() and path.suffix == ".jsonl":
        return _tail(path, args)

    try:
        spec = resolve_spec(args.source)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.seed is not None:
        spec.seed = args.seed

    health, obs, extra = _run_backend(spec, args.backend, args.speed)
    if len(obs.spans) == 0:
        print(
            f"scenario {spec.name!r} on backend {args.backend!r} "
            "produced no observability data — nothing to report",
            file=sys.stderr,
        )
        return 3

    if args.perfetto:
        from repro.telemetry.exporters import export_span_chrome_trace

        n = export_span_chrome_trace(obs.spans, args.perfetto)
        print(
            f"wrote {n} span trace events to {args.perfetto} "
            "(open in ui.perfetto.dev)",
            file=sys.stderr,
        )

    if args.as_json:
        payload = {
            "scenario": spec.name,
            "backend": args.backend,
            "health": health.summary(),
            "obs": obs.summary(),
        }
        if args.dag:
            payload["dag"] = obs.dag()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not args.quiet:
        title = f"{spec.name} on {args.backend} backend"
        print(health.render(title))
        print()
        print(obs.render("observability plane"))
        for line in extra:
            print(line)
    if args.dag:
        print(json.dumps(obs.dag(), indent=2))
    return 0
