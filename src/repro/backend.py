"""One front door for every execution backend.

The repo grew five ways to execute a :class:`~repro.scenario.spec.ScenarioSpec`:

==============  ========================================================
``sim``         the discrete-event :class:`~repro.netsim.simulator.Simulator`
                via :class:`~repro.scenario.session.Session` (the reference)
``batched``     the same simulator with the batched event kernel
                (same-tick sweeps + bulk scheduling) enabled
``engine``      the sans-io protocol engines on the deterministic
                in-process :class:`~repro.wire.driver.EngineDriver`
``live``        the same engines over real loopback UDP sockets against
                the wall clock (:mod:`repro.live`)
``partitioned`` the conservative-synchronization parallel engine, one
                partition per campus (:mod:`repro.partition`)
==============  ========================================================

:func:`run` executes any of them behind one signature and returns a
uniform :class:`RunResult` — health summary, counters, a trace handle
and the backend-native result object for anything deeper.

``python -m repro run <scenario> --backend <name>`` is the CLI face of
the same facade.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.scenario.spec import ScenarioSpec

#: Every backend :func:`run` accepts.
BACKENDS = ("sim", "batched", "engine", "live", "partitioned")


@dataclass
class RunResult:
    """What every backend hands back: one uniform result surface.

    ``trace`` is a backend-appropriate handle — the simulator's
    :class:`~repro.netsim.trace.Tracer` for ``sim``/``batched``, the
    ``(time, event)`` log for ``engine``/``live``, and the fingerprint
    dict for ``partitioned``.  ``detail`` is the backend-native object
    (session, driver, live run, partitioned result) for anything the
    uniform surface doesn't carry.
    """

    backend: str
    spec_name: str
    status: str = "ok"
    events: int = 0
    sim_time: float = 0.0
    wall_seconds: float = 0.0
    health: Optional[dict] = None
    counters: Dict[str, object] = field(default_factory=dict)
    trace: Optional[object] = None
    detail: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _clone(spec: ScenarioSpec) -> ScenarioSpec:
    """A deep, independent copy (specs share mutable schedule lists)."""
    return ScenarioSpec.from_dict(spec.to_dict())


def _with_health(spec: ScenarioSpec) -> ScenarioSpec:
    """Ensure a health instrument so every RunResult carries a summary.

    Attaching :class:`~repro.telemetry.ProtocolHealth` only *observes*
    (a tracer subscription); it never alters event flow, so results
    stay byte-identical to a run without it."""
    if any(entry.get("kind") == "health" for entry in spec.instruments):
        return spec
    spec = _clone(spec)
    spec.instruments.append({"kind": "health"})
    return spec


def _as_obs_plane(obs):
    """``True`` means "make me one"; an object passes through."""
    if obs is None or obs is False:
        return None
    if obs is True:
        from repro.obs import ObsPlane

        return ObsPlane()
    return obs


# ----------------------------------------------------------------------
# Per-backend execution
# ----------------------------------------------------------------------
def _run_sim(spec, obs, until, batched: bool) -> RunResult:
    from repro.scenario.session import Session

    spec = _with_health(spec)
    started = time.perf_counter()
    session = Session(spec)
    if batched:
        # Per-instance opt-in: only this session's simulator routes
        # run() through the batched kernel.
        session.sim.default_batched = True
    obs_plane = _as_obs_plane(obs)
    if obs_plane is not None:
        session.sim.attach(obs_plane)
    session.run_to_checkpoint()
    session.install_tail()
    session.run(until=until)
    telemetry = session.telemetry
    return RunResult(
        backend="batched" if batched else "sim",
        spec_name=spec.name,
        events=session.sim.events_processed,
        sim_time=session.sim.now,
        wall_seconds=time.perf_counter() - started,
        health=telemetry.summary() if telemetry is not None else None,
        counters={"events": session.sim.events_processed},
        trace=session.sim.tracer,
        detail=session,
    )


def _run_engine(spec, obs, until) -> RunResult:
    from repro.telemetry.health import ProtocolHealth
    from repro.wire.driver import _run_engine_spec

    health = ProtocolHealth()
    started = time.perf_counter()
    driver = _run_engine_spec(
        spec,
        health=health,
        obs=_as_obs_plane(obs),
        until=until,
    )
    return RunResult(
        backend="engine",
        spec_name=spec.name,
        events=len(driver.events),
        sim_time=driver.now,
        wall_seconds=time.perf_counter() - started,
        health=health.summary(),
        counters={"events": len(driver.events)},
        trace=driver.events,
        detail=driver,
    )


def _run_live(spec, obs, until, **opts) -> RunResult:
    if until is not None:
        raise ValueError("the live backend always runs to the spec horizon")
    import asyncio

    from repro.live.backend import DEFAULT_SPEED, LiveRun
    from repro.telemetry.health import ProtocolHealth

    health = ProtocolHealth()
    started = time.perf_counter()
    live_run = LiveRun(
        spec,
        speed=float(opts.pop("speed", None) or DEFAULT_SPEED),
        health=health,
        obs=_as_obs_plane(obs),
        **opts,
    )
    asyncio.run(live_run.main())
    return RunResult(
        backend="live",
        spec_name=spec.name,
        events=len(live_run.events),
        sim_time=live_run.horizon,
        wall_seconds=time.perf_counter() - started,
        health=health.summary(),
        counters={
            "events": len(live_run.events),
            "datagrams_sent": live_run.datagrams_sent,
            "datagrams_received": live_run.datagrams_received,
        },
        trace=live_run.events,
        detail=live_run,
    )


def _run_partitioned(spec, obs, until, **opts) -> RunResult:
    if until is not None:
        raise ValueError("the partitioned backend always runs to the spec horizon")
    if obs:
        raise ValueError(
            "the partitioned backend takes instruments from the spec "
            "(per partition), not an obs= plane"
        )
    if not spec.partitions:
        raise ValueError(
            f"spec {spec.name!r} has no partitions field; "
            f"set ScenarioSpec.partitions (schema v2) to shard it"
        )
    from repro.partition import run_partitioned

    workers = opts.pop("workers", None)
    if workers is None:
        workers = spec.partitions  # parallel by default: that's the point
    result = run_partitioned(spec, workers=int(workers))
    merged_counters: Dict[str, object] = {
        "events": result.events,
        "partitions": result.partitions,
        "mode": result.mode,
        "windows": result.windows,
        "exports_delivered": result.exports_delivered,
        "exports_dropped": result.exports_dropped,
    }
    for partition in result.results:
        for key, value in partition["counters"].items():
            merged_counters[key] = merged_counters.get(key, 0) + value
    return RunResult(
        backend="partitioned",
        spec_name=spec.name,
        events=result.events,
        sim_time=spec.horizon,
        wall_seconds=result.wall_seconds,
        health=result.health_merged(),
        counters=merged_counters,
        trace=result.fingerprint(),
        detail=result,
    )


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
def run(
    spec: ScenarioSpec,
    backend: str = "sim",
    *,
    obs=None,
    seed: Optional[int] = None,
    until: Optional[float] = None,
    **opts,
) -> RunResult:
    """Execute ``spec`` on any backend and return a :class:`RunResult`.

    Args:
        spec: the scenario (never mutated; overrides clone it).
        backend: one of :data:`BACKENDS`.
        obs: ``True`` to attach a fresh :class:`~repro.obs.ObsPlane`,
            or an existing plane to attach; ``None`` for no obs.
        seed: override the spec's seed.
        until: stop the clock early (``sim``/``batched``/``engine``
            only — the live and partitioned backends run to the
            horizon).
        **opts: backend-specific — ``speed`` (live), ``workers``
            (partitioned; ``0`` = serial reference, default one
            process per partition).
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    if seed is not None:
        spec = _clone(spec)
        spec.seed = int(seed)
    if backend == "sim":
        return _run_sim(spec, obs, until, batched=False)
    if backend == "batched":
        return _run_sim(spec, obs, until, batched=True)
    if backend == "engine":
        return _run_engine(spec, obs, until)
    if backend == "live":
        return _run_live(spec, obs, until, **opts)
    return _run_partitioned(spec, obs, until, **opts)


# ----------------------------------------------------------------------
# CLI: python -m repro run
# ----------------------------------------------------------------------
def _corpus_specs():
    """Conformance corpus first: a match there never imports
    ``repro.partition`` (~30 ms of multiprocessing machinery)."""
    from repro.wire.conformance import conformance_specs

    yield from conformance_specs()
    from repro.partition.corpus import partition_corpus_specs

    yield from partition_corpus_specs()


def scenario_names() -> list:
    """The one scenario-name table: every name :func:`resolve_spec`
    knows (``run``, ``live`` and ``top`` all resolve through it)."""
    return ["figure1"] + [spec.name for spec in _corpus_specs()]


def resolve_spec(name: str) -> ScenarioSpec:
    """A corpus name (conformance or partition; ``conformance-`` may be
    left out, ``figure1``/``walkthrough`` are aliases), or the path of a
    scenario JSON (spec or fuzzer-v1 format)."""
    import json
    from pathlib import Path

    if name in ("figure1", "walkthrough"):
        name = "figure1-walkthrough"
    for spec in _corpus_specs():
        if name in (spec.name, spec.name.replace("conformance-", "")):
            return spec
    path = Path(name)
    if not path.exists():
        raise FileNotFoundError(
            f"unknown scenario {name!r}: not one of "
            f"[{', '.join(scenario_names())}] and no such file"
        )
    data = json.loads(path.read_text())
    if "topology" in data:
        return ScenarioSpec.from_dict(data)
    return ScenarioSpec.from_fuzz_v1(data)


def _render_result(result: RunResult) -> str:
    health = result.health or {}
    lines = [
        f"{result.backend} run {result.spec_name!r}: "
        f"{result.events} events to t={result.sim_time:g}s "
        f"in {result.wall_seconds:.3f}s wall",
        f"  health: {health.get('moves', 0)} moves, "
        f"{health.get('registrations', 0)} registrations, "
        f"{health.get('packets_delivered', 0)} packets delivered, "
        f"{health.get('loops_dissolved', 0)} loops dissolved",
    ]
    if result.backend == "partitioned":
        lines.append(
            f"  partitions: {result.counters.get('partitions')} "
            f"({result.counters.get('mode')} mode, "
            f"{result.counters.get('windows')} windows, "
            f"{result.counters.get('exports_delivered')} cross-partition "
            f"events)"
        )
    return "\n".join(lines)


def run_main(argv=None) -> int:
    """``python -m repro run`` — any scenario, any backend, one door."""
    import json
    import sys

    from repro.clibase import build_parser

    parser = build_parser(
        "run",
        "run a scenario on any execution backend "
        "(sim | batched | engine | live | partitioned)",
        seed_help="override the scenario's seed",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="figure1",
        help="corpus scenario name or spec JSON path (default: figure1)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="sim",
        help="execution backend (default: sim)",
    )
    parser.add_argument(
        "--until", type=float, default=None, metavar="T",
        help="stop the clock at T instead of the spec horizon",
    )
    parser.add_argument(
        "--speed", type=float, default=None, metavar="X",
        help="live backend: virtual seconds per wall second",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="partitioned backend: worker processes (0 = serial reference; "
             "default one per partition)",
    )
    args = parser.parse_args(argv)

    try:
        spec = resolve_spec(args.scenario)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    opts = {}
    if args.speed is not None:
        opts["speed"] = args.speed
    if args.workers is not None:
        opts["workers"] = args.workers
    try:
        result = run(
            spec, backend=args.backend, seed=args.seed, until=args.until, **opts
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.as_json:
        print(
            json.dumps(
                {
                    "backend": result.backend,
                    "spec": result.spec_name,
                    "status": result.status,
                    "events": result.events,
                    "sim_time": result.sim_time,
                    "wall_seconds": result.wall_seconds,
                    "counters": result.counters,
                    "health": result.health,
                },
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
    elif not args.quiet:
        print(_render_result(result))
    return 0
