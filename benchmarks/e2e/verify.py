"""Output checks: is what the benchmark timed a correct run?

A fast wrong answer must not score.  Each check compares the workload's
run with an independent execution of the same spec and names what
disagreed; :func:`verify_workload` returns those names (empty = correct).

==========  ========================================================
workloads   oracle
==========  ========================================================
all         a second pass gives the same events, ops and health
``*-sim``   ``"batched"`` gives byte-identical tracer output;
            one ``run()`` to the horizon equals the same session run
            in 20 ``Session.run(until=...)`` slices
pingstorm   ``check_spec(spec).ok`` (simulator vs engines)
fork        every fork equals the cold ``run_full()`` (in ``drive``)
partitioned ``workers=0`` and ``workers=4`` fingerprints are equal
==========  ========================================================

The sliced run is there because of a defect found while sizing (not
fixed here): ``EventQueue.compact()`` rebinds the heap while the run
loop holds an alias, so a compaction triggered from inside an event
strands later pushes and a run is silently truncated.  A sliced run
re-reads the heap at every slice, so it disagrees with the single run
exactly when that happened; ``compactions`` is reported alongside.
``check_spec`` is the oracle for the ping storm only: on the dense
handoff spec simulator and engines legitimately differ in per-node
ordering (input for the ROADMAP's differential-fuzz item).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro import backend as facade
from repro.scenario.spec import ScenarioSpec

from drive import PassResult, health_digest, prepare_forks, run_pass, setup_once
from workloads import Workload

#: Slices the sliced-run oracle cuts the horizon into.
SLICES = 20


def tracer_digest(tracer) -> str:
    """sha256 over the rendered trace, entry by entry."""
    digest = hashlib.sha256()
    for entry in tracer:
        digest.update(str(entry).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def differences(name: str, reference: Dict[str, object], candidate: Dict[str, object]) -> List[str]:
    """``name:<key>`` for every key on which the two observations differ."""
    return [
        f"{name}:{key}"
        for key in sorted(set(reference) | set(candidate))
        if reference.get(key) != candidate.get(key)
    ]


def observe_sim(done: PassResult) -> Dict[str, object]:
    """What a simulator pass is compared on: counts, health and trace."""
    seen = done.fingerprint()
    seen["tracer_sha256"] = tracer_digest(done.result.trace)
    return seen


def sliced_run(workload: Workload, spec: ScenarioSpec) -> Tuple[Dict[str, object], int]:
    """The spec run in :data:`SLICES` ``Session.run(until=...)`` slices,
    set up exactly as the facade sets up a ``sim`` run.  Returns what
    :func:`observe_sim` compares, and the queue's compaction count."""
    from repro.scenario.session import Session

    session = Session(spec)
    if workload.obs:
        from repro.obs import ObsPlane

        session.sim.attach(ObsPlane())
    session.run_to_checkpoint()
    session.install_tail()
    for k in range(1, SLICES + 1):
        session.run(until=spec.horizon * k / SLICES)
    seen = {
        "events": session.sim.events_processed,
        "health_sha256": health_digest(session.telemetry.summary()),
        "tracer_sha256": tracer_digest(session.sim.tracer),
    }
    return seen, session.sim.queue.compactions


def verify_workload(workload: Workload, spec: ScenarioSpec, scale: float) -> Tuple[List[str], Dict[str, object]]:
    """Run every oracle that applies; returns (violations, notes)."""
    violations: List[str] = []
    notes: Dict[str, object] = {}
    forks = None
    if workload.kind == "fork":
        _, snapshot = setup_once(workload, spec)
        forks = prepare_forks(spec, snapshot)

    first = run_pass(workload, spec, scale, forks)
    second = run_pass(workload, spec, scale, forks)
    violations += first.violations
    violations += differences("repeat", first.fingerprint(), second.fingerprint())
    notes["fingerprint"] = first.fingerprint()

    if workload.is_sim:
        reference = observe_sim(first)
        batched = run_pass(workload, spec, scale, backend="batched")
        violations += differences("sim-vs-batched", reference, observe_sim(batched))
        sliced, compactions = sliced_run(workload, spec)
        notes["compactions"] = compactions
        violations += differences(
            "single-vs-sliced", {key: reference[key] for key in sliced}, sliced
        )
    if workload.kind == "ping":
        from repro.wire.conformance import check_spec

        report = check_spec(spec)
        violations += [f"check_spec:{line}" for line in report.mismatches]
    if workload.backend == "partitioned":
        parallel = facade.run(spec, "partitioned", workers=spec.partitions)
        violations += differences("workers0-vs-workers4", first.result.trace, parallel.trace)
    return violations, notes
