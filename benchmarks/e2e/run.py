#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, seven workloads.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
        [--trace 0|1] [--verify] [--selfcheck] [--json] [--quick]
        [--dump-specs DIR]

With ``--workload`` it measures that workload and ends its standard
output with one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Without ``--workload`` it runs all
seven.  See ``README.md`` in this directory for what is measured and why.

This process only orchestrates: each workload is measured in a fresh
child interpreter (so ``peak_rss_mb`` and warm-up state belong to that
workload alone), the output checks run in another, and ``import
repro.backend`` is timed in fresh interpreters of its own.  Children
run one after another, never side by side.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Timed passes never fewer than this (the issue's floor).
MIN_PASSES = 5
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Fresh interpreters timing ``import repro.backend``.
IMPORT_REPEATS = 5


def _load_json(*path: str) -> dict:
    with open(os.path.join(*path)) as handle:
        return json.load(handle)


def summarize(values) -> dict:
    """Median, quartiles, extremes and n of a sample (n >= 1)."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": values[0],
        "max": values[-1],
        "n": len(values),
    }


# ======================================================================
# Children: everything that imports the program
# ======================================================================
def _child_imports():
    sys.path.insert(0, SRC)
    import drive
    import workloads

    return drive, workloads


def child_timed(args) -> dict:
    """Set-up x SETUP_REPEATS, one warm-up pass, then timed passes for
    ``--seconds`` (at least MIN_PASSES; one with ``--quick``)."""
    import resource

    drive, workloads = _child_imports()
    workload = workloads.WORKLOADS[args.workload]
    spec = workload.build(args.seed, args.scale)

    setups, snapshot = [], None
    for _ in range(1 if args.quick else SETUP_REPEATS):
        snapshot = None
        gc.collect()
        stages, snapshot = drive.setup_once(workload, spec)
        setups.append(stages["total_s"])
    forks = drive.prepare_forks(spec, snapshot) if workload.kind == "fork" else None

    reference = drive.run_pass(workload, spec, args.scale, forks)
    fingerprint = reference.fingerprint()
    del reference

    passes = []
    min_passes = 1 if args.quick else MIN_PASSES
    deadline = time.perf_counter() + args.seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        gc.collect()
        done = drive.run_pass(workload, spec, args.scale, forks)
        done.result = None
        if done.fingerprint() != fingerprint:
            done.violations.append("pass-differs-from-first")
        passes.append(done)

    good = [p for p in passes if not p.violations]
    return {
        "fingerprint": fingerprint,
        "setup_spec_s": setups,
        "wall_s": summarize(p.wall_s for p in passes),
        "cpu_s": summarize(p.cpu_s for p in passes),
        "ops_per_s": summarize(p.ops_ok / p.wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_attempted": sum(p.ops_attempted for p in passes),
        "ops_ok": sum(p.ops_ok for p in good),
        "ops_failed": sum(p.ops_attempted for p in passes if p.violations),
        "violations": sorted({v for p in passes for v in p.violations}),
    }


def child_verify(args) -> dict:
    drive, workloads = _child_imports()
    import verify

    workload = workloads.WORKLOADS[args.workload]
    spec = workload.build(args.seed, args.scale)
    violations, notes = verify.verify_workload(workload, spec, args.scale)
    return {"violations": violations, "notes": notes}


def child_traced(args) -> dict:
    _child_imports()
    import probes

    return probes.traced_run(args.workload, args.seed, args.scale, OUT)


CHILDREN = {"timed": child_timed, "verify": child_verify, "traced": child_traced}


# ======================================================================
# Parent: orchestration, printing, the contract
# ======================================================================
def spawn(mode: str, workload: str, args) -> dict:
    """Run one child to completion and parse the JSON on its last line."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--child", mode, "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", str(args.scale),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: {mode} child exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def time_imports(repeats: int) -> dict:
    """``import repro.backend`` in fresh interpreters, with numpy (an
    optional third-party import of the program) loaded before the clock
    starts: its import alone swings between 50 and 120 ms on this box,
    which is not the program's doing and would drown what is."""
    code = (
        "import sys, time\n"
        "try:\n    import numpy\nexcept ImportError:\n    pass\n"
        "sys.path.insert(0, sys.argv[1]); t = time.perf_counter()\n"
        "import repro.backend; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code, SRC], stdout=subprocess.PIPE, text=True, check=True
        )
        samples.append(float(done.stdout))
    return summarize(samples)


def pinned_status(pinned: dict, args, workload: str, fingerprint: dict) -> str:
    expected = (
        pinned.get("fingerprints", {})
        .get(f"scale={args.scale:g}", {})
        .get(f"seed={args.seed}", {})
        .get(workload)
    )
    if expected is None:
        return "unpinned"
    return "pinned" if expected == fingerprint else "fingerprint_changed"


def measure_end_to_end(workload: str, args, contract, pinned, verify: bool) -> dict:
    """One workload, timed (and checked): the ``--trace 0`` document."""
    imports = time_imports(1 if args.quick else IMPORT_REPEATS)
    timed = spawn("timed", workload, args)
    violations = list(timed["violations"])
    notes = {}
    if verify:
        checked = spawn("verify", workload, args)
        violations += checked["violations"]
        notes = checked["notes"]
        violations += [
            f"verify-vs-timed:{key}"
            for key, value in notes["fingerprint"].items()
            if timed["fingerprint"][key] != value
        ]
    values = {
        "setup_s": summarize(imports["value"] + s for s in timed["setup_spec_s"]),
        "wall_s": timed["wall_s"],
        "cpu_s": timed["cpu_s"],
        "ops_per_s": timed["ops_per_s"],
        "peak_rss_mb": summarize([timed["peak_rss_mb"]]),
    }
    attempted = timed["ops_attempted"]
    # A failed oracle means nothing this run produced can be trusted.
    failed = attempted if violations else timed["ops_failed"]
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    return {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "end_to_end": {
            name: dict(values[name], unit=unit) for name, unit in units.items()
        },
        "import_s": imports,
        "ops_attempted": attempted,
        "ops_ok": 0 if violations else timed["ops_ok"],
        "ops_failed": failed,
        "correct": not violations,
        "violations": violations,
        "verified": verify,
        "notes": notes,
        "fingerprint": timed["fingerprint"],
        "fingerprint_status": pinned_status(pinned, args, workload, timed["fingerprint"]),
    }


def check_only(workload: str, args, pinned) -> dict:
    """One workload through the oracles, untimed: the ``--verify`` document."""
    checked = spawn("verify", workload, args)
    fingerprint = checked["notes"]["fingerprint"]
    return {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "correct": not checked["violations"],
        "violations": checked["violations"],
        "notes": checked["notes"],
        "fingerprint": fingerprint,
        "fingerprint_status": pinned_status(pinned, args, workload, fingerprint),
    }


def measure_per_layer(workload: str, args, contract, pinned) -> dict:
    """One workload, traced: the ``--trace 1`` document."""
    traced = spawn("traced", workload, args)
    traced["per_layer"]["backend.import_s"] = time_imports(
        1 if args.quick else IMPORT_REPEATS
    )["value"]
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    missing = sorted(set(units) - set(traced["per_layer"]))
    extra = sorted(set(traced["per_layer"]) - set(units))
    if missing or extra:
        raise SystemExit(f"per-layer names out of step with BENCHMARK.json: -{missing} +{extra}")
    violations = traced["violations"]
    return {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "per_layer": {
            name: {"value": traced["per_layer"][name], "unit": unit}
            for name, unit in units.items()
        },
        "ops_attempted": traced["ops_attempted"],
        "ops_failed": traced["ops_attempted"] if violations else 0,
        "correct": not violations,
        "violations": violations,
        "trace_file": traced["trace_file"],
        "fingerprint": traced["fingerprint"],
        "fingerprint_status": pinned_status(pinned, args, workload, traced["fingerprint"]),
    }


def contract_line(document: dict) -> str:
    """The driver's result object: exactly four keys."""
    metrics = document.get("per_layer") or document["end_to_end"]
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["ops_attempted"],
            "failed": document["ops_failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
            },
        }
    )


def render(document: dict, contract: dict) -> str:
    lines = [
        f"== {document['workload']}  seed {document['seed']}  scale {document['scale']:g} =="
    ]
    if "end_to_end" in document:
        spec = {m["name"]: m for m in contract["end_to_end"]}
        for name, m in document["end_to_end"].items():
            lines.append(
                f"  {name:<12} {m['value']:>12.4f} {m['unit']:<6} "
                f"q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  min {m['min']:.4f}  "
                f"max {m['max']:.4f}  n={m['n']}  "
                f"({spec[name]['better']} is better, bound {spec[name]['bound']:.0%})"
            )
        lines.append(f"  import_s     {document['import_s']['value']:>12.4f} s      (part of setup_s)")
    elif "per_layer" in document:
        for name, m in document["per_layer"].items():
            if m["value"]:
                lines.append(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
        lines.append("  (per-layer metrics that are 0 on this workload are not shown)")
        lines.append(f"  spans: {document['trace_file']}")
    if "ops_attempted" in document:
        lines.append(
            f"  ops_attempted {document['ops_attempted']}  ops_failed {document['ops_failed']}"
            + (f"  ops_ok {document['ops_ok']}" if "ops_ok" in document else "")
        )
    status = "correct" if document["correct"] else "WRONG: " + ", ".join(document["violations"])
    if document.get("verified") is False:
        status += " (pass-to-pass checks only; --verify runs the oracles)"
    lines.append(f"  checks: {status}")
    lines.append(f"  fingerprint: {document['fingerprint_status']} {json.dumps(document['fingerprint'])}")
    if document.get("notes", {}).get("compactions"):
        lines.append(f"  note: netsim.compactions = {document['notes']['compactions']}")
    return "\n".join(lines)


def selfcheck(names, args, contract, pinned) -> int:
    """The timed suite twice; every median must repeat within its bound."""
    rounds = [
        {name: measure_end_to_end(name, args, contract, pinned, verify=False) for name in names}
        for _ in range(2)
    ]
    worst_by_metric, failed = {}, False
    print(f"{'workload':<20} {'metric':<12} {'first':>12} {'second':>12} {'gap':>8} {'bound':>7}")
    for name in names:
        for m in contract["end_to_end"]:
            a = rounds[0][name]["end_to_end"][m["name"]]["value"]
            b = rounds[1][name]["end_to_end"][m["name"]]["value"]
            gap = abs(a - b) / min(a, b)
            over = gap > m["bound"]
            failed |= over
            worst_by_metric[m["name"]] = max(worst_by_metric.get(m["name"], 0.0), gap)
            print(
                f"{name:<20} {m['name']:<12} {a:>12.4f} {b:>12.4f} {gap:>8.2%} "
                f"{m['bound']:>7.0%}{'  OVER' if over else ''}"
            )
        if rounds[0][name]["fingerprint"] != rounds[1][name]["fingerprint"]:
            failed = True
            print(f"{name:<20} fingerprints differ between the two rounds")
    if args.json:
        print(json.dumps({"selfcheck_worst_gap": worst_by_metric, "rounds": rounds}))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", action="store_true",
                        help="run the output oracles only (no timing)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="time the suite twice; exit 1 if a median moves more than its bound")
    parser.add_argument("--json", action="store_true",
                        help="print one machine-readable document instead of the tables")
    parser.add_argument("--quick", action="store_true", help="1/20 size, one pass (smoke test)")
    parser.add_argument("--dump-specs", metavar="DIR",
                        help="write each generated ScenarioSpec as JSON and exit")
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--child", choices=sorted(CHILDREN), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    contract = _load_json(ROOT, "BENCHMARK.json")
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])

    if args.child:
        print(json.dumps(CHILDREN[args.child](args)))
        return 0

    sys.path.insert(0, SRC)
    from workloads import QUICK_SCALE, SCALE, WORKLOADS

    args.scale = QUICK_SCALE if args.quick else SCALE
    if args.quick:
        args.seconds = 0.0
    names = [w["name"] for w in contract["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise SystemExit("BENCHMARK.json and workloads.py name different workloads")
    if args.workload:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
        names = [args.workload]
    pinned = _load_json(HERE, "pinned.json")

    if args.dump_specs:
        os.makedirs(args.dump_specs, exist_ok=True)
        for name in names:
            path = os.path.join(args.dump_specs, f"{name}-seed{args.seed}.json")
            with open(path, "w") as handle:
                json.dump(WORKLOADS[name].build(args.seed, args.scale).to_dict(), handle)
            print(path)
        return 0
    if args.selfcheck:
        return selfcheck(names, args, contract, pinned)

    documents = []
    for name in names:
        if args.verify:
            document = check_only(name, args, pinned)
        elif args.trace:
            document = measure_per_layer(name, args, contract, pinned)
        else:
            document = measure_end_to_end(name, args, contract, pinned, verify=True)
        documents.append(document)
        if not args.json:
            print(render(document, contract))
    if args.json:
        print(json.dumps({"seed": args.seed, "scale": args.scale, "workloads": documents}))
    elif args.workload and not args.verify:
        print(contract_line(documents[0]))
    # A measurement that produced a result exits 0 and says in the result
    # whether it is correct; --verify and --selfcheck answer by exit status.
    return 1 if args.verify and not all(d["correct"] for d in documents) else 0


if __name__ == "__main__":
    sys.exit(main())
