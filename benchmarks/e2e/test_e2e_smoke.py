"""Smoke test of the end-to-end benchmark at ``--quick`` scale.

Run as ``python -m pytest benchmarks/e2e -q`` (not part of the tier-1
``testpaths``).  It checks the benchmark's own contract — names, shapes,
determinism, that an oracle can fail — not the program's speed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import drive  # noqa: E402
import verify  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import QUICK_SCALE, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
NAMES = [w["name"] for w in CONTRACT["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def run_quick(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--quick", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_contract_names_are_well_formed_and_match_the_code():
    assert sorted(NAMES) == sorted(WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why and len(entry["why"]) <= 200
    names = NAMES + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_s", f"{layer}.share", f"{layer}.calls"} <= per_layer
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", NAMES)
def test_every_workload_emits_every_end_to_end_metric(workload):
    metrics = run_quick(workload, trace=0)
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", NAMES)
def test_every_workload_emits_every_per_layer_metric_and_shares_sum_to_one(workload):
    metrics = run_quick(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    shares = sum(metrics[f"{layer}.share"]["value"] for layer in LAYERS)
    assert shares == pytest.approx(1.0, abs=0.01)
    assert metrics["trace.attributed_share"]["value"] >= 0.90
    assert os.path.exists(os.path.join(HERE, "out", f"trace-{workload}.json"))


@pytest.mark.parametrize("workload", NAMES)
def test_generators_are_deterministic_in_the_seed(workload):
    build = WORKLOADS[workload].build
    assert build(7, QUICK_SCALE).to_dict() == build(7, QUICK_SCALE).to_dict()
    assert build(7, QUICK_SCALE).to_dict() != build(8, QUICK_SCALE).to_dict()


def test_an_oracle_fails_when_its_input_is_broken():
    """Compare the ping storm on ``sim`` with ``batched`` running a spec
    that lost one ping: the sim-vs-batched oracle must name differences."""
    workload = WORKLOADS["pingstorm-sim"]
    spec = workload.build(1, QUICK_SCALE)
    broken = workload.build(1, QUICK_SCALE)
    broken.pings.pop()
    reference = verify.observe_sim(drive.run_pass(workload, spec, QUICK_SCALE))
    same = verify.observe_sim(drive.run_pass(workload, spec, QUICK_SCALE, backend="batched"))
    other = verify.observe_sim(drive.run_pass(workload, broken, QUICK_SCALE, backend="batched"))
    assert verify.differences("sim-vs-batched", reference, same) == []
    named = verify.differences("sim-vs-batched", reference, other)
    assert "sim-vs-batched:tracer_sha256" in named and "sim-vs-batched:ops_ok" in named


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout == ""
