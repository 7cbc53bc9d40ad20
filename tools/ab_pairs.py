#!/usr/bin/env python3
"""A/B one benchmark workload: a parent ref against the working tree.

    python3 tools/ab_pairs.py --workload pingstorm-sim [--parent HEAD]
        [--seed 1] [--seconds 8] [--pairs 10]

Extracts ``--parent`` into a temporary directory with ``git archive``
(the directory goes where ``TMPDIR`` points), clears both trees'
``__pycache__``, then runs ``benchmarks/e2e/run.py --workload W --seed S
--seconds N`` in each tree, parent and change alternating which goes
first.  Prints each pair's ratio and win, each side's median and
quartiles, whether the gain rule holds on ``ops_per_s`` (at least 9
wins in 10 pairs and a median gap larger than the parent's
interquartile range; exit status 0 if so, else 1), and the median of
every end-to-end metric, flagging one that is worse than its
BENCHMARK.json bound.  Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The metric the gain rule is applied to (higher is better).
CLAIMED = "ops_per_s"


def extract(ref: str, dest: str) -> None:
    tar = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True, capture_output=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, **safe)


def clear_pycache(tree: str) -> None:
    for path, dirs, _ in os.walk(tree):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(path, "__pycache__"))
            dirs.remove("__pycache__")


def measure(tree: str, args: argparse.Namespace) -> dict:
    """One run.py run in ``tree``: every metric it reports, by name."""
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    out = subprocess.run(command, cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: run.py reports the output wrong")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD", help="ref to compare against (default HEAD)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to have quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = {m["name"]: m for m in json.load(handle)["end_to_end"]}

    parent, change = [], []
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as parent_tree:
        extract(args.parent, parent_tree)
        clear_pycache(parent_tree)
        clear_pycache(ROOT)
        print(f"{args.workload} seed {args.seed}, {CLAIMED} (higher is better)")
        print(f"{'pair':>4} {'parent':>12} {'change':>12} {'ratio':>7}  win")
        for i in range(args.pairs):
            order = [(parent_tree, parent), (ROOT, change)]
            for tree, runs in order if i % 2 == 0 else order[::-1]:
                runs.append(measure(tree, args))
            p, c = parent[-1][CLAIMED], change[-1][CLAIMED]
            print(f"{i + 1:>4} {p:>12.4f} {c:>12.4f} {c / p:>7.3f}  {'yes' if c > p else 'no'}")

    sides = {}
    for name, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles([r[CLAIMED] for r in runs], n=4)
        sides[name] = median, q1, q3  # the same quartiles run.py reports
        print(f"{name}: median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}")
    (p_med, p_q1, p_q3), (c_med, _, _) = sides["parent"], sides["change"]
    wins = sum(c[CLAIMED] > p[CLAIMED] for p, c in zip(parent, change))
    gap = c_med - p_med
    holds = wins >= 0.9 * args.pairs and gap > p_q3 - p_q1
    print(f"median ratio {c_med / p_med:.3f}  wins {wins}/{args.pairs}  "
          f"median gap {gap:.4f} vs parent IQR {p_q3 - p_q1:.4f}")
    print(f"gain rule (>=9/10 wins, gap > parent IQR): {'holds' if holds else 'does not hold'}")
    print("end-to-end medians, parent -> change (WORSE: beyond the bound)")
    for name, m in contract.items():
        p_m = statistics.median(r[name] for r in parent)
        c_m = statistics.median(r[name] for r in change)
        worse = (p_m - c_m if m["better"] == "higher" else c_m - p_m) / p_m
        print(f"  {name:<12} {p_m:>12.4f} -> {c_m:>12.4f} {m['unit']:<4} {c_m / p_m:>6.3f}x"
              f"{'  WORSE' if worse > m['bound'] else ''}")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
