"""numpy is optional *and lazy*: a run that never vectorizes never
imports it (ROADMAP item 2, defect 5 — it was ~100 of the ~170 ms cold
facade import and ~13 MiB of RSS)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

PROGRAM = """
import sys
from repro.backend import run
from repro.wire.conformance import figure1_walkthrough_spec
result = run(figure1_walkthrough_spec(), backend="sim")
assert result.ok and result.health["packets_delivered"] > 0
print("numpy" in sys.modules)
"""


def test_figure1_on_sim_never_imports_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
