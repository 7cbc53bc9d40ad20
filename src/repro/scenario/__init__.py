"""Scenario sessions: one scenario API with snapshot/fork execution.

- :class:`ScenarioSpec` — a whole experiment as JSON-able data.
- :class:`Session` — the spec instantiated; runs to a checkpoint.
- :class:`Snapshot` — a frozen session; forks resume from the
  checkpoint, byte-identical to a cold run.
- :mod:`repro.scenario.warmstart` — the per-process snapshot cache the
  sweep harness and fuzzer shrinker build on.
"""

from repro.scenario.session import (
    PROBE_PROTOCOL,
    Session,
    Snapshot,
    validate_forkable,
)
from repro.scenario.spec import PROBE_GAP, ScenarioSpec, canonical_json
from repro.scenario.world import World, build_world

__all__ = [
    "PROBE_GAP",
    "PROBE_PROTOCOL",
    "ScenarioSpec",
    "Session",
    "Snapshot",
    "World",
    "build_world",
    "canonical_json",
    "validate_forkable",
]
