"""Hierarchical internetwork model: campus → region → backbone.

The paper's E4 scalability argument extrapolates from one campus; the
H-MLBN hierarchical-mobility analysis (arxiv 2110.09607) supplies the
structure this module implements: campuses are the leaves of a
``branching``-ary aggregation tree of ``depth`` levels, a move between
two campuses climbs the tree to their lowest common ancestor (LCA), and
the registration/location-update signaling a move generates is
proportional to how high it climbs.

Two things are derived from the tree:

- **Inter-campus delays** — one tree hop costs ``hop_delay`` seconds,
  so campus *a* reaches campus *b* in ``2 * lca_level(a, b)`` hops (up
  to the LCA, back down).  The minimum pairwise delay is the
  conservative-synchronization **lookahead** of the partitioned engine
  (:mod:`repro.partition`): events cannot cross partitions faster than
  the slowest link between them, so each partition may safely run
  ``lookahead`` seconds ahead of the others.  ``hop_delay=0`` collapses
  the lookahead to zero and forces the engine into global-barrier mode.

- **Signaling cost** — a move from campus *a* to campus *b* updates the
  location databases at every tree level up to the LCA (H-MLBN's
  per-level binding updates): cost ``1 + lca_level(a, b)`` signaling
  units (the campus-level registration plus one update per climbed
  level).  Summed over a mobility workload this yields the
  signaling-load-vs-hierarchy-depth curve E4 reports.

Address plan: campus ``i`` owns the ``{10+i}.0.0.0/8`` supernet, laid
out internally by :func:`repro.plan.campus_plan` with
``address_base=10+i`` — so a border gateway classifies local-vs-remote
destinations by first octet alone.

:class:`RegistrationLoadModel` is the ~10^5–10^6-host load generator:
it *models* hosts statistically (bulk-scheduled counter events on the
PR 9 ``schedule_many`` fast path) rather than instantiating protocol
objects, which is what makes million-host signaling curves measurable;
a handful of real :class:`~repro.core.mobile_host.MobileHost` objects
ride alongside for protocol fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.workloads.traffic import optional_numpy

#: First octet of campus 0's supernet; campus ``i`` uses ``10 + i``.
CAMPUS_BASE = 10


def campus_address_base(index: int) -> int:
    """The ``address_base`` campus ``index`` hands to ``campus_plan``."""
    base = CAMPUS_BASE + index
    if not CAMPUS_BASE <= base <= 223:
        raise ValueError(f"campus index {index} out of the address plan")
    return base


def campus_name_prefix(index: int) -> str:
    """Node/medium name prefix keeping campuses distinct when merged."""
    return f"c{index}."


def campus_of_address_value(value: int) -> int:
    """Map a 32-bit address value onto its owning campus index."""
    return (value >> 24) - CAMPUS_BASE


@dataclass(frozen=True)
class HierarchyModel:
    """The aggregation tree over ``n_campuses`` leaf campuses.

    Args:
        n_campuses: leaf count (= partition count in the engine).
        depth: tree levels above the campuses (level 0 is the campus
            itself, level ``depth`` the backbone root).
        branching: children per interior node.
        hop_delay: seconds per tree hop (one level up or down).
    """

    n_campuses: int
    depth: int = 1
    branching: int = 2
    hop_delay: float = 0.01

    def __post_init__(self) -> None:
        if self.n_campuses < 1:
            raise ValueError("need at least one campus")
        if self.depth < 1:
            raise ValueError("hierarchy depth must be >= 1")
        if self.branching < 1:
            raise ValueError("branching must be >= 1")
        if self.hop_delay < 0:
            raise ValueError("hop_delay cannot be negative")

    @classmethod
    def from_spec(cls, spec) -> "HierarchyModel":
        """Build from a v2 :class:`~repro.scenario.spec.ScenarioSpec`'s
        ``partitions``/``hierarchy`` fields (with defaults for both)."""
        params = dict(spec.hierarchy or {})
        n = spec.partitions or int(params.pop("n_campuses", 1))
        return cls(
            n_campuses=n,
            depth=int(params.get("depth", 1)),
            branching=int(params.get("branching", 2)),
            hop_delay=float(params.get("hop_delay", 0.01)),
        )

    # ------------------------------------------------------------------
    # Tree geometry
    # ------------------------------------------------------------------
    def level_path(self, campus: int) -> Tuple[int, ...]:
        """Ancestor node ids of ``campus`` at levels 1..depth."""
        return tuple(campus // self.branching ** level for level in range(1, self.depth + 1))

    def lca_level(self, a: int, b: int) -> int:
        """The tree level where ``a`` and ``b``'s paths meet (0 = same
        campus; everything meets at the root level at the latest)."""
        if a == b:
            return 0
        for level in range(1, self.depth + 1):
            if a // self.branching ** level == b // self.branching ** level:
                return level
        return self.depth

    def delay(self, a: int, b: int) -> float:
        """Inter-campus one-way delay: up to the LCA and back down."""
        return 2.0 * self.lca_level(a, b) * self.hop_delay

    def lookahead(self) -> float:
        """Minimum pairwise inter-campus delay — the conservative
        synchronization window.  Zero with one campus or zero-delay
        links (the engine then runs a global barrier)."""
        if self.n_campuses < 2:
            return 0.0
        return min(
            self.delay(a, b)
            for a in range(self.n_campuses)
            for b in range(a + 1, self.n_campuses)
        )

    def signaling_cost(self, a: int, b: int) -> int:
        """Signaling units one move from campus ``a`` to ``b`` costs:
        the campus-level registration plus one location update per tree
        level climbed to the LCA (H-MLBN per-level binding updates)."""
        return 1 + self.lca_level(a, b)

    def delay_matrix(self) -> List[List[float]]:
        return [
            [self.delay(a, b) for b in range(self.n_campuses)]
            for a in range(self.n_campuses)
        ]


class RegistrationLoadModel:
    """Statistical mobile-host population for one campus partition.

    ``n_hosts`` modeled hosts each move ``moves_per_host`` times in
    ``[start, horizon)``; every move is one pre-planned bulk event
    (:meth:`~repro.netsim.simulator.Simulator.schedule_many`) that
    charges the per-level signaling counters and, for cross-campus
    moves, hands a small update record to ``exporter`` so the partition
    engine carries it over the boundary like any other event.  The whole
    schedule — times, destinations — is derived from ``seed`` with a
    dedicated RNG before anything is scheduled, so serial and parallel
    partitioned runs see byte-identical workloads.

    ``locality`` is the probability a move stays inside the campus
    (H-MLBN's locality parameter): higher locality keeps signaling at
    the campus level; lower locality climbs the tree more often.
    """

    def __init__(
        self,
        sim,
        model: HierarchyModel,
        campus: int,
        n_hosts: int,
        moves_per_host: int = 2,
        horizon: float = 10.0,
        start: float = 0.1,
        seed: int = 0,
        locality: float = 0.8,
        exporter: Optional[Callable[[int, float, dict], None]] = None,
    ) -> None:
        self.sim = sim
        self.model = model
        self.campus = campus
        self.n_hosts = n_hosts
        self.moves_per_host = moves_per_host
        self.horizon = horizon
        self.start = start
        self.seed = seed
        self.locality = locality
        self.exporter = exporter
        self.signaling_by_level: Dict[int, int] = {
            level: 0 for level in range(model.depth + 1)
        }
        self.moves_local = 0
        self.moves_cross = 0
        self.updates_out = 0
        self.updates_in = 0
        self._times: Optional[List[float]] = None
        self._dsts: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Schedule generation (all randomness happens here, up front)
    # ------------------------------------------------------------------
    def _plan(self) -> Tuple[List[float], List[int]]:
        n_events = self.n_hosts * self.moves_per_host
        span = max(self.horizon - self.start, 1e-9)
        others = [c for c in range(self.model.n_campuses) if c != self.campus]
        np = optional_numpy()
        if np is not None:
            rng = np.random.default_rng(self.seed)
            times = (self.start + rng.random(n_events) * span)
            times = np.sort(times).tolist()
            cross = rng.random(n_events) >= self.locality
            if others:
                picks = rng.integers(0, len(others), n_events)
                dsts = [
                    others[int(pick)] if is_cross else self.campus
                    for is_cross, pick in zip(cross, picks)
                ]
            else:
                dsts = [self.campus] * n_events
            return times, dsts
        import random as _random

        rng = _random.Random(self.seed)
        times = sorted(self.start + rng.random() * span for _ in range(n_events))
        dsts = []
        for _ in range(n_events):
            if others and rng.random() >= self.locality:
                dsts.append(others[rng.randrange(len(others))])
            else:
                dsts.append(self.campus)
        return times, dsts

    def install(self) -> int:
        """Plan and bulk-schedule every modeled move; returns the count."""
        times, dsts = self._plan()
        self._times, self._dsts = times, dsts
        return self.sim.schedule_many(
            (t, partial(self._move, dst)) for t, dst in zip(times, dsts)
        )

    # ------------------------------------------------------------------
    # Event bodies (the per-event hot path: a few increments)
    # ------------------------------------------------------------------
    def _move(self, dst: int) -> None:
        level = self.model.lca_level(self.campus, dst)
        self.signaling_by_level[0] += 1
        if level == 0:
            self.moves_local += 1
            return
        self.moves_cross += 1
        for climbed in range(1, level + 1):
            self.signaling_by_level[climbed] += 1
        self.updates_out += 1
        if self.exporter is not None:
            self.exporter(
                dst,
                self.sim.now + self.model.delay(self.campus, dst),
                {"from": self.campus, "level": level},
            )

    def remote_update(self, record: dict) -> None:
        """A cross-campus binding update arriving from another partition."""
        self.updates_in += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def signaling_units(self) -> int:
        """Total signaling units charged (the E4 load metric)."""
        return sum(self.signaling_by_level.values())

    def summary(self) -> dict:
        return {
            "campus": self.campus,
            "modeled_hosts": self.n_hosts,
            "moves_local": self.moves_local,
            "moves_cross": self.moves_cross,
            "updates_out": self.updates_out,
            "updates_in": self.updates_in,
            "signaling_units": self.signaling_units(),
            "signaling_by_level": {
                str(level): count
                for level, count in sorted(self.signaling_by_level.items())
            },
        }


def merge_load_summaries(summaries: List[dict]) -> dict:
    """Sum per-campus load-model summaries into one plane-wide view."""
    out = {
        "modeled_hosts": 0,
        "moves_local": 0,
        "moves_cross": 0,
        "updates_out": 0,
        "updates_in": 0,
        "signaling_units": 0,
        "signaling_by_level": {},
    }
    by_level: Dict[str, int] = out["signaling_by_level"]
    for summary in summaries:
        for key in (
            "modeled_hosts", "moves_local", "moves_cross",
            "updates_out", "updates_in", "signaling_units",
        ):
            out[key] += summary.get(key, 0)
        for level, count in summary.get("signaling_by_level", {}).items():
            by_level[level] = by_level.get(level, 0) + count
    return out
