"""One partition of a hierarchical world, ready to run in windows.

A :class:`PartitionRuntime` is the per-partition analogue of
:class:`~repro.scenario.session.Session`: it instantiates *one campus*
of a partitioned :class:`~repro.scenario.spec.ScenarioSpec` (schema v2,
``partitions``/``hierarchy`` set) into its own
:class:`~repro.netsim.simulator.Simulator`, installs the slice of the
spec's schedule this partition owns, and exposes the window/exchange
surface the engine in :mod:`repro.partition.engine` drives:

- :meth:`run_window` — execute events up to a synchronization barrier
  (:meth:`~repro.netsim.simulator.Simulator.run_before`);
- :meth:`drain_outbox` — cross-partition events produced while running
  (pickled packets, host migrations, forwarded moves, load-model
  updates), each stamped with its arrival time and an export sequence
  number so the engine can order deliveries deterministically;
- :meth:`inject` — deliveries from other partitions, scheduled onto the
  local queue at their arrival times.

Everything is deterministic per partition: the simulator seed, the load
model seed and every installed schedule derive from ``(spec.seed,
partition index)``, and the process-global ID counters are reset at
build — the serial orchestrator additionally scopes them per partition
so one process running all partitions interleaved produces exactly what
isolated worker processes produce.

Host migration (the PR 5 ``state_dict`` contract as wire format): the
home partition owns a host's schedule.  A move targeting a remote
campus exports a migration record — identity plus
:meth:`~repro.wire.roles.MobileHostRole.state_dict` — and deactivates
the local object; the destination materializes (or reuses) a *visitor*
:class:`~repro.core.mobile_host.MobileHost`, loads the state, and
attaches it to the target cell, which replays the paper's Section 3
move sequence (register with the new foreign agent, notify the home
agent and the previous foreign agent) across real gateway traffic.
Moves arriving while the host is away are chain-forwarded to the last
known location, like the paper's forwarding pointers.
"""

from __future__ import annotations

import hashlib
import pickle
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.ip.address import IPAddress
from repro.netsim.simulator import Simulator
from repro.partition.gateway import BorderGateway
from repro.plan import campus_mobile_host
from repro.scenario.session import (
    PROBE_PROTOCOL,
    ScheduleInstaller,
    discard_probe,
    reset_global_counters,
)
from repro.scenario.spec import ScenarioSpec
from repro.scenario.world import bind_sim_node, build_world
from repro.wire.logic import DISCONNECTED
from repro.workloads.hierarchy import (
    HierarchyModel,
    RegistrationLoadModel,
    campus_address_base,
    campus_name_prefix,
)
from repro.workloads.traffic import CBRStream

#: Export payload kinds crossing partition boundaries.
EXPORT_KINDS = ("packet", "migrate", "control", "load")


def derive_partition_seed(seed: int, index: int) -> int:
    """Deterministic per-partition simulator seed."""
    return (seed * 1_000_003 + 7919 * (index + 1)) % (2**31)


class PartitionRuntime(ScheduleInstaller):
    """One campus partition: simulator, world slice, owned schedule."""

    def __init__(
        self,
        spec: ScenarioSpec,
        model: Optional[HierarchyModel] = None,
        index: int = 0,
    ) -> None:
        reset_global_counters()
        self.spec = spec
        self.model = model or HierarchyModel.from_spec(spec)
        self.index = index
        if not 0 <= index < self.model.n_campuses:
            raise ConfigurationError(
                f"partition {index} outside 0..{self.model.n_campuses - 1}"
            )
        self.sim = Simulator(seed=derive_partition_seed(spec.seed, index))
        if spec.trace_limit is not None:
            self.sim.tracer.limit(spec.trace_limit)

        params = dict(spec.topology)
        kind = params.pop("kind", "hierarchy")
        if kind not in ("hierarchy", "campus"):
            raise ConfigurationError(
                f"partitioned runs need a hierarchy/campus topology, got {kind!r}"
            )
        load_params = params.pop("load", None)
        self.hosts_per_campus = int(params.get("n_mobile_hosts", 0))
        self.cells_per_campus = int(params.get("n_cells", 1))
        self.corr_per_campus = int(params.get("n_correspondents", 1))

        self.world = build_world(
            self.sim,
            {
                **params,
                "kind": "campus",
                "address_base": campus_address_base(index),
                "name_prefix": campus_name_prefix(index),
            },
        )
        self.gateway = BorderGateway(
            self, index, self.world.home_roles.node, self.model.n_campuses
        )
        observed = list(self.world.nodes)
        observed.insert(1, self.gateway.router)
        self._attach_instruments(spec.instruments, observed)

        # -- cross-partition bookkeeping -------------------------------
        self._outbox: List[Tuple[int, float, str, bytes, int]] = []
        self._export_seq = 0
        #: Hosts (global indices) whose authoritative object lives here.
        self._here: Set[int] = set()
        #: Last known destination of hosts that migrated away from here.
        self._departed: Dict[int, int] = {}
        #: Global host index -> local MobileHost object (home or visitor).
        self._materialized: Dict[int, object] = {}
        #: (host, port) -> the UDP socket counting that flow's arrivals.
        self._sinks: Dict[Tuple[int, int], object] = {}
        self._flows: List[object] = []
        self.counters: Dict[str, int] = {
            "packets_exported": 0,
            "events_injected": 0,
            "migrations_out": 0,
            "migrations_in": 0,
            "moves_forwarded": 0,
            "moves_unroutable": 0,
        }

        hpc = self.hosts_per_campus
        for local in range(hpc):
            h = index * hpc + local
            self._here.add(h)
            self._materialized[h] = self.world.mobile_hosts[local]

        self.load: Optional[RegistrationLoadModel] = None
        if load_params is not None:
            load_params = dict(load_params)
            self.load = RegistrationLoadModel(
                self.sim,
                self.model,
                campus=index,
                n_hosts=int(load_params.pop("n_hosts", 1000)),
                moves_per_host=int(load_params.pop("moves_per_host", 2)),
                horizon=float(load_params.pop("horizon", spec.horizon)),
                start=float(load_params.pop("start", 0.1)),
                seed=derive_partition_seed(spec.seed, index) ^ 0x5EED,
                locality=float(load_params.pop("locality", 0.8)),
                exporter=self._export_load,
            )
            self.load.install()

        self._install(spec.entries())

    # ------------------------------------------------------------------
    # Build helpers
    # ------------------------------------------------------------------
    def home_campus(self, host: int) -> int:
        return host // self.hosts_per_campus

    def _host_plan(self, host: int):
        """A global host's node plan, from the address plan alone (no
        object needed — the host may live in another partition)."""
        home = self.home_campus(host)
        return campus_mobile_host(
            campus_address_base(home),
            campus_name_prefix(home),
            host % self.hosts_per_campus,
        )

    def _home_address(self, host: int) -> IPAddress:
        return self._host_plan(host).home_address

    def _correspondent(self, src: int):
        return self.world.correspondents[src % self.corr_per_campus]

    def _owner(self, kind: str, entry: dict) -> int:
        """The partition that installs a schedule entry: a host's home
        campus owns its moves, a correspondent's campus what it sends."""
        if kind == "move":
            return self.home_campus(entry["host"])
        if kind == "fault":
            return entry.get("campus", 0)
        if kind == "flow":
            return self.index  # sink and sender halves may both be here
        return entry["src"] // self.corr_per_campus

    def _install(self, entries) -> None:
        super()._install(
            (kind, entry) for kind, entry in entries
            if self._owner(kind, entry) == self.index
        )

    def _install_flow(self, entry: dict) -> None:
        host, port = entry["host"], entry["port"]
        if self.home_campus(host) == self.index:
            self._bind_sink(host, port)
        if entry["src"] // self.corr_per_campus != self.index:
            return
        # Sender half only: the receiver may live in — or migrate to —
        # another partition, so sinks are bound separately.
        flow = CBRStream(
            sender=self._correspondent(entry["src"]),
            receiver=None,
            dst_address=self._home_address(host),
            interval=entry["interval"],
            port=port,
            start_at=entry["start"],
            count=entry["count"],
        )
        flow.start()
        self._flows.append(flow)

    def _bind_sink(self, host: int, port: int) -> None:
        mh = self._materialized.get(host)
        if mh is None or (host, port) in self._sinks:
            return
        self._sinks[(host, port)] = mh.udp.bind(port)

    # ------------------------------------------------------------------
    # Schedule actions
    # ------------------------------------------------------------------
    def _apply_move(self, host: int, to: int) -> None:
        if host not in self._here:
            # Not ours any more: chain-forward to the last known location.
            dst = self._departed.get(host)
            if dst is None or dst == self.index:
                self.counters["moves_unroutable"] += 1
                return
            self.counters["moves_forwarded"] += 1
            self.export(
                dst,
                self.sim.now + self.model.delay(self.index, dst),
                "control",
                ("move", host, to),
            )
            return
        if to == -2:
            target = self.index  # a host disconnects wherever it is
        elif to == -1:
            target = self.home_campus(host)
        else:
            target = to // self.cells_per_campus
        if target != self.index:
            self._migrate(host, target, to)
        else:
            self._place(self._materialized[host], to)

    # ------------------------------------------------------------------
    # Migration (the state_dict wire format)
    # ------------------------------------------------------------------
    def _migrate(self, host: int, target: int, to: int) -> None:
        mh = self._materialized[host]
        record = {"host": host, "to": to, "role": mh.state_dict()}
        self._deactivate(mh)
        self._here.discard(host)
        self._departed[host] = target
        self.counters["migrations_out"] += 1
        self.export(
            target,
            self.sim.now + self.model.delay(self.index, target),
            "migrate",
            record,
        )

    def _deactivate(self, mh) -> None:
        """Silence a local copy whose host just migrated away: pending
        timers are cancelled and the interface detached *without* running
        the disconnect protocol — the protocol-visible move happens at
        the destination when the loaded state re-attaches."""
        mh.port.cancel_timer(mh.WATCHDOG_KEY)
        for seq in list(mh.registrar._pending):
            mh.port.cancel_timer(f"reg-retry-{seq}")
        mh.registrar._pending.clear()
        mh._registering_with = None
        if mh.iface.attached:
            mh.iface.detach()
        mh.state = DISCONNECTED
        mh.current_foreign_agent = None
        mh.temp_address = None

    def _make_visitor(self, host: int):
        mh = bind_sim_node(self.sim, self._host_plan(host), {})
        mh.register_protocol(PROBE_PROTOCOL, discard_probe)
        self._materialized[host] = mh
        for entry in self.spec.flows:
            if int(entry["host"]) == host:
                self._bind_sink(host, int(entry["port"]))
        return mh

    def _arrive_migration(self, record: dict) -> None:
        host = int(record["host"])
        to = int(record["to"])
        mh = self._materialized.get(host)
        if mh is None:
            mh = self._make_visitor(host)
        mh.load_state(record["role"])
        self._here.add(host)
        self._departed.pop(host, None)
        self.counters["migrations_in"] += 1
        self._place(mh, to)

    # ------------------------------------------------------------------
    # Cross-partition exchange surface
    # ------------------------------------------------------------------
    def export(self, dst: int, arrival: float, kind: str, obj) -> None:
        """Queue ``obj`` for partition ``dst`` at time ``arrival``."""
        self._export_seq += 1
        self._outbox.append((dst, arrival, kind, pickle.dumps(obj), self._export_seq))

    def export_packet(self, dst: int, packet) -> None:
        self.counters["packets_exported"] += 1
        self.export(
            dst, self.sim.now + self.model.delay(self.index, dst), "packet", packet
        )

    def _export_load(self, dst: int, arrival: float, record: dict) -> None:
        self.export(dst, arrival, "load", record)

    def drain_outbox(self) -> List[Tuple[int, float, str, bytes, int]]:
        out, self._outbox = self._outbox, []
        return out

    def inject(self, deliveries) -> None:
        """Schedule deliveries ``(arrival, kind, blob)`` from other
        partitions, in the (already engine-sorted) order given."""
        for arrival, kind, blob in deliveries:
            obj = pickle.loads(blob)
            if kind == "packet":
                action = partial(self.gateway.inject, obj)
            elif kind == "migrate":
                action = partial(self._arrive_migration, obj)
            elif kind == "control":
                action = partial(self._apply_move, obj[1], obj[2])
            elif kind == "load":
                if self.load is None:
                    continue
                action = partial(self.load.remote_update, obj)
            else:
                raise SimulationError(f"unknown cross-partition kind {kind!r}")
            self.counters["events_injected"] += 1
            self.sim.schedule_at(arrival, action, label=f"partition-{kind}")

    # ------------------------------------------------------------------
    # Execution surface
    # ------------------------------------------------------------------
    def next_time(self) -> Optional[float]:
        return self.sim.queue.peek_time()

    def run_window(self, barrier: float, inclusive: bool = False) -> int:
        return self.sim.run_before(barrier, inclusive=inclusive)

    def finish(self, horizon: float) -> int:
        return self.sim.run(until=horizon)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def trace_fingerprint(self) -> str:
        digest = hashlib.sha256()
        for entry in self.sim.tracer:
            digest.update(
                f"{entry.time!r}|{entry.category}|{entry.node}|".encode()
            )
            # A PacketStamp's repr is its text's repr, so stamps digest
            # exactly as the text they replaced, with no per-value check.
            for key, value in entry.detail.items():
                digest.update(f"{key}={value!r};".encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def mobile_state(self) -> Dict[str, dict]:
        return {
            str(host): {
                "here": host in self._here,
                "state": self._materialized[host].state_dict(),
            }
            for host in sorted(self._materialized)
        }

    def result(self) -> dict:
        telemetry = self.sim.telemetry
        return {
            "partition": self.index,
            "events": self.sim.events_processed,
            "now": self.sim.now,
            "trace_entries": len(self.sim.tracer.entries),
            "trace_fingerprint": self.trace_fingerprint(),
            "health": telemetry.summary() if telemetry is not None else None,
            "counters": dict(self.counters),
            "flow_received": sum(len(s.received) for s in self._sinks.values()),
            "load": self.load.summary() if self.load is not None else None,
            "mobile_state": self.mobile_state(),
        }
