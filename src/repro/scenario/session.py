"""The scenario session kernel: build once, checkpoint, fork.

A :class:`Session` instantiates a :class:`~repro.scenario.spec.ScenarioSpec`
into a live simulator + world, installs the spec's *prefix* schedule,
and runs to the checkpoint.  From there the caller either installs the
tail and keeps running (a plain cold run), or takes a :class:`Snapshot`
and forks it — each fork resumes from the shared checkpoint with its own
tail, skipping the warm-up entirely while remaining byte-identical to a
cold run of the same spec.

A snapshot is the session pickled once; a fork is one unpickle of that
blob.  Instances of the immutable value types named in
:data:`SHARED_TYPES` (trace entries, journey steps, packet stamps,
addresses, routes, cache and visitor records) are not pickled by value:
the pickler puts each one in a list and writes its index, and every fork
resolves those indices to the very same objects.  Everything else is
rebuilt by the C unpickler, so each fork owns its mutable state and
shares only values nothing can change.

Every scheduled callable in the library is a bound method, a
:func:`functools.partial` over bound methods, or a plain module-level
function, and all of those pickle.  Lambdas and closures do not:
:func:`validate_forkable` walks every pending event (and trace listener)
at snapshot time and names the offending callable, and anything else in
the session that cannot be pickled fails the snapshot with a
:class:`~repro.errors.SnapshotError` naming its type.

Determinism of the restored runs rests on three mechanisms:

1. **Split installation** — tail entries are installed at checkpoint
   time on the cold path too, so the event queue assigns the same
   sequence numbers either way (ordering among same-time events is
   ``(time, sequence)``).
2. **Global counter capture** — the process-global ID counters (packet
   uids, hardware addresses, registration sequence numbers) are reset
   when a session is built and restored to their checkpoint values when
   a snapshot is forked.
3. **Engine state capture** — clock, RNG, and tracer ride the pickle;
   :meth:`Session.state_dict` exposes all of it for field-by-field
   diffing in the determinism tests.
"""

from __future__ import annotations

import functools
import inspect
import io
import itertools
import sys
from typing import Dict, List, Optional

from repro.errors import SnapshotError
from repro.ip.packet import IPPacket, RawPayload
from repro.netsim.simulator import Simulator, Timer
from repro.scenario.spec import PROBE_GAP, ScenarioSpec
from repro.scenario.world import World, build_world

#: IP protocol number used by convergence probes (canonical definition
#: lives with the other protocol numbers; re-exported here for the
#: session/fuzzer API).
from repro.ip.protocols import CONVERGENCE_PROBE as PROBE_PROTOCOL


# ----------------------------------------------------------------------
# Process-global ID counters
# ----------------------------------------------------------------------
#: (module, attribute) of every global ``itertools.count`` whose values
#: leak into traces: packet uids, locally-administered hardware
#: addresses, and registration sequence numbers.
_GLOBAL_COUNTERS = (
    ("repro.ip.packet", "_packet_ids"),
    ("repro.link.frame", "_hw_counter"),
    ("repro.core.registration", "_seq_counter"),
)


def _counter_module(name: str):
    import importlib

    return importlib.import_module(name)


def reset_global_counters() -> None:
    """Rewind every global ID counter to 1 (fresh-process state)."""
    for module_name, attr in _GLOBAL_COUNTERS:
        setattr(_counter_module(module_name), attr, itertools.count(1))


def capture_global_counters() -> Dict[str, int]:
    """The next value each global counter would hand out."""
    out: Dict[str, int] = {}
    for module_name, attr in _GLOBAL_COUNTERS:
        counter = getattr(_counter_module(module_name), attr)
        out[f"{module_name}.{attr}"] = counter.__reduce__()[1][0]
    return out


def restore_global_counters(values: Dict[str, int]) -> None:
    """Rewind every global counter to a :func:`capture_global_counters`."""
    for module_name, attr in _GLOBAL_COUNTERS:
        setattr(
            _counter_module(module_name),
            attr,
            itertools.count(values[f"{module_name}.{attr}"]),
        )


# ----------------------------------------------------------------------
# Forkability validation
# ----------------------------------------------------------------------
def _check_callable(fn: object, where: str) -> None:
    if isinstance(fn, functools.partial):
        _check_callable(fn.func, where)
        return
    if inspect.ismethod(fn):
        if isinstance(fn.__self__, Timer) and fn.__func__ is Timer._fire:
            # A timer firing: the real payload is the timer's action.
            _check_callable(fn.__self__._action, where)
            return
        func = fn.__func__
    elif inspect.isfunction(fn):
        func = fn
    else:
        # Callable instances (e.g. workload objects) pickle fine.
        return
    if func.__name__ == "<lambda>" or func.__closure__ is not None:
        raise SnapshotError(
            f"{where} holds {func.__qualname__!r}, a lambda/closure; "
            f"those cannot be pickled, so the session cannot be forked.  "
            f"Use a bound method or functools.partial instead."
        )


def validate_forkable(sim: Simulator) -> None:
    """Reject the snapshot if any pending callable would not pickle.

    Walks the live events in the queue and the tracer's listeners; see
    the module docstring for why lambdas and closures are fatal here.
    """
    for event in sim.queue.iter_pending():
        _check_callable(
            event.action, f"pending event {event.label or '?'} @t={event.time:.3f}"
        )
    for listener in sim.tracer.listeners():
        _check_callable(listener, "tracer listener")


# ----------------------------------------------------------------------
# The schedule vocabulary on a simulator world
# ----------------------------------------------------------------------
def discard_probe(packet, iface) -> None:
    """Protocol handler for convergence probes: delivery is the signal;
    the payload is discarded."""


class ScheduleInstaller:
    """The one reader of a :class:`~repro.scenario.spec.ScenarioSpec`'s
    ``move``/``fault``/``flow``/``probe``/``ping`` entries, on every
    backend: :meth:`_install` queues each action through one seam,
    :meth:`_at`.

    This class is also the simulator actuator, over ``self.sim`` and
    ``self.world``: :class:`Session` and the per-campus
    :class:`~repro.partition.runtime.PartitionRuntime` supply how indices
    resolve onto their rosters (:meth:`_correspondent`,
    :meth:`_home_address`), what a move does, and how flows bind their
    endpoints; :class:`repro.wire.driver.ScheduleActions` is the engine
    actuator.  Every scheduled callable is a :func:`functools.partial`
    over a bound method: picklable by construction.
    """

    sim: Simulator
    world: World

    def _attach_instruments(self, entries, nodes: list) -> None:
        """Attach the spec's ``instruments`` entries (``nodes`` is what
        the health hub observes), after giving every mobile host its
        probe sink."""
        for mh in self.world.mobile_hosts:
            mh.register_protocol(PROBE_PROTOCOL, discard_probe)
        for entry in entries:
            params = dict(entry)
            kind = params.pop("kind", None)
            if kind == "health":
                from repro.telemetry import ProtocolHealth

                self.sim.attach(ProtocolHealth(**params), nodes=nodes)
            elif kind == "auditor":
                from repro.invariants import InvariantAuditor

                self.sim.attach(InvariantAuditor(**params))
            elif kind == "obs":
                from repro.obs import ObsPlane

                self.sim.attach(ObsPlane(**params))
            else:
                raise ValueError(f"unknown instrument kind {kind!r}")

    # -- installation --------------------------------------------------
    def _install(self, entries) -> None:
        for kind, entry in entries:
            getattr(self, f"_install_{kind}")(entry)

    def _at(self, t: float, action, label: str) -> None:
        """Queue ``action`` for scenario time ``t``.  The live backend
        overrides this with its wall-clock wheel."""
        self.sim.schedule_at(t, action, label=label)

    def _install_move(self, entry: dict) -> None:
        self._at(
            entry["t"],
            functools.partial(self._apply_move, entry["host"], entry["to"]),
            "scenario-move",
        )

    def _install_fault(self, entry: dict) -> None:
        self._at(
            entry["t"],
            functools.partial(self._apply_fault, entry["node"], entry["kind"]),
            "scenario-fault",
        )

    def _install_probe(self, entry: dict) -> None:
        self._at(
            entry["t"],
            functools.partial(self._send_probe, entry["src"], entry["host"], False),
            "scenario-probe-warm",
        )
        self._at(
            entry["t"] + PROBE_GAP,
            functools.partial(self._send_probe, entry["src"], entry["host"], True),
            "scenario-probe-audited",
        )

    def _install_ping(self, entry: dict) -> None:
        self._at(
            entry["t"],
            functools.partial(self._send_ping, entry["src"], entry["host"]),
            "scenario-ping",
        )

    # -- actions -------------------------------------------------------
    def _apply_fault(self, name: str, kind: str) -> None:
        node = self.world.fault_nodes.get(name)
        if node is None:
            return
        if kind == "crash":
            node.crash()
        else:
            node.reboot()

    def _place(self, mh, to: int) -> None:
        """A move within this world: ``-2`` disconnects, ``-1`` goes
        home, anything else is a cell index (wrapping)."""
        if to == -2:
            if mh.iface.attached:
                mh.disconnect()
        elif to == -1:
            mh.attach_home(self.world.home_medium)
        else:
            mh.attach(self.world.cells[to % len(self.world.cells)])

    def _send_probe(self, src: int, host: int, watched: bool) -> None:
        sender = self._correspondent(src)
        packet = IPPacket(
            src=sender.primary_address,
            dst=self._home_address(host),
            protocol=PROBE_PROTOCOL,
            payload=RawPayload(b"convergence-probe"),
        )
        if watched and self.sim.auditor is not None:
            self.sim.auditor.expect_no_retunnels([packet.uid])
        sender.send(packet)

    def _send_ping(self, src: int, host: int) -> None:
        self._correspondent(src).ping(self._home_address(host))


class Session(ScheduleInstaller):
    """A spec, instantiated: simulator + world + installed schedule.

    Building a session resets the process-global ID counters, so at most
    one session may be *live* per process at a time (running two
    interleaved would interleave their uid sequences).  Sequential
    sessions — including forks — are fully isolated.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        reset_global_counters()
        self.spec = spec
        self.sim = Simulator(seed=spec.seed)
        if spec.trace_limit is not None:
            self.sim.tracer.limit(spec.trace_limit)
        self.world: World = build_world(self.sim, spec.topology)
        self._attach_instruments(spec.instruments, self.world.nodes)
        self._flows: List[object] = []
        self._tail_installed = False
        self._install(spec.prefix_entries())

    @property
    def telemetry(self):
        """The attached :class:`~repro.telemetry.ProtocolHealth`, if any."""
        return self.sim.telemetry

    @property
    def auditor(self):
        """The attached :class:`~repro.invariants.InvariantAuditor`, if any."""
        return self.sim.auditor

    @property
    def obs(self):
        """The attached :class:`~repro.obs.ObsPlane`, if any."""
        return self.sim.obs

    # ------------------------------------------------------------------
    # Rosters, flows and moves (indices wrap around the rosters)
    # ------------------------------------------------------------------
    def _mobile_host(self, index: int):
        mobile_hosts = self.world.mobile_hosts
        return mobile_hosts[index % len(mobile_hosts)]

    def _correspondent(self, src: int):
        correspondents = self.world.correspondents
        return correspondents[src % len(correspondents)]

    def _home_address(self, host: int):
        return self._mobile_host(host).home_address

    def _install_flow(self, entry: dict) -> None:
        from repro.workloads.traffic import CBRStream

        mh = self._mobile_host(entry["host"])
        stream = CBRStream(
            sender=self._correspondent(entry["src"]),
            receiver=mh,
            dst_address=mh.home_address,
            interval=entry["interval"],
            port=entry["port"],
            start_at=entry["start"],
            count=entry["count"],
        )
        stream.start()
        self._flows.append(stream)

    def _apply_move(self, host: int, to: int) -> None:
        self._place(self._mobile_host(host), to)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_to_checkpoint(self) -> "Session":
        """Execute the warm-up phase (no-op when ``checkpoint`` is 0)."""
        if self.spec.checkpoint > 0.0:
            self.sim.run(until=self.spec.checkpoint)
        return self

    def install_tail(self) -> "Session":
        """Install the post-checkpoint schedule.  Must be called exactly
        once, after :meth:`run_to_checkpoint` — on cold and forked
        sessions alike, so event sequence numbers match."""
        if self._tail_installed:
            raise SnapshotError("tail schedule already installed")
        self._tail_installed = True
        self._install(self.spec.tail_entries())
        return self

    def run(self, until: Optional[float] = None) -> int:
        """Run to ``until`` (default: the spec's horizon)."""
        return self.sim.run(until=self.spec.horizon if until is None else until)

    def run_full(self) -> "Session":
        """The whole cold path: warm-up, tail, horizon."""
        self.run_to_checkpoint()
        self.install_tail()
        self.run()
        return self

    # ------------------------------------------------------------------
    # Snapshot / fork
    # ------------------------------------------------------------------
    def snapshot(self) -> "Snapshot":
        """Freeze the session for forking.  Call at the checkpoint,
        before :meth:`install_tail`."""
        if self._tail_installed:
            raise SnapshotError(
                "snapshot must be taken before the tail schedule is installed"
            )
        return Snapshot(self)

    # ------------------------------------------------------------------
    # Diffable state
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Every component's explicit state, for restored-vs-cold diffs."""
        nodes = {}
        for node in self.world.nodes:
            nodes[node.name] = {
                "routing": node.routing_table.state_dict(),
                "counters": node.dataplane.counters.state_dict(),
                "arp": {
                    name: svc.state_dict() for name, svc in sorted(node.arp.items())
                },
            }
        roles = {}
        if self.world.home_roles is not None and self.world.home_roles.home_agent:
            roles["home"] = self.world.home_roles.home_agent.state_dict()
        for i, cell_roles in enumerate(self.world.cell_roles):
            if cell_roles.foreign_agent is not None:
                roles[f"fa{i}"] = cell_roles.foreign_agent.state_dict()
            if cell_roles.cache_agent is not None:
                roles[f"cache{i}"] = cell_roles.cache_agent.state_dict()
        return {
            "engine": self.sim.state_dict(),
            "counters": capture_global_counters(),
            "nodes": nodes,
            "roles": roles,
        }


# ----------------------------------------------------------------------
# Pickling with shared immutable values
# ----------------------------------------------------------------------
#: (module, class) of every immutable value type a fork shares with its
#: snapshot by reference instead of copying — exactly the classes whose
#: ``__deepcopy__`` returns ``self``.  Named, not imported, so importing
#: this module loads none of them.
SHARED_TYPES = (
    ("repro.netsim.trace", "TraceEntry"),
    ("repro.telemetry.journeys", "JourneyStep"),
    ("repro.ip.packet", "PacketStamp"),
    ("repro.ip.address", "IPAddress"),
    ("repro.ip.address", "IPNetwork"),
    ("repro.link.frame", "HWAddress"),
    ("repro.ip.routing", "Route"),
    ("repro.wire.roles", "AgentAdvertisementInfo"),
    ("repro.wire.roles", "CacheEntry"),
    ("repro.wire.roles", "VisitorRecord"),
)


def _loaded_shared_types() -> frozenset:
    """The :data:`SHARED_TYPES` classes whose modules are loaded; a class
    whose module was never imported has no instances to share."""
    return frozenset(
        getattr(sys.modules[module_name], name)
        for module_name, name in SHARED_TYPES
        if module_name in sys.modules
    )


def _share_by_reference(shared: list):
    """A pickler ``persistent_id`` that writes each instance of a shared
    type as its index in ``shared`` (a fork's ``persistent_load`` is
    ``shared.__getitem__``, so every fork gets the same objects back)."""
    types = _loaded_shared_types()

    def persistent_id(obj):
        if type(obj) in types:
            shared.append(obj)
            return len(shared) - 1
        return None

    return persistent_id


def _unpicklable(session: "Session") -> str:
    """Name what stopped ``session`` from pickling: re-pickle it with the
    pure-Python pickler, which exposes the object being saved when it
    fails, and report that object's type and its nearest non-container
    owner."""
    import pickle

    path: list = []

    class _Tracking(pickle._Pickler):
        def save(self, obj, save_persistent_id=True):
            path.append(obj)
            super().save(obj, save_persistent_id)
            path.pop()

    try:
        _Tracking(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(session)
    except (pickle.PicklingError, TypeError, AttributeError):
        pass
    if not path:
        return "an object"
    culprit = path[-1]
    name = getattr(culprit, "__qualname__", None)
    text = f"a {type(culprit).__qualname__}" + (f" ({name!r})" if name else "")
    containers = (dict, list, tuple, set, frozenset, functools.partial)
    owners = [o for o in path[:-1] if not isinstance(o, containers)]
    if owners:
        text += f" held by a {type(owners[-1]).__qualname__}"
    return text


class Snapshot:
    """A frozen session at its checkpoint, forkable any number of times.

    The constructor validates forkability, captures the global ID
    counters, and pickles the session once, setting the instances of
    :data:`SHARED_TYPES` aside by reference.  Each :meth:`fork` unpickles
    that blob (the original session is never touched again) and rewinds
    the global counters, so every fork continues from the checkpoint
    exactly as the original would have.
    """

    def __init__(self, session: Session) -> None:
        validate_forkable(session.sim)
        self.prefix_hash = session.spec.prefix_hash()
        self.checkpoint = session.spec.checkpoint
        #: Events the warm-up executed — what each fork saves.
        self.warmup_events = session.sim.events_processed
        self._counters = capture_global_counters()
        # Imported here, not at module level: runs that never fork (every
        # backend run imports this module) should not pay for pickle.
        import pickle

        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared: list = []
        pickler.persistent_id = _share_by_reference(self._shared)
        try:
            pickler.dump(session)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise SnapshotError(
                f"the session cannot be forked: {_unpicklable(session)} "
                f"cannot be pickled ({exc})"
            ) from exc
        self._blob = buffer.getvalue()

    def fork(self, spec: Optional[ScenarioSpec] = None) -> Session:
        """A fresh session resumed at the checkpoint.

        ``spec`` (optional) swaps in another spec for the tail; it must
        share this snapshot's prefix hash, i.e. agree on everything that
        shaped the warm-up.
        """
        if spec is not None and spec.prefix_hash() != self.prefix_hash:
            raise SnapshotError(
                f"spec {spec.name!r} has prefix hash {spec.prefix_hash()[:12]}, "
                f"snapshot was taken at {self.prefix_hash[:12]}; "
                f"it cannot resume from this checkpoint"
            )
        import pickle

        unpickler = pickle.Unpickler(io.BytesIO(self._blob))
        unpickler.persistent_load = self._shared.__getitem__
        session = unpickler.load()
        restore_global_counters(self._counters)
        if spec is not None:
            session.spec = spec
        return session
