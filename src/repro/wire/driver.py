"""Deterministic in-process driver for engine worlds.

The sans-io engines in :mod:`repro.wire.engine` never touch a clock or a
socket; someone has to deliver their datagrams, fire their timers, and
apply their schedules.  This module is the reference driver: a bare
:class:`~repro.netsim.simulator.Simulator` as the ``(time, sequence)``
event kernel, per-medium propagation latency, and an adapter that feeds
every :class:`~repro.wire.engine.EngineEvent` into
:class:`~repro.telemetry.health.ProtocolHealth` through exactly the
channels the simulator uses (direct hooks for packet lifecycle and
telemetry feeds, synthesized :class:`~repro.netsim.trace.TraceEntry`
records for the ``mhrp.*`` tracer vocabulary).

The live UDP backend (:mod:`repro.live`) reuses :class:`HealthFeed` and
the schedule actuator (:class:`ScheduleActions`) verbatim — only the
transport and the clock differ — which is what makes the cross-backend
conformance diff meaningful: both backends observe the protocol through
the same lens.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Dict, List, Tuple

from repro.netsim.simulator import Simulator, Timer
from repro.netsim.trace import TraceEntry
from repro.scenario.session import ScheduleInstaller
from repro.wire.engine import Datagram, EngineEvent, EngineOutput, NodeEngine
from repro.wire.topo import EngineTopology, build_engine_world


class HealthFeed:
    """Feed :class:`~repro.telemetry.health.ProtocolHealth` from engine
    events, through the same channels the simulator attachment uses.

    - ``packet.*`` events carry the decoded packet and map onto the
      direct packet-lifecycle hooks;
    - ``health.*`` events map onto the direct telemetry feeds;
    - events in ``ProtocolHealth.TRACE_CATEGORIES`` become a
      :class:`TraceEntry` pushed through the tracer channel, so the
      trace-driven analytics (tunnel chains, loop dissolution latency)
      see the identical vocabulary; the hub reads no other category,
      on either adapter.
    """

    def __init__(self, health) -> None:
        self.health = health

    def consume(self, time: float, event: EngineEvent) -> None:
        health = self.health
        category = event.category
        if category.startswith("packet."):
            if event.packet is None:
                return  # decode-error drops have no packet to account
            kind = category[len("packet."):]
            if kind == "sent":
                health.packet_sent(time, event.node, event.packet)
            elif kind == "forwarded":
                health.packet_forwarded(time, event.node, event.packet)
            elif kind == "delivered":
                health.packet_delivered(time, event.node, event.packet)
            elif kind == "dropped":
                health.packet_dropped(
                    time, event.node, event.packet, event.detail["reason"]
                )
        elif category.startswith("health."):
            kind = category[len("health."):]
            detail = event.detail
            if kind == "cache_lookup":
                health.cache_lookup(event.node, bool(detail["hit"]))
            elif kind == "mh_moved":
                health.mh_moved(time, event.node)
            elif kind == "registration_complete":
                health.registration_complete(
                    time, event.node, detail["agent"], detail["latency"]
                )
            elif kind == "tunnel_delivery":
                health.tunnel_delivery(
                    time, event.node, detail["mobile_host"],
                    detail["n_previous_sources"],
                )
        elif category in health.TRACE_CATEGORIES:
            health._on_trace(TraceEntry(
                time=time, category=category, node=event.node,
                detail=dict(event.detail),
            ))


class ScheduleActions(ScheduleInstaller):
    """The engine actuator under the one schedule reader
    (:class:`~repro.scenario.session.ScheduleInstaller`): only what the
    entries *do* to an engine world differs and lives here.  That both
    actuators queue the same ``(t, label, action, args)`` sequence is
    pinned by ``tests/scenario/test_schedule_parity.py``.

    Hosts must provide ``topo``, ``world``, ``now``,
    ``process(node, output)`` and a way to queue (``sim`` or ``_at``).
    """

    topo: EngineTopology

    #: Flows installed so far.  Entries install in spec order, so this
    #: is the next flow's position in ``spec.flows`` — its flow id.
    _flows_installed = 0

    def _install_flow(self, entry: dict) -> None:
        flow_id = self._flows_installed
        self._flows_installed = flow_id + 1
        self._at(
            entry["start"], partial(self._start_flow, flow_id, entry),
            "scenario-flow",
        )

    def _apply_move(self, host_index: int, to: int) -> None:
        """Cell index, ``-1`` home, ``-2`` disconnect (wrapping, like
        the simulator's ``_place``)."""
        topo = self.topo
        index = host_index % len(topo.mobile_hosts)
        name = topo.mobile_hosts[index]
        mh = topo.mobile_host(index)
        if to == -2:
            if self.world.medium_of(name, mh.WIFI) is not None:
                # Section 3 ordering: notifications go out while still
                # attached; the physical detach happens last.
                self.process(mh, mh.command(self.now, "disconnect"))
                self.world.detach(name, mh.WIFI)
            return
        self.world.detach(name, mh.WIFI)
        if to == -1:
            self.world.attach(topo.home_medium, name, mh.WIFI)
            self.process(mh, mh.command(self.now, "attach_home"))
        else:
            cell = topo.cells[to % len(topo.cells)]
            self.world.attach(cell, name, mh.WIFI)
            self.process(mh, mh.command(self.now, "attach"))

    def _apply_fault(self, name: str, kind: str) -> None:
        node_name = self.topo.fault_nodes.get(name)
        if node_name is None:
            return
        node = self.world.nodes[node_name]
        command = "crash" if kind == "crash" else "reboot"
        self.process(node, node.command(self.now, command))

    def _command_to_host(self, src: int, host: int, command: str, **kwargs) -> None:
        """Correspondent ``src`` runs ``command`` towards mobile host
        ``host``'s home address (indices wrap around the rosters)."""
        topo = self.topo
        sender = topo.correspondent(src % len(topo.correspondents))
        mh = topo.mobile_host(host % len(topo.mobile_hosts))
        self.process(sender, sender.command(
            self.now, command, dst=mh.home_address, **kwargs
        ))

    def _send_ping(self, src: int, host: int) -> None:
        self._command_to_host(src, host, "ping")

    def _send_probe(self, src: int, host: int, watched: bool) -> None:
        # ``watched`` arms the auditor on the second probe: a
        # simulator-only instrument, so both probes are plain sends.
        self._command_to_host(src, host, "probe")

    def _start_flow(self, flow_id: int, entry: dict) -> None:
        """Start a CBR UDP stream on the correspondent engine (the
        engines' transport endpoints — the simulator runs
        :class:`repro.workloads.traffic.CBRStream`)."""
        self._command_to_host(
            entry["src"], entry["host"], "flow",
            interval=entry["interval"],
            count=entry["count"],
            port=entry.get("port", 40000),
            payload_size=entry.get("payload_size", 64),
            flow_id=flow_id,
        )


class EngineDriver(ScheduleActions):
    """Run an :class:`~repro.wire.topo.EngineTopology` deterministically.

    Datagram arrivals, timer fires and schedule entries are all events
    on a bare :class:`~repro.netsim.simulator.Simulator` (clock + queue,
    no nodes) — the ``(time, sequence)`` kernel the simulator backend
    runs on — so two runs of a schedule are byte-identical and a
    ``copy.deepcopy`` of a driver mid-run continues like the original.

    Each engine ``(node, key)`` timer is a
    :class:`~repro.netsim.simulator.Timer`: re-arming or cancelling it
    cancels the queued fire (the engine also pops its own callback on
    fire, so stale fires are doubly inert).
    """

    def __init__(self, topo: EngineTopology, health=None, obs=None) -> None:
        self.topo = topo
        self.world = topo.world
        self.sim = Simulator()
        self._timers: Dict[Tuple[str, str], Timer] = {}
        #: Every engine event, time-stamped, in execution order — the
        #: conformance harness projects its comparisons out of this.
        self.events: List[Tuple[float, EngineEvent]] = []
        self.feed = HealthFeed(health) if health is not None else None
        #: The observability plane (:class:`repro.obs.ObsPlane`) when
        #: one is attached; every notification site is is-None guarded,
        #: so a detached run pays one attribute load per turn.
        self.obs = obs
        self.datagrams_delivered = 0
        self.datagrams_unresolved = 0
        # Boot turn: what the simulator runs at construction time
        # (periodic advertisers send their first broadcast here).
        for node in self.world.nodes.values():
            self.process(node, node.start(self.now))

    @property
    def now(self) -> float:
        return self.sim.clock.now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _staged(self, stage: str, action):
        """``action``, wall-timed as obs stage ``stage`` — only when a
        plane is attached: a detached run never reads a wall clock (the
        ``Tracer.active`` zero-cost discipline)."""
        if self.obs is None:
            return action
        return partial(self._run_staged, stage, action)

    def _run_staged(self, stage: str, action) -> None:
        started = perf_counter()
        action()
        self.obs.time_stage("driver", stage, perf_counter() - started)

    def _at(self, t: float, action, label: str) -> None:
        if self.obs is not None:
            # "scenario-probe-warm" -> stage "probe": the entry kind.
            action = self._staged(label.split("-")[1], action)
        self.sim.schedule_at(t, action, label=label)

    def install_spec(self, spec) -> None:
        """Install a ScenarioSpec schedule (every entry kind; flows and
        probes execute on the engines' own transport endpoints)."""
        self._install(spec.entries())

    # ------------------------------------------------------------------
    # Engine output processing
    # ------------------------------------------------------------------
    def process(self, node: NodeEngine, output: EngineOutput) -> None:
        obs = self.obs
        now = self.now
        for event in output.events:
            self.events.append((now, event))
            if self.feed is not None:
                self.feed.consume(now, event)
            if obs is not None:
                obs.consume_event(now, event)
        for op in output.timers:
            slot = (node.name, op.key)
            timer = self._timers.get(slot)
            if timer is None:
                timer = self._timers[slot] = self.sim.timer(
                    self._staged("timer", partial(self._fire_timer, node, op.key)),
                    label=f"timer:{node.name}:{op.key}",
                )
            if op.delay is None:
                timer.cancel()
            else:
                timer.start(op.delay)
        for datagram in output.datagrams:
            self._transmit(node, datagram, now)

    def _transmit(self, node: NodeEngine, datagram: Datagram, now: float) -> None:
        medium = self.world.medium_of(node.name, datagram.iface)
        if medium is None:
            # Detached interface: the bits go nowhere (a retransmit
            # racing a disconnect, exactly like the simulator).
            self.datagrams_unresolved += 1
            return
        if datagram.broadcast:
            sender = (node.name, datagram.iface)
            targets = [m for m in self.world.media[medium] if m != sender]
        else:
            target = self.world.resolve(medium, datagram.next_hop)
            if target is None:
                # No endpoint owns the next-hop address on this medium —
                # the simulator's ARP would have timed out the same way.
                self.datagrams_unresolved += 1
                return
            targets = (target,)
        arrival = now + self.topo.latency[medium]
        # Deliveries are the dominant event kind and never cancelled:
        # Event-less bulk entries (an Event each costs 8-10 % end to end).
        push = self.sim.queue.push_one
        for member_node, member_iface in targets:
            push(arrival, self._staged("datagram", partial(
                self._deliver, member_node, member_iface, datagram.data
            )))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _deliver(self, node_name: str, iface_name: str, data: bytes) -> None:
        # The medium delivers to whoever was attached at send time;
        # a node that moved away in flight misses the bits.
        if self.world.medium_of(node_name, iface_name) is None:
            self.datagrams_unresolved += 1
            return
        self.datagrams_delivered += 1
        node = self.world.nodes[node_name]
        self.process(node, node.datagram_received(self.now, data, iface_name))

    def _fire_timer(self, node: NodeEngine, key: str) -> None:
        self.process(node, node.timer_fired(self.now, key))

    def run(self, until: float) -> int:
        """Process every queued action with ``time <= until``; the clock
        lands exactly on ``until``.  Returns the number processed."""
        return self.sim.run(until=until)


def _run_engine_spec(spec, health=None, obs=None, until=None) -> EngineDriver:
    """Boot the spec's topology as engines, install its schedule, and
    run to ``until`` (default: the spec's horizon).  Internal entry
    point behind :func:`repro.backend.run`."""
    driver = EngineDriver(build_engine_world(spec.topology), health=health, obs=obs)
    driver.install_spec(spec)
    driver.run(until=spec.horizon if until is None else until)
    return driver
