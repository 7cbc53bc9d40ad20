"""Shared machinery for comparison scenarios.

:class:`UDPProbeScenario` implements the workload half of the scenario
interface: it sends sequence-numbered UDP datagrams from the
correspondent to the mobile host's permanent address and measures, per
delivered packet, the *on-wire* protocol overhead — the largest frame
the logical packet occupied anywhere on its path (tracked by uid through
every tunneling transform) minus the plain IP size of the same datagram.

Protocol scenarios subclass this and provide movement + role setup.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.interface import Scenario, count_hops
from repro.baselines.startopo import StarTopology
from repro.ip.address import IPAddress
from repro.ip.host import Host
from repro.ip.packet import IPPacket
from repro.ip.protocols import UDP as PROTO_UDP
from repro.link.frame import FRAME_OVERHEAD
from repro.netsim.simulator import Simulator
from repro.scenario.world import build_world
from repro.transport.segments import UDPDatagram

PROBE_PORT = 46000


class WireSizeTracker:
    """Largest on-wire size seen per logical packet uid."""

    def __init__(self, sim: Simulator) -> None:
        self.max_bytes: Dict[int, int] = {}
        sim.tracer.subscribe(self._on_entry)

    def _on_entry(self, entry) -> None:
        if entry.category != "link.tx":
            return
        uid = entry.detail.get("uid")
        if uid is None:
            return
        size = entry.detail.get("bytes", 0) - FRAME_OVERHEAD
        if size > self.max_bytes.get(uid, 0):
            self.max_bytes[uid] = size


class UDPProbeScenario(Scenario):
    """Scenario with the UDP probe workload wired up.

    Builds the shared comparison star (``star_params`` go to
    :func:`repro.plan.star_plan`); subclasses attach their protocol's
    roles to ``self.topo``'s plain routers, call :meth:`_init_probe`
    once their correspondent and mobile host nodes exist, and may
    override :meth:`_sent_packet` to adjust the outgoing packet (e.g.
    VIP wraps every packet).
    """

    def __init__(self, sim: Simulator, n_cells: int, **star_params) -> None:
        super().__init__(sim, n_cells)
        self._wire = WireSizeTracker(sim)
        self._uid_by_seq: Dict[int, int] = {}
        self._plain_size: Dict[int, int] = {}
        self._next_seq = 0
        self.correspondent: Optional[Host] = None
        self.mobile_node: Optional[Host] = None
        self.mobile_address: Optional[IPAddress] = None
        self.world = build_world(
            sim, {"kind": "star", "n_cells": n_cells, **star_params}
        )
        self.topo = StarTopology(self.world)

    # ------------------------------------------------------------------
    def _init_probe(
        self,
        correspondent: Host,
        mobile_node: Host,
        mobile_address: IPAddress,
        echo: bool = False,
    ) -> None:
        """Wire the probe; ``echo=True`` makes the mobile host answer
        each datagram (protocols like Sony VIP only learn sender-side
        bindings from reverse traffic)."""
        self.correspondent = correspondent
        self.mobile_node = mobile_node
        self.mobile_address = IPAddress(mobile_address)
        self._echo = echo
        self._socket = mobile_node.udp.bind(PROBE_PORT)
        self._socket.on_receive = self._on_probe_received

    def send_packet(self, payload_size: int = 64) -> None:
        assert self.correspondent is not None, "call _init_probe first"
        seq = self._next_seq
        self._next_seq += 1
        payload = seq.to_bytes(8, "big") + b"\x00" * max(payload_size - 8, 0)
        datagram = UDPDatagram(
            src_port=PROBE_PORT + 1, dst_port=PROBE_PORT, data=payload
        )
        packet = IPPacket(
            src=self.correspondent.primary_address,
            dst=self.mobile_address,
            protocol=PROTO_UDP,
            payload=datagram,
            uid=self.sim.next_uid(),
        )
        self._uid_by_seq[seq] = packet.uid
        self._plain_size[seq] = packet.total_length
        self.note_sent()
        self.correspondent.send(packet)

    def _on_probe_received(self, data: bytes, src: IPAddress, src_port: int) -> None:
        seq = int.from_bytes(data[:8], "big")
        uid = self._uid_by_seq.get(seq)
        if uid is None:
            return
        wire_max = self._wire.max_bytes.get(uid, self._plain_size[seq])
        overhead = max(wire_max - self._plain_size[seq], 0)
        self.note_delivered(overhead, hops=count_hops(self.sim, uid))
        if self._echo:
            self._socket.send_to(data[:8], src, src_port)
