"""The loop laboratory (Section 5.3 experiments).

Builds a campus whose foreign agents' caches are seeded into a ring —
the "incorrect implementation could accidentally create a loop of cache
agents" of Section 5.3 — and injects one tunneled packet into it.  The
loop experiments (E3, A1) and the ``loop-contraction`` sweep all measure
what that packet experiences.

Lived in ``benchmarks/loop_common.py`` originally; it moved into the
package so sweep workers (separate processes) can import it by dotted
path without the repository root on ``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.encapsulation import encapsulate
from repro.ip.packet import IPPacket, RawPayload
from repro.ip.protocols import UDP
from repro.netsim.simulator import Simulator
from repro.workloads.topology import CampusTopology, build_campus


@dataclass
class LoopRun:
    """What one injected packet experienced."""

    loop_size: int
    max_list: int
    retunnels: int        # times the packet was re-tunneled before the end
    detected: bool        # loop formally detected (address on the list)
    escaped_home: bool    # contraction collapsed the loop and the packet
                          # fell back to the tunnel-to-home path
    loop_bytes: int       # bytes the loop burned on the backbone
    updates_sent: int     # location updates (overflow + purge) emitted
    resolved: bool = True # the packet reached *some* terminal — dissolve,
                          # escape home, delivery attempt, or drop — and
                          # stopped circulating (small bounds can collapse
                          # a loop via the overflow fan-out alone, ending
                          # in a delivery attempt with no formal detection)


def build_loop(loop_size: int, max_list: int, seed: int = 3) -> CampusTopology:
    """A campus of ``loop_size`` cells with ring-seeded caches."""
    topo = build_campus(
        n_cells=loop_size,
        n_mobile_hosts=0,
        n_correspondents=1,
        sim=Simulator(seed=seed),
        advertise=False,
        max_previous_sources=max_list,
    )
    phantom = topo.home_prefix.host(77)  # a host that is nowhere
    for index, roles in enumerate(topo.cell_roles):
        next_fa = topo.cell_roles[(index + 1) % loop_size].foreign_agent.address
        roles.cache_agent.learn(phantom, next_fa)
    return topo


def inject_and_measure(
    topo: CampusTopology, loop_size: int, max_list: int, ttl: int = 64
) -> LoopRun:
    sim = topo.sim
    phantom = topo.home_prefix.host(77)
    correspondent = topo.correspondents[0]
    packet = IPPacket(
        src=correspondent.primary_address,
        dst=phantom,
        protocol=UDP,
        payload=RawPayload(b"loop-probe"),
        ttl=ttl,
        uid=sim.next_uid(),
    )
    encapsulate(packet, topo.cell_roles[0].foreign_agent.address, agent_address=None)
    bytes_before = topo.backbone.bytes_transmitted
    sim.tracer.restrict({"mhrp.tunnel", "mhrp.loop", "mhrp.update", "ip.drop"})
    correspondent.send(packet)
    sim.run(until=sim.now + 120.0)
    retunnels = sum(
        1
        for e in sim.tracer.select("mhrp.tunnel")
        if e.detail.get("event") == "fa-retunnel" and e.detail.get("uid") == packet.uid
    )
    detected = any(
        e.detail.get("uid") == packet.uid for e in sim.tracer.select("mhrp.loop")
    )
    escaped_home = any(
        e.detail.get("uid") == packet.uid and e.detail.get("going_home")
        for e in sim.tracer.select("mhrp.tunnel")
        if e.detail.get("event") == "fa-retunnel"
    )
    updates = sum(
        1 for e in sim.tracer.select("mhrp.update") if e.detail.get("event") == "sent"
    )
    # A terminal besides dissolution/escape: a foreign agent attempted
    # local delivery (the overflow fan-out pointed a cache at itself and
    # the Section 5.2 recovery re-added the phantom), or the packet was
    # dropped (ARP failure on that delivery, TTL expiry, ...).
    ended = any(
        (e.category == "mhrp.tunnel" and e.detail.get("event") == "fa-deliver"
         and e.detail.get("uid") == packet.uid)
        or (e.category == "ip.drop" and e.detail.get("uid") == packet.uid)
        for e in sim.tracer
    )
    return LoopRun(
        loop_size=loop_size,
        max_list=max_list,
        retunnels=retunnels,
        detected=detected,
        escaped_home=escaped_home,
        loop_bytes=topo.backbone.bytes_transmitted - bytes_before,
        updates_sent=updates,
        resolved=detected or escaped_home or ended,
    )


def run_loop_experiment(
    loop_size: int, max_list: int, ttl: int = 64, seed: int = 3
) -> LoopRun:
    topo = build_loop(loop_size, max_list, seed=seed)
    return inject_and_measure(topo, loop_size, max_list, ttl=ttl)
