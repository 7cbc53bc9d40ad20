"""Micro-benchmarks of the substrate itself.

Not a paper experiment — these keep the simulator fast enough that the
protocol experiments stay cheap, and give contributors a regression
baseline: event throughput, packet serialization, the encapsulation
transforms, and routing-table lookups.
"""

from __future__ import annotations

from repro.core.encapsulation import decapsulate, encapsulate, retunnel
from repro.ip.address import IPAddress, IPNetwork
from repro.ip.packet import IPPacket, RawPayload
from repro.ip.routing import RoutingTable
from repro.netsim import Simulator


def test_event_throughput(benchmark):
    """Schedule-and-run cost of the event engine (50k events)."""

    def run():
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 50_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run_until_idle(max_events=60_000)
        return count[0]

    assert benchmark(run) == 50_000


def test_packet_serialization(benchmark):
    """Byte-accurate serialization of a tunneled packet."""
    packet = IPPacket(
        src="10.0.0.1", dst="10.2.0.10", protocol=6,
        payload=RawPayload(b"x" * 512),
    )
    encapsulate(packet, IPAddress("10.4.0.254"), agent_address=IPAddress("10.2.0.254"))

    def run():
        return packet.to_bytes()

    wire = benchmark(run)
    assert len(wire) == packet.total_length


def test_tunnel_transform_cycle(benchmark):
    """encapsulate -> retunnel -> decapsulate round trip."""

    def run():
        packet = IPPacket(
            src="10.0.0.1", dst="10.2.0.10", protocol=17,
            payload=RawPayload(b"payload"),
        )
        encapsulate(packet, IPAddress("10.4.0.254"),
                    agent_address=IPAddress("10.2.0.254"))
        retunnel(packet, IPAddress("10.5.0.254"),
                 my_address=IPAddress("10.4.0.254"))
        decapsulate(packet)
        return packet

    packet = benchmark(run)
    assert packet.dst == "10.2.0.10"


def test_routing_lookup(benchmark):
    """Longest-prefix match over a 200-prefix table."""
    table = RoutingTable()
    for i in range(200):
        table.add_next_hop(
            IPNetwork((10 << 24) | (i << 16), 16),
            IPAddress("192.168.0.1"), "eth0",
        )
    table.add_next_hop(IPNetwork("10.50.0.99/32"), IPAddress("192.168.0.2"), "eth0")
    probe = IPAddress("10.50.0.99")

    def run():
        return table.lookup(probe)

    route = benchmark(run)
    assert route.network.prefix_len == 32
