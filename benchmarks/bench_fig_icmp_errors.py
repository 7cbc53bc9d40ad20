"""E8 — returned ICMP error handling (paper Section 4.5).

Claims measured:

1. an error raised inside a tunnel chain travels back **along the same
   set of tunnels** to the original sender, with the quoted packet
   reversed into its original (pre-tunnel) form at each head;
2. each cache agent on the way processes the error locally, deleting
   its (likely path-broken) cache entry;
3. when routers quote only the RFC 792 minimum (IP header + 8 bytes),
   the chain cannot be reversed — the head can only delete its cache
   entry, exactly the degraded behaviour the paper describes.
"""

from __future__ import annotations

from repro.baselines.mhrp_scenario import MHRPScenario
from repro.ip.packet import IPPacket, RawPayload
from repro.ip.protocols import UDP
from repro.metrics import Table


def run_error_experiment(quote_full: bool):
    """Break the path to the foreign agent mid-stream and watch the
    error come back to the sending host."""
    scenario = MHRPScenario(n_cells=2)
    sim = scenario.sim
    scenario.move_to_cell(0)
    scenario.settle()
    scenario.send_packet()          # primes the correspondent's cache
    scenario.settle(3.0)
    correspondent = scenario.correspondent
    for router in scenario.topo.all_routers():
        router.icmp_quote_full = quote_full
    # Partition the cell: the home router loses its route to cell 0, so
    # tunnels die at the home router... but the sender tunnels directly,
    # so break at the correspondent's router instead.
    cell_net = scenario.topo.cell_nets[0]
    scenario.topo.corr_router.routing_table.remove(cell_net)
    errors_seen = []
    correspondent.on_icmp_error(lambda p, e: errors_seen.append(e))
    original = IPPacket(
        src=correspondent.primary_address,
        dst=scenario.topo.mobile_home_address,
        protocol=UDP,
        payload=RawPayload(b"doomed"),
        uid=sim.next_uid(),
    )
    correspondent.send(original.copy())
    sim.run(until=sim.now + 10.0)
    cache_entry = correspondent.cache_agent.cache.peek(
        scenario.topo.mobile_home_address
    )
    reversed_ok = any(
        e.quoted is not None
        and e.quoted.protocol == UDP
        and e.quoted.dst == scenario.topo.mobile_home_address
        and e.quoted.src == correspondent.primary_address
        for e in errors_seen
    )
    return {
        "errors": len(errors_seen),
        "reversed": reversed_ok,
        "cache_purged": cache_entry is None,
        "handler": correspondent.error_handler,
    }


def build_error_table():
    table = Table(
        "E8  Returned ICMP errors through MHRP tunnels",
        ["router quoting", "error at sender", "original packet reconstructed",
         "stale cache purged"],
    )
    full = run_error_experiment(quote_full=True)
    table.add_row(
        "full packet (RFC 1812)",
        "yes" if full["errors"] else "no",
        "yes" if full["reversed"] else "no",
        "yes" if full["cache_purged"] else "no",
    )
    minimal = run_error_experiment(quote_full=False)
    table.add_row(
        "IP header + 8 B (RFC 792 min)",
        "yes" if minimal["errors"] else "no",
        "yes" if minimal["reversed"] else "no",
        "yes" if minimal["cache_purged"] else "no",
    )
    return table, full, minimal


def test_icmp_errors(benchmark, record):
    table, full, minimal = benchmark.pedantic(build_error_table, rounds=1, iterations=1)
    record("E8_icmp_errors", table)
    # Full quotes: the sender gets an error quoting its original packet.
    assert full["errors"] >= 1
    assert full["reversed"]
    assert full["cache_purged"]
    # Minimal quotes: reversal impossible, but the cache is still purged
    # ("little can be done ... beyond deleting its cache entry").
    assert not minimal["reversed"]
    assert minimal["cache_purged"]
    assert minimal["handler"].errors_unparseable >= 1
