"""Host migration across partition boundaries.

The wire format for a migrating host is the PR 5 ``state_dict``
contract: the home partition captures the mobile host's role state,
deactivates the local object, and ships ``{host, to, role}``; the
destination materializes a visitor, loads the state, and attaches it —
which replays the paper's Section 3 move sequence over real
cross-partition gateway traffic.
"""

import pickle

import pytest

from repro.partition import partition_handoff_spec, run_partitioned
from repro.partition.runtime import PartitionRuntime
from repro.workloads.hierarchy import HierarchyModel


class TestStateDictWireFormat:
    def test_state_dict_round_trips_across_the_boundary(self):
        spec = partition_handoff_spec()
        model = HierarchyModel.from_spec(spec)
        src = PartitionRuntime(spec, model=model, index=0)
        # Run the source partition alone past host 0's t=3 migration
        # into campus 1.
        src.sim.run(until=3.5)
        migrates = [e for e in src.drain_outbox() if e[2] == "migrate"]
        assert len(migrates) == 1
        dst_index, arrival, _, blob, _ = migrates[0]
        assert dst_index == 1
        # Lookahead safety: the record cannot arrive before the
        # inter-campus delay has elapsed.
        assert arrival >= 3.0 + model.delay(0, 1)

        record = pickle.loads(blob)
        assert record["host"] == 0 and record["to"] == 2
        role_state = record["role"]

        # The departed host is deactivated and chain-forwarding knows
        # where it went.
        assert 0 not in src._here
        assert src._departed[0] == 1
        assert src.counters["migrations_out"] == 1

        # Loading the pickled state into a freshly materialized visitor
        # reproduces it byte-identically — the round-trip contract.
        dst = PartitionRuntime(spec, model=model, index=1)
        visitor = dst._make_visitor(0)
        visitor.load_state(pickle.loads(pickle.dumps(role_state)))
        assert visitor.state_dict() == role_state

    def test_a_migrated_host_keeps_counting_sequence_numbers(self):
        """A visitor that restarted its registration numbers in the new
        partition would start below the home agent's high-water mark and
        be ignored as stale."""
        spec = partition_handoff_spec()
        model = HierarchyModel.from_spec(spec)
        src = PartitionRuntime(spec, model=model, index=0)
        src.sim.run(until=3.5)
        blob = next(e for e in src.drain_outbox() if e[2] == "migrate")[3]
        role_state = pickle.loads(blob)["role"]
        assert role_state["seq"] == src._materialized[0].next_seq.last > 0
        dst = PartitionRuntime(spec, model=model, index=1)
        visitor = dst._make_visitor(0)
        visitor.load_state(role_state)
        assert visitor.next_seq() == role_state["seq"] + 1

    def test_arrival_materializes_and_attaches(self):
        spec = partition_handoff_spec()
        model = HierarchyModel.from_spec(spec)
        src = PartitionRuntime(spec, model=model, index=0)
        src.sim.run(until=3.5)
        (_, arrival, _, blob, _) = next(
            e for e in src.drain_outbox() if e[2] == "migrate"
        )
        dst = PartitionRuntime(spec, model=model, index=1)
        dst.inject([(arrival, "migrate", blob)])
        dst.sim.run(until=arrival + 1.0)
        assert 0 in dst._here
        assert dst.counters["migrations_in"] == 1
        visitor = dst._materialized[0]
        # Attached to campus 1's cell 0 (global cell 2) and registering
        # away from home through the gateway.
        assert visitor.iface.attached


class TestMigrationUnderWorkers:
    def test_round_trip_tour_completes_in_parallel(self):
        result = run_partitioned(partition_handoff_spec(), workers=4)
        by_partition = {r["partition"]: r for r in result.results}
        # Host 0 toured campus 1 and returned; host 5 visited campus 0
        # and returned to campus 2: two departures and two arrivals on
        # partition 0, one of each pairing on partitions 1 and 2.
        c0 = by_partition[0]["counters"]
        assert c0["migrations_out"] == 2 and c0["migrations_in"] == 2
        # Final residency: every host is back home.
        assert by_partition[0]["mobile_state"]["0"]["here"] is True
        assert by_partition[1]["mobile_state"]["0"]["here"] is False
        assert by_partition[2]["mobile_state"]["5"]["here"] is True
        assert by_partition[0]["mobile_state"]["5"]["here"] is False

    def test_forwarded_move_reaches_the_visited_partition(self):
        # The t=6 move targets host 0 while it is away in campus 1: the
        # home partition chain-forwards it instead of applying it.
        result = run_partitioned(partition_handoff_spec(), workers=0)
        by_partition = {r["partition"]: r for r in result.results}
        assert by_partition[0]["counters"]["moves_forwarded"] >= 1

    def test_cross_partition_flow_is_delivered_to_the_visitor(self):
        # Campus-1 correspondent streams 8 datagrams at host 0's home
        # address while host 0 migrates *into* campus 1 — delivery
        # crosses the boundary (or loops locally via the home tunnel)
        # every which way and must still complete.
        result = run_partitioned(partition_handoff_spec(), workers=0)
        by_partition = {r["partition"]: r for r in result.results}
        # The cross flow (8 datagrams) lands on host 0 while it visits
        # partition 1; the local flow (5) on host 6 in partition 3.
        assert sum(r["flow_received"] for r in result.results) == 13
        assert by_partition[1]["flow_received"] == 8
        assert by_partition[3]["flow_received"] == 5
