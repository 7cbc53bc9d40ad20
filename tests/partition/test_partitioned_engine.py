"""The conservative-synchronization engine: byte-identity and liveness.

The load-bearing property is that a *parallel* partitioned run (one OS
process per partition) is indistinguishable from the *serial* reference
(``workers=0``, same protocol in one process): identical per-partition
trace digests, health summaries, and final mobile-host state.  Both
pinned corpus scenarios check it, plus the zero-lookahead degenerate
case where the engine must fall back to a global barrier instead of
deadlocking.
"""

import pytest

from repro.partition import (
    derive_partition_seed,
    partition_faults_spec,
    partition_handoff_spec,
    run_partitioned,
)


def _zero_delay(spec):
    spec.hierarchy = dict(spec.hierarchy, hop_delay=0.0)
    return spec


class TestByteIdentity:
    @pytest.mark.parametrize(
        "spec_fn", [partition_handoff_spec, partition_faults_spec],
        ids=["handoff", "faults"],
    )
    def test_parallel_matches_serial(self, spec_fn):
        serial = run_partitioned(spec_fn(), workers=0)
        parallel = run_partitioned(spec_fn(), workers=spec_fn().partitions)
        assert parallel.fingerprint() == serial.fingerprint()
        assert parallel.events == serial.events
        assert serial.workers == 0 and parallel.workers == 4
        assert parallel.mode == "window"

    def test_serial_rerun_is_deterministic(self):
        first = run_partitioned(partition_handoff_spec(), workers=0)
        second = run_partitioned(partition_handoff_spec(), workers=0)
        assert first.fingerprint() == second.fingerprint()


class TestZeroDelayBarrier:
    def test_zero_lookahead_forces_barrier_and_terminates(self):
        serial = run_partitioned(_zero_delay(partition_handoff_spec()), workers=0)
        assert serial.lookahead == 0.0
        assert serial.mode == "barrier"
        # No deadlock, and the whole schedule still executed: every
        # partition ran its horizon out.
        assert all(r["now"] == pytest.approx(12.0) for r in serial.results)

    def test_zero_lookahead_still_byte_identical(self):
        serial = run_partitioned(_zero_delay(partition_handoff_spec()), workers=0)
        parallel = run_partitioned(_zero_delay(partition_handoff_spec()), workers=4)
        assert parallel.mode == "barrier"
        assert parallel.fingerprint() == serial.fingerprint()


class TestWindowProtocol:
    def test_lookahead_and_exchange_counters(self):
        result = run_partitioned(partition_handoff_spec(), workers=0)
        # depth-2 binary tree, hop_delay=0.01: nearest siblings are two
        # tree hops apart.
        assert result.lookahead == pytest.approx(0.02)
        assert result.windows > 0
        assert result.exports_delivered > 0
        # Cross-partition flow + migrations + pings all crossed borders.
        sent = sum(r["counters"]["packets_exported"] for r in result.results)
        assert sent > 0

    def test_merged_health_is_coherent(self):
        result = run_partitioned(partition_handoff_spec(), workers=0)
        merged = result.health_merged()
        per_partition = [r["health"] for r in result.results]
        for key in ("moves", "registrations", "packets_delivered"):
            assert merged[key] == sum(h[key] for h in per_partition)
        assert merged["moves"] > 0 and merged["packets_delivered"] > 0


class TestSeedDerivation:
    def test_partition_seeds_are_distinct_and_stable(self):
        seeds = [derive_partition_seed(42, i) for i in range(16)]
        assert len(set(seeds)) == 16
        assert seeds == [derive_partition_seed(42, i) for i in range(16)]
        assert derive_partition_seed(43, 0) != derive_partition_seed(42, 0)


class TestWorkerDeath:
    def test_killed_worker_raises_a_named_error_and_leaves_no_children(
        self, monkeypatch
    ):
        """A partition worker that dies mid-run (no traceback to send)
        surfaces as a SimulationError naming the partition and its exit
        code, and every other worker is stopped."""
        import multiprocessing
        import os

        from repro.errors import SimulationError
        from repro.partition.runtime import PartitionRuntime

        run_window = PartitionRuntime.run_window

        def dying_run_window(self, barrier, inclusive=False):
            if self.index == 1:
                os._exit(9)
            return run_window(self, barrier, inclusive)

        monkeypatch.setattr(PartitionRuntime, "run_window", dying_run_window)
        with pytest.raises(SimulationError, match=r"partition 1 .*exit code 9"):
            run_partitioned(partition_handoff_spec(), workers=2)
        assert multiprocessing.active_children() == []

    def test_hung_worker_raises_a_named_error_at_the_deadline(
        self, monkeypatch
    ):
        """A worker that hangs cannot block the window loop: under an
        armed deadline the wait for its reply ends, the error names the
        partition, and every worker is stopped."""
        import multiprocessing
        import time

        from repro.errors import SimulationError
        from repro.harness.deadline import clear_deadline, set_deadline
        from repro.partition.runtime import PartitionRuntime

        run_window = PartitionRuntime.run_window

        def hanging_run_window(self, barrier, inclusive=False):
            if self.index == 1:
                time.sleep(600)
            return run_window(self, barrier, inclusive)

        monkeypatch.setattr(PartitionRuntime, "run_window", hanging_run_window)
        started = time.monotonic()
        set_deadline(2)
        try:
            with pytest.raises(SimulationError, match=r"partition 1 .*deadline"):
                run_partitioned(partition_handoff_spec(), workers=2)
        finally:
            clear_deadline()
        assert time.monotonic() - started < 10
        assert multiprocessing.active_children() == []
