"""Unit and scenario tests for the runtime invariant auditor."""

import pytest

from repro.invariants.auditor import MAX_RECORDED_VIOLATIONS, InvariantAuditor
from repro.invariants.rules import RULES, Violation
from repro.ip.address import IPAddress
from repro.ip.packet import IPPacket, RawPayload
from repro.ip.protocols import UDP


def make_packet(ttl=64, protocol=UDP):
    return IPPacket(
        src=IPAddress("10.1.0.1"),
        dst=IPAddress("10.2.0.10"),
        protocol=protocol,
        payload=RawPayload(b"x"),
        ttl=ttl,
    )


class TestCatalogue:
    def test_rule_ids_are_pinned(self):
        """Regression tests and repro artifacts reference these ids."""
        assert set(RULES) == {
            "conservation",
            "drop-reason",
            "list-bound",
            "list-no-duplicates",
            "list-first-is-sender",
            "wire-roundtrip",
            "wire-checksum",
            "ttl-valid",
            "loop-budget",
            "cache-convergence",
        }

    def test_violation_renders_and_serializes(self):
        v = Violation(rule="ttl-valid", time=1.5, node="R1", uid=7, message="bad")
        assert "ttl-valid" in str(v) and "uid=7" in str(v)
        record = v.to_record()
        assert record["rule"] == "ttl-valid" and record["uid"] == 7


class TestAttachment:
    def test_attach_sets_sim_auditor(self, figure1):
        auditor = figure1.sim.attach(InvariantAuditor())
        assert figure1.sim.auditor is auditor
        auditor.detach()
        assert figure1.sim.auditor is None

    def test_detached_sim_has_none_auditor(self, figure1):
        assert figure1.sim.auditor is None


class TestUnitChecks:
    def test_clean_forward_records_nothing(self):
        auditor = InvariantAuditor()
        auditor.packet_forwarded(1.0, "R1", make_packet(ttl=5))
        assert auditor.ok

    def test_zero_ttl_forward_violates(self):
        auditor = InvariantAuditor()
        auditor.packet_forwarded(1.0, "R1", make_packet(ttl=0))
        assert [v.rule for v in auditor.violations] == ["ttl-valid"]

    def test_unknown_drop_reason_violates(self):
        auditor = InvariantAuditor()
        auditor.packet_dropped(1.0, "R1", make_packet(), "cosmic-rays")
        assert [v.rule for v in auditor.violations] == ["drop-reason"]

    def test_known_drop_reason_is_clean_terminal(self):
        auditor = InvariantAuditor()
        packet = make_packet()
        auditor.packet_sent(1.0, "S", packet)
        auditor.packet_dropped(2.0, "R1", packet, "no-route")
        assert auditor.finalize() == []
        assert auditor.ok

    def test_list_bound_violation(self):
        from repro.core.encapsulation import MHRPPayload
        from repro.core.header import MHRPHeader
        from repro.ip.protocols import MHRP

        auditor = InvariantAuditor(max_previous_sources=2, check_wire=False)
        header = MHRPHeader(
            orig_protocol=UDP,
            mobile_host=IPAddress("10.2.0.10"),
            previous_sources=[IPAddress(f"10.9.0.{i}") for i in range(1, 5)],
        )
        packet = make_packet(protocol=MHRP)
        packet.payload = MHRPPayload(header=header, inner=RawPayload(b"x"))
        auditor.packet_forwarded(1.0, "R1", packet)
        assert "list-bound" in {v.rule for v in auditor.violations}

    def test_duplicate_previous_sources_violate(self):
        from repro.core.encapsulation import MHRPPayload
        from repro.core.header import MHRPHeader
        from repro.ip.protocols import MHRP

        auditor = InvariantAuditor(max_previous_sources=8, check_wire=False)
        dup = IPAddress("10.9.0.1")
        header = MHRPHeader(
            orig_protocol=UDP,
            mobile_host=IPAddress("10.2.0.10"),
            previous_sources=[dup, dup],
        )
        packet = make_packet(protocol=MHRP)
        packet.payload = MHRPPayload(header=header, inner=RawPayload(b"x"))
        auditor.packet_forwarded(1.0, "R1", packet)
        assert "list-no-duplicates" in {v.rule for v in auditor.violations}

    def test_conservation_flags_unterminated_flight(self):
        auditor = InvariantAuditor()
        auditor.packet_sent(1.0, "S", make_packet())
        violations = auditor.finalize()
        assert [v.rule for v in violations] == ["conservation"]

    def test_conservation_ignores_flights_after_cutoff(self):
        auditor = InvariantAuditor()
        auditor.packet_sent(50.0, "S", make_packet())
        assert auditor.finalize(ignore_after=40.0) == []

    def test_frame_loss_is_a_terminal(self):
        auditor = InvariantAuditor()
        packet = make_packet()
        auditor.packet_sent(1.0, "S", packet)
        auditor.frame_lost(1.1, "S", packet, "loss")
        assert auditor.finalize() == []

    def test_frame_absorbed_is_a_terminal(self):
        auditor = InvariantAuditor()
        packet = make_packet()
        auditor.packet_sent(1.0, "S", packet)
        auditor.frame_absorbed(1.1, "R1", packet)
        assert auditor.finalize() == []

    def test_recorded_violations_are_bounded(self):
        auditor = InvariantAuditor()
        packet = make_packet()
        for _ in range(MAX_RECORDED_VIOLATIONS + 50):
            auditor.packet_dropped(1.0, "R1", packet, "???")
        assert len(auditor.violations) == MAX_RECORDED_VIOLATIONS
        assert auditor.total_violations == MAX_RECORDED_VIOLATIONS + 50
        assert "more" in auditor.render()

    def test_summary_is_flat_counters(self):
        auditor = InvariantAuditor()
        packet = make_packet()
        auditor.packet_sent(1.0, "S", packet)
        auditor.packet_dropped(2.0, "R1", packet, "no-route")
        summary = auditor.summary()
        assert summary["packets_tracked"] == 1
        assert summary["drops[no-route]"] == 1
        assert all(isinstance(v, int) for v in summary.values())


class TestScenarios:
    def test_figure1_walkthrough_is_violation_free(self, figure1):
        from repro.workloads.topology import drive_figure1

        auditor = figure1.sim.attach(InvariantAuditor())
        drive_figure1(figure1)
        cutoff = figure1.sim.now
        figure1.sim.run(until=cutoff + 10.0)
        auditor.finalize(ignore_after=cutoff)
        assert auditor.ok, auditor.render()
        assert auditor.packets_tracked > 0

    def test_seeded_loop_is_dissolved_within_budget(self):
        """The Section 5.3 lab under audit: loop detection fires and the
        loop-budget / list rules all hold."""
        from repro.workloads.loops import build_loop, inject_and_measure

        topo = build_loop(loop_size=6, max_list=4, seed=3)
        auditor = topo.sim.attach(InvariantAuditor(max_previous_sources=4))
        inject_and_measure(topo, loop_size=6, max_list=4)
        topo.sim.run_until_idle()
        auditor.finalize()
        assert auditor.ok, auditor.render()

    def test_disconnected_host_drop_is_a_counted_terminal(self, figure1):
        """The home agent's planned-disconnection discard must terminate
        the flight through the dataplane (the conservation fix)."""
        topo = figure1
        topo.m.attach(topo.net_d)
        topo.sim.run(until=5.0)
        auditor = topo.sim.attach(InvariantAuditor())
        topo.m.disconnect()
        topo.sim.run(until=8.0)
        topo.s.ping(topo.m.home_address)
        cutoff = topo.sim.now
        topo.sim.run(until=cutoff + 10.0)
        auditor.finalize(ignore_after=cutoff)
        assert auditor.ok, auditor.render()
        assert auditor.drops.get("mh-disconnected", 0) >= 1


class TestGoldenTraceByteIdentity:
    def test_attached_auditor_leaves_figure1_trace_identical(self):
        """Acceptance: attaching the auditor must not perturb the run —
        the full Figure-1 trace stays byte-identical to the committed
        golden file."""
        import json

        from tests.core.test_golden_trace import (
            GOLDEN_PATH,
            _reset_global_counters,
            trace_rows,
        )
        from repro.workloads.topology import build_figure1

        _reset_global_counters()
        topo = build_figure1(seed=42)
        auditor = topo.sim.attach(InvariantAuditor())
        sim, s, m = topo.sim, topo.s, topo.m
        m.attach_home(topo.net_b)
        sim.run(until=5.0)
        m.attach(topo.net_d)
        sim.run(until=12.0)
        s.ping(m.home_address)
        sim.run(until=16.0)
        s.ping(m.home_address)
        sim.run(until=20.0)
        m.attach(topo.net_e)
        sim.run(until=28.0)
        s.ping(m.home_address)
        sim.run(until=32.0)
        m.attach_home(topo.net_b)
        sim.run(until=38.0)
        s.ping(m.home_address)
        sim.run(until=42.0)
        current = trace_rows(sim.tracer)
        golden = json.loads(GOLDEN_PATH.read_text())
        assert current == golden
        assert auditor.ok, auditor.render()
