"""Deliberately re-introduce the satellite bugs and verify the auditor
catches each one — the acceptance criterion for the bugfix archetype.

Every patch below reverts one named fix from this PR back to its seed
behaviour; the corresponding rule must fire, and for the wire bug the
fuzzer must shrink the violating scenario to a smaller replayable repro.
"""

from unittest import mock

from repro.core.header import FIXED_HEADER_LEN, MHRPHeader
from repro.invariants import fuzz
from repro.invariants.auditor import InvariantAuditor

# The underlying function of the (fixed) classmethod, for delegation.
_REAL_FROM_BYTES = MHRPHeader.from_bytes.__func__


def _lenient_from_bytes(cls, data):
    """The seed decoder: silently ignore anything past ``needed``."""
    if len(data) >= FIXED_HEADER_LEN:
        needed = FIXED_HEADER_LEN + 4 * data[1]
        data = data[:needed]
    return _REAL_FROM_BYTES(cls, data)


def _unchecked_from_bytes(cls, data):
    """A decoder that forgot the checksum (and trailing-byte) checks."""
    if len(data) >= FIXED_HEADER_LEN:
        from repro.ip.address import IPAddress

        count = data[1]
        needed = FIXED_HEADER_LEN + 4 * count
        if len(data) >= needed:
            return cls(
                orig_protocol=data[0],
                mobile_host=IPAddress.from_bytes(data[4:8]),
                previous_sources=[
                    IPAddress.from_bytes(data[8 + 4 * i : 12 + 4 * i])
                    for i in range(count)
                ],
            )
    return _REAL_FROM_BYTES(cls, data)


def _audited_figure1(figure1):
    from repro.workloads.topology import drive_figure1

    auditor = figure1.sim.attach(InvariantAuditor())
    drive_figure1(figure1)
    cutoff = figure1.sim.now
    figure1.sim.run(until=cutoff + 10.0)
    auditor.finalize(ignore_after=cutoff)
    return auditor


class TestTrailingBytesBug:
    def test_auditor_catches_it_on_figure1(self, figure1):
        with mock.patch.object(
            MHRPHeader, "from_bytes", classmethod(_lenient_from_bytes)
        ):
            auditor = _audited_figure1(figure1)
        assert "wire-roundtrip" in {v.rule for v in auditor.violations}

    def test_fuzzer_catches_it_and_shrinks_a_repro(self, tmp_path):
        """The full loop: a fuzz seed violates, the shrinker produces a
        smaller scenario that still reproduces, and the saved artifact
        replays to the same rule."""
        with mock.patch.object(
            MHRPHeader, "from_bytes", classmethod(_lenient_from_bytes)
        ):
            scenario = fuzz.make_scenario(0, "quick")
            rules = fuzz.violated_rules(scenario)
            assert "wire-roundtrip" in rules
            minimal = fuzz.shrink_scenario(scenario, rules)
            sizes = lambda s: sum(  # noqa: E731
                len(s[k]) for k in ("moves", "faults", "flows", "probes")
            )
            assert sizes(minimal) < sizes(scenario)
            auditor = fuzz.run_scenario(minimal)
            assert "wire-roundtrip" in {v.rule for v in auditor.violations}
            path = fuzz.write_artifact(tmp_path, minimal, auditor.violations,
                                       scenario)
            replayed = fuzz.run_scenario(fuzz.load_scenario(path))
            assert "wire-roundtrip" in {v.rule for v in replayed.violations}


class TestChecksumBug:
    def test_auditor_catches_an_unchecked_decoder(self, figure1):
        with mock.patch.object(
            MHRPHeader, "from_bytes", classmethod(_unchecked_from_bytes)
        ):
            auditor = _audited_figure1(figure1)
        assert "wire-checksum" in {v.rule for v in auditor.violations}


class TestSilentDiscardBug:
    def test_auditor_catches_a_trace_only_discard(self, figure1):
        """The seed home agent discarded packets to a disconnected host
        with a bare trace — no dataplane terminal.  Reverting the fix
        must trip packet conservation."""
        from repro.core.home_agent import CONSUMED, HomeAgent

        topo = figure1
        topo.m.attach(topo.net_d)
        topo.sim.run(until=5.0)
        auditor = topo.sim.attach(InvariantAuditor())

        original = HomeAgent._intercept_plain

        def leaky(self, packet):
            from repro.core.home_agent import DISCONNECTED_ADDRESS

            mobile_host = packet.dst
            fa = self.database.foreign_agent_of(mobile_host)
            if fa == DISCONNECTED_ADDRESS:
                # Seed behaviour: trace only, no counted terminal.
                self.node.sim.trace(
                    "ip.drop", self.node.name, reason="mh-disconnected",
                    uid=packet.uid,
                )
                return CONSUMED
            return original(self, packet)

        with mock.patch.object(HomeAgent, "_intercept_plain", leaky):
            topo.m.disconnect()
            topo.sim.run(until=8.0)
            topo.s.ping(topo.m.home_address)
            cutoff = topo.sim.now
            topo.sim.run(until=cutoff + 10.0)
        auditor.finalize(ignore_after=cutoff)
        assert "conservation" in {v.rule for v in auditor.violations}


class TestUnknownDropReasonBug:
    def test_anonymous_drop_taxonomy_is_enforced(self, figure1):
        """Adding a new discard path without naming it in the taxonomy
        must fail the drop-reason rule."""
        auditor = figure1.sim.attach(InvariantAuditor())
        topo = figure1
        topo.m.attach_home(topo.net_b)
        topo.sim.run(until=2.0)
        node = topo.r1
        from repro.ip.packet import IPPacket, RawPayload
        from repro.ip.protocols import UDP

        packet = IPPacket(
            src=topo.net_a_prefix.host(1), dst=topo.m.home_address,
            protocol=UDP, payload=RawPayload(b"x"),
        )
        node.dataplane.drop(packet, "some-new-unnamed-reason")
        assert "drop-reason" in {v.rule for v in auditor.violations}
