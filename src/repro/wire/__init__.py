"""Sans-io MHRP protocol engines (``repro.wire``).

The simulator-bound agents in :mod:`repro.core` and the live asyncio-UDP
backend in :mod:`repro.live` share the protocol logic in this package:

- :mod:`repro.wire.codec` — byte-accurate packet decoding, the inverse of
  ``IPPacket.to_bytes`` (which was always wire-exact but write-only).
- :mod:`repro.wire.logic` — pure decision functions for the home agent,
  foreign agent, and cache agent.
- :mod:`repro.wire.engine` — sans-io node engines: each consumes
  ``(now, datagram bytes | timer fire | command)`` and emits
  ``(outbound datagrams, timer requests, protocol events)``.
- :mod:`repro.wire.topo` — the engine binder over :mod:`repro.plan`.
- :mod:`repro.wire.driver` — the deterministic in-process driver.
- :mod:`repro.wire.conformance` — cross-backend conformance projections.
"""

# Only the codec is imported eagerly: the engine/driver stack imports
# repro.core (which itself imports repro.wire.logic), so pulling it in
# here would close an import cycle.  Engine users import the submodules
# directly (repro.wire.engine, repro.wire.driver, repro.wire.conformance).
from repro.wire.codec import decode_packet, encode_packet

__all__ = ["decode_packet", "encode_packet"]
