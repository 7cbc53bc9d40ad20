"""Registration control messages (paper Section 3).

The paper specifies *what* must be notified and in which order — new
foreign agent first, then the home agent, then the old foreign agent —
but not a message format; this module supplies a minimal one:

- ``FA_CONNECT``    mobile host → new foreign agent
- ``FA_DISCONNECT`` mobile host → old foreign agent (carries the new
  foreign agent's address so the old one may cache a forwarding pointer,
  Section 2; zero when the host went home, Section 6.3)
- ``HA_REGISTER``   mobile host → home agent (zero foreign agent = home)
- ``ACK``           agent → mobile host

Registrations cross wireless links and possibly half the internetwork,
so they are retransmitted until acknowledged
(:class:`repro.wire.roles.ReliableRegistrar`).

All control traffic rides IP protocol :data:`~repro.ip.protocols.MOBILE_CONTROL`;
a per-node :class:`repro.wire.roles.ControlDispatcher` demultiplexes by
message kind so a single router can host a home agent and a foreign
agent at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import PacketError
from repro.ip.address import IPAddress

# Message kinds.
FA_CONNECT = "fa-connect"
FA_DISCONNECT = "fa-disconnect"
HA_REGISTER = "ha-register"
ACK = "ack"

#: Wire codes for the message kinds (shared by serialization and the
#: sans-io codec in :mod:`repro.wire.codec`).
KIND_CODES = {FA_CONNECT: 1, FA_DISCONNECT: 2, HA_REGISTER: 3, ACK: 4}
_CODE_KINDS = {code: kind for kind, code in KIND_CODES.items()}

#: Exact encoded size of a registration message (see
#: :meth:`RegistrationMessage.to_bytes`).
REG_MESSAGE_LEN = 18

#: Retransmission schedule for reliable registrations.
REG_RETRY_INTERVAL = 1.0
REG_MAX_RETRIES = 5

_seq_counter = itertools.count(1)


@dataclass
class RegistrationMessage:
    """One control message.

    ``hw_value`` lets a foreign agent learn the visiting host's hardware
    address straight from the connect notification (Section 2 offers this
    as the alternative to ARP for the last hop).
    """

    kind: str
    seq: int
    mobile_host: IPAddress
    agent: IPAddress = field(default_factory=IPAddress.zero)
    hw_value: int = 0
    ok: bool = True

    @property
    def byte_length(self) -> int:
        # kind/flags (2) + seq (2) + mobile host (4) + agent (4) + hw (6).
        return 18

    def to_bytes(self) -> bytes:
        out = bytearray()
        out.append(KIND_CODES.get(self.kind, 0))
        out.append(1 if self.ok else 0)
        out += (self.seq & 0xFFFF).to_bytes(2, "big")
        out += self.mobile_host.to_bytes()
        out += self.agent.to_bytes()
        out += (self.hw_value & ((1 << 48) - 1)).to_bytes(6, "big")
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RegistrationMessage":
        """Exact inverse of :meth:`to_bytes`.

        Strict by the same rule the MHRP header follows (PR 4): the
        message is fixed-size and self-describing, so a bad kind code or
        trailing bytes mean corruption or a framing bug — never ignore
        them silently.
        """
        if len(data) < REG_MESSAGE_LEN:
            raise PacketError(
                f"registration message truncated ({len(data)} bytes)"
            )
        if len(data) > REG_MESSAGE_LEN:
            raise PacketError(
                f"registration message has {len(data) - REG_MESSAGE_LEN} "
                f"trailing byte(s)"
            )
        kind = _CODE_KINDS.get(data[0])
        if kind is None:
            raise PacketError(f"unknown registration kind code {data[0]}")
        if data[1] not in (0, 1):
            raise PacketError(f"bad registration ok flag {data[1]}")
        return cls(
            kind=kind,
            ok=bool(data[1]),
            seq=int.from_bytes(data[2:4], "big"),
            mobile_host=IPAddress.from_bytes(data[4:8]),
            agent=IPAddress.from_bytes(data[8:12]),
            hw_value=int.from_bytes(data[12:18], "big"),
        )

    def __repr__(self) -> str:
        return (
            f"<Reg {self.kind} #{self.seq} mh={self.mobile_host} "
            f"agent={self.agent} ok={self.ok}>"
        )


def next_seq() -> int:
    return next(_seq_counter)


class StaleControlFilter:
    """Per-mobile-host registration sequence high-water mark.

    A mobile host allocates ``seq`` monotonically, so of two control
    messages from the same host the larger sequence number is always
    the more recent decision.  Retransmission and agent crashes can
    deliver them out of order: the ``fa-disconnect`` of move *k* kept
    alive by :class:`ReliableRegistrar` while the old agent was down
    can arrive *after* the ``fa-connect`` of move *k+1* — and naively
    processing it de-registers a perfectly fresh visitor (worse, the
    bogus departure stamp then suppresses the Section 5.2 recovery for
    a whole departure-grace window).  Agents consult this filter and
    ignore — but still acknowledge, so the sender stops retrying —
    any message strictly older than the newest already processed.
    """

    def __init__(self) -> None:
        self._high_water: Dict[IPAddress, int] = {}

    def is_stale(self, message: RegistrationMessage) -> bool:
        """True iff ``message`` is older than one already processed for
        the same mobile host; otherwise record it as the newest.

        Equal sequence numbers are *not* stale: they are retransmissions
        of the message we just processed (the handlers are idempotent).
        """
        latest = self._high_water.get(message.mobile_host, 0)
        if message.seq < latest:
            return True
        self._high_water[message.mobile_host] = message.seq
        return False

    def reset(self) -> None:
        """Forget everything (the memory is volatile: reboot hook)."""
        self._high_water.clear()

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able high-water marks for the session snapshot/diff contract."""
        return {
            "high_water": {
                str(host): seq
                for host, seq in sorted(
                    self._high_water.items(), key=lambda kv: kv[0].value
                )
            }
        }

    def load_state(self, state: dict) -> None:
        """Restore the high-water marks from :meth:`state_dict`."""
        self._high_water = {
            IPAddress(host): int(seq) for host, seq in state["high_water"].items()
        }

