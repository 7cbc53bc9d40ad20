"""Address Resolution Protocol (RFC 826), plus the two extensions the
paper's home-agent interception relies on:

- **gratuitous ARP**: a broadcast reply whose sender and target IP are the
  same; every host on the segment updates its cache.  The home agent
  broadcasts one (retransmitted a few times for reliability, per Section 2)
  when a mobile host leaves home, binding the mobile host's IP to the home
  agent's own hardware address; the mobile host broadcasts its own when it
  returns.
- **proxy ARP** (RFC 925): the home agent answers ARP requests for mobile
  hosts that are currently away.

One :class:`ARPService` exists per (node, interface) pair.  Packets
awaiting resolution are queued per target address and flushed or dropped
when resolution succeeds or times out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.ip.address import IPAddress
from repro.link.frame import ETHERTYPE_ARP, Frame, HWAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ip.packet import IPPacket
    from repro.link.interface import NetworkInterface

ARP_REQUEST = 1
ARP_REPLY = 2

#: How long a learned mapping stays valid.
ARP_CACHE_TTL = 1200.0
#: Retransmission interval and attempt limit for unresolved requests.
ARP_RETRY_INTERVAL = 1.0
ARP_MAX_RETRIES = 3
#: Gratuitous announcements are repeated for reliability (paper, Section 2).
GRATUITOUS_REPEATS = 3


@dataclass
class ARPMessage:
    """An ARP request or reply."""

    op: int
    sender_hw: HWAddress
    sender_ip: IPAddress
    target_ip: IPAddress
    target_hw: Optional[HWAddress] = None

    #: ARP-over-Ethernet payload size (RFC 826): fixed 28 bytes.
    byte_length: int = field(default=28, repr=False)

    @property
    def is_gratuitous(self) -> bool:
        return self.sender_ip == self.target_ip

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += (1).to_bytes(2, "big")  # htype: Ethernet
        out += (0x0800).to_bytes(2, "big")  # ptype: IPv4
        out += bytes([6, 4])  # hlen, plen
        out += self.op.to_bytes(2, "big")
        out += self.sender_hw.value.to_bytes(6, "big")
        out += self.sender_ip.to_bytes()
        target_hw = self.target_hw or HWAddress(0)
        out += target_hw.value.to_bytes(6, "big")
        out += self.target_ip.to_bytes()
        return bytes(out)

    def __repr__(self) -> str:
        kind = "REQ" if self.op == ARP_REQUEST else "REPLY"
        extra = " (gratuitous)" if self.is_gratuitous else ""
        return f"<ARP {kind} who-has {self.target_ip} tell {self.sender_ip}{extra}>"


@dataclass
class ARPEntry:
    hw: HWAddress
    learned_at: float


@dataclass
class _Pending:
    packets: List["IPPacket"] = field(default_factory=list)
    retries: int = 0
    timer: object = None  # repro.netsim.simulator.Timer


class ARPService:
    """ARP state machine for one interface.

    ``on_resolved(ip, packets)`` is supplied by the node and is called with
    the queued packets once a mapping is learned, so the node can transmit
    them.  ``on_failed(ip, packets)`` handles resolution failure.
    """

    def __init__(
        self,
        interface: "NetworkInterface",
        on_resolved: Callable[[IPAddress, HWAddress, List["IPPacket"]], None],
        on_failed: Callable[[IPAddress, List["IPPacket"]], None],
    ) -> None:
        self.interface = interface
        self.sim = interface.node.sim
        self.cache: Dict[IPAddress, ARPEntry] = {}
        self.proxy_for: Set[IPAddress] = set()
        self._pending: Dict[IPAddress, _Pending] = {}
        self._on_resolved = on_resolved
        self._on_failed = on_failed

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def lookup(self, ip: IPAddress) -> Optional[HWAddress]:
        """Return a live cached mapping, discarding an expired one."""
        entry = self.cache.get(ip)
        if entry is None:
            return None
        if self.sim.now - entry.learned_at > ARP_CACHE_TTL:
            del self.cache[ip]
            return None
        return entry.hw

    def learn(self, ip: IPAddress, hw: HWAddress) -> None:
        """Install or refresh a mapping, flushing any queued packets."""
        self.cache[ip] = ARPEntry(hw=hw, learned_at=self.sim.now)
        pending = self._pending.pop(ip, None)
        if pending is not None:
            if pending.timer is not None:
                pending.timer.cancel()
            self._on_resolved(ip, hw, pending.packets)

    def forget(self, ip: IPAddress) -> None:
        self.cache.pop(ip, None)

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able cache + proxy state for the snapshot/diff contract.

        In-flight resolutions hold queued packets and timers (callables);
        those ride the session snapshot and appear here only as a count.
        """
        return {
            "cache": {
                str(ip): {"hw": entry.hw.value, "learned_at": entry.learned_at}
                for ip, entry in sorted(self.cache.items(), key=lambda kv: kv[0].value)
            },
            "proxy_for": sorted(str(ip) for ip in self.proxy_for),
            "pending": len(self._pending),
        }

    def load_state(self, state: dict) -> None:
        """Restore the cache and proxy set from :meth:`state_dict`."""
        self.cache = {
            IPAddress(ip): ARPEntry(hw=HWAddress(rec["hw"]), learned_at=rec["learned_at"])
            for ip, rec in state["cache"].items()
        }
        self.proxy_for = {IPAddress(ip) for ip in state["proxy_for"]}

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, ip: IPAddress, packet: "IPPacket") -> Optional[HWAddress]:
        """Resolve ``ip``; queue ``packet`` and send a request on a miss.

        Returns the hardware address on a cache hit, else ``None`` (the
        packet will be sent by the node's callback once resolved).
        """
        hw = self.lookup(ip)
        if hw is not None:
            return hw
        pending = self._pending.get(ip)
        if pending is not None:
            pending.packets.append(packet)
            return None
        pending = _Pending(packets=[packet])
        self._pending[ip] = pending
        self._send_request(ip)
        pending.timer = self.sim.timer(partial(self._retry, ip), label=f"arp-retry-{ip}")
        pending.timer.start(ARP_RETRY_INTERVAL)
        return None

    def _retry(self, ip: IPAddress) -> None:
        pending = self._pending.get(ip)
        if pending is None:
            return
        pending.retries += 1
        if pending.retries >= ARP_MAX_RETRIES:
            del self._pending[ip]
            self.sim.trace(
                "arp", self.interface.node_name, event="resolve-failed", ip=str(ip)
            )
            self._on_failed(ip, pending.packets)
            return
        self._send_request(ip)
        pending.timer.start(ARP_RETRY_INTERVAL)

    def _send_request(self, ip: IPAddress) -> None:
        message = ARPMessage(
            op=ARP_REQUEST,
            sender_hw=self.interface.hw_address,
            sender_ip=self.interface.ip_address,
            target_ip=ip,
        )
        self.sim.trace("arp", self.interface.node_name, event="request", ip=str(ip))
        self.interface.send_to(HWAddress.broadcast(), ETHERTYPE_ARP, message)

    # ------------------------------------------------------------------
    # Announcements (gratuitous / proxy)
    # ------------------------------------------------------------------
    def announce(self, ip: IPAddress, hw: Optional[HWAddress] = None) -> None:
        """Broadcast a gratuitous ARP binding ``ip`` to ``hw`` (default: own).

        Repeated :data:`GRATUITOUS_REPEATS` times a short interval apart,
        as the paper suggests "perhaps retransmitted a few times for
        reliability".
        """
        bind_hw = hw or self.interface.hw_address
        for i in range(GRATUITOUS_REPEATS):
            self.sim.schedule(
                i * 0.1,
                partial(self._send_gratuitous, ip, bind_hw),
                label="arp-gratuitous",
            )

    def _send_gratuitous(self, ip: IPAddress, hw: HWAddress) -> None:
        message = ARPMessage(
            op=ARP_REPLY,
            sender_hw=hw,
            sender_ip=ip,
            target_ip=ip,
            target_hw=HWAddress.broadcast(),
        )
        self.sim.trace(
            "arp", self.interface.node_name, event="gratuitous", ip=str(ip), hw=str(hw)
        )
        self.interface.send_to(HWAddress.broadcast(), ETHERTYPE_ARP, message)

    def add_proxy(self, ip: IPAddress) -> None:
        """Answer ARP requests for ``ip`` with this interface's address."""
        self.proxy_for.add(ip)

    def remove_proxy(self, ip: IPAddress) -> None:
        self.proxy_for.discard(ip)

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def handle(self, frame: Frame) -> None:
        """Process an inbound ARP frame."""
        message: ARPMessage = frame.payload
        # Learn from anything heard on a broadcast (requests and gratuitous
        # replies); unicast replies are learned unconditionally since they
        # were solicited.
        if frame.is_broadcast or message.op == ARP_REPLY:
            self.learn(message.sender_ip, message.sender_hw)
        if message.op != ARP_REQUEST or message.is_gratuitous:
            return
        target = message.target_ip
        if (
            target == self.interface.ip_address
            or target in self.interface.alias_addresses
            or target in self.proxy_for
        ):
            reply = ARPMessage(
                op=ARP_REPLY,
                sender_hw=self.interface.hw_address,
                sender_ip=target,
                target_ip=message.sender_ip,
                target_hw=message.sender_hw,
            )
            self.sim.trace(
                "arp",
                self.interface.node_name,
                event="reply",
                ip=str(target),
                proxy=target in self.proxy_for,
            )
            self.interface.send_to(message.sender_hw, ETHERTYPE_ARP, reply)
