"""IPv4 network layer.

Implements, from scratch, everything the MHRP paper assumes of IP:

- addresses and networks with longest-prefix semantics (:mod:`.address`),
- byte-accurate IPv4 packets and options incl. LSRR (:mod:`.packet`,
  :mod:`.options`),
- the internet checksum (:mod:`.checksum`),
- ICMP, including RFC 1256 router discovery and the new MHRP location
  update message type (:mod:`.icmp`),
- ARP with proxy and gratuitous ARP (:mod:`.arp`),
- routing tables with host-specific routes (:mod:`.routing`),
- forwarding nodes: :class:`~repro.ip.node.IPNode`,
  :class:`~repro.ip.router.Router`, :class:`~repro.ip.host.Host`.
"""

from repro.ip.address import IPAddress, IPNetwork
from repro.ip.checksum import internet_checksum
from repro.ip.host import Host
from repro.ip.node import IPNode
from repro.ip.packet import IPPacket, PacketStamp, Payload, RawPayload
from repro.ip.router import Router
from repro.ip.routing import Route, RoutingTable

__all__ = [
    "Host",
    "IPAddress",
    "IPNetwork",
    "IPNode",
    "IPPacket",
    "PacketStamp",
    "Payload",
    "RawPayload",
    "Route",
    "Router",
    "RoutingTable",
    "internet_checksum",
]
