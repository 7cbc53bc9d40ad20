"""Returned ICMP error handling (paper Section 4.5).

When a tunneled packet hits an error, the router that detects it returns
an ICMP error to the packet's current IP *source* — which, inside a
tunnel, is the most recent tunnel head, not the original sender.  MHRP
makes the error "travel back to the sender along the same set of tunnels
that the original packet followed": each tunnel head reverses exactly the
changes it made to the packet quoted inside the error, then resends the
error to the *previous* head (found by popping the last entry of the
MHRP header's previous-source list).  The head that originally built the
header reverses the encapsulation itself, so the original sender finally
receives an error quoting its own unmodified packet.

Each head along the way may also process the error locally — a
"destination unreachable" usually means the path to the *cached* foreign
agent broke, so the head deletes its cache entry (the next packet then
takes a different path).

If the error quotes too little of the packet (less than the full MHRP
header plus 8 bytes), "little can be done ... beyond deleting its cache
entry" — the handler does exactly that.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cache_agent import CacheAgent
from repro.core.encapsulation import MHRPPayload
from repro.ip.address import IPAddress
from repro.ip.icmp import ICMPError, TYPE_DEST_UNREACHABLE
from repro.ip.node import IPNode
from repro.ip.packet import IPPacket
from repro.ip.protocols import MHRP as PROTO_MHRP


class TunnelErrorHandler:
    """Per-node reverse-tunneling of returned ICMP errors.

    One instance per node (see :meth:`attach`); it inspects every inbound
    ICMP error whose quoted packet is MHRP-encapsulated.
    """

    _ATTR = "_mhrp_tunnel_error_handler"

    def __init__(
        self,
        node: IPNode,
        cache_agent: Optional[CacheAgent] = None,
        delete_cache_on_unreachable: bool = True,
    ) -> None:
        self.node = node
        self.cache_agent = cache_agent
        self.delete_cache_on_unreachable = delete_cache_on_unreachable
        self.errors_reversed = 0
        self.errors_unparseable = 0
        node.on_icmp_error(self._on_error)

    @classmethod
    def attach(
        cls, node: IPNode, cache_agent: Optional[CacheAgent] = None
    ) -> "TunnelErrorHandler":
        """The node's handler, created on first use (idempotent)."""
        handler = getattr(node, cls._ATTR, None)
        if handler is None:
            handler = cls(node, cache_agent=cache_agent)
            setattr(node, cls._ATTR, handler)
        elif cache_agent is not None and handler.cache_agent is None:
            handler.cache_agent = cache_agent
        return handler

    # ------------------------------------------------------------------
    def _on_error(self, packet: IPPacket, error: ICMPError) -> None:
        quoted = error.quoted
        if quoted is None or quoted.protocol != PROTO_MHRP:
            return
        payload = quoted.payload
        if not isinstance(payload, MHRPPayload):
            return
        header = payload.header
        mobile_host = header.mobile_host
        if (
            self.delete_cache_on_unreachable
            and error.icmp_type == TYPE_DEST_UNREACHABLE
            and self.cache_agent is not None
        ):
            # Section 4.5: the unreachable node is likely a router on the
            # path to the *cached* location, not the mobile host itself.
            self.cache_agent.cache.delete(mobile_host)
        if not error.quote_covers_mhrp(header.byte_length):
            # Too little of the packet came back to reverse anything.
            self.errors_unparseable += 1
            self.node.sim.trace(
                "mhrp.tunnel",
                self.node.name,
                event="error-unparseable",
                mobile_host=str(mobile_host),
            )
            return
        if not header.previous_sources:
            # We built this header as the original sender: reverse our
            # own encapsulation and let local listeners (transport) see
            # an error about the original packet.
            self._reverse_encapsulation(quoted, original_sender=quoted.src)
            self.errors_reversed += 1
            self._deliver_locally(error)
            return
        popped = header.previous_sources.pop()
        if not header.previous_sources:
            # ``popped`` is the original sender; we were the agent that
            # built the header.  Full reversal, then send the error on to
            # the sender.
            self._reverse_encapsulation(quoted, original_sender=popped)
        else:
            # We were a re-tunneling hop: restore the source we replaced
            # and the destination the packet had when it reached us.
            quoted.src = popped
            quoted.dst = self._own_address(packet)
        self.errors_reversed += 1
        self.node.sim.trace(
            "mhrp.tunnel",
            self.node.name,
            event="error-reversed",
            to=str(popped),
            mobile_host=str(mobile_host),
        )
        resend = ICMPError(
            icmp_type=error.icmp_type,
            code=error.code,
            quoted=quoted,
            quote_full=error.quote_full,
            max_quote=error.max_quote,
        )
        self.node.send_icmp(popped, resend)

    # ------------------------------------------------------------------
    @staticmethod
    def _reverse_encapsulation(quoted: IPPacket, original_sender: IPAddress) -> None:
        payload = quoted.payload
        assert isinstance(payload, MHRPPayload)
        header = payload.header
        quoted.src = original_sender
        quoted.dst = header.mobile_host
        quoted.protocol = header.orig_protocol
        quoted.payload = payload.inner

    def _own_address(self, error_packet: IPPacket) -> IPAddress:
        """The address this node used as tunnel head (where the error was
        addressed)."""
        if self.node.has_address(error_packet.dst):
            return error_packet.dst
        return self.node.primary_address

    def _deliver_locally(self, error: ICMPError) -> None:
        """Re-run local error listeners now that the quote is reversed."""
        for listener in list(self.node._error_listeners):
            if listener is not self._on_error:
                listener_packet = IPPacket(
                    src=self.node.primary_address,
                    dst=self.node.primary_address,
                    protocol=1,
                    payload=error,
                    uid=self.node.next_uid(),
                )
                listener(listener_packet, error)
