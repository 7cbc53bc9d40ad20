"""Routing tables with longest-prefix match.

The table supports exactly what the reproduced protocols need:

- connected routes (deliver on-link via ARP),
- next-hop routes to remote prefixes (a /32 is a host route),
- a default route.

Lookup is longest-prefix-first, so a host route always beats a network
route which always beats the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import RoutingError
from repro.ip.address import IPAddress, IPNetwork


@dataclass(frozen=True)
class Route:
    """One routing table entry.

    ``next_hop`` of ``None`` marks a connected route: the destination is
    on-link through ``interface_name`` and should be ARP-resolved
    directly.
    """

    network: IPNetwork
    interface_name: str
    next_hop: Optional[IPAddress] = None
    metric: int = 1

    @property
    def is_connected(self) -> bool:
        return self.next_hop is None

    def __str__(self) -> str:
        via = "connected" if self.is_connected else f"via {self.next_hop}"
        return f"{self.network} dev {self.interface_name} {via} metric {self.metric}"

    # Frozen value type: shared, not duplicated, by session snapshots.
    def __deepcopy__(self, memo: dict) -> "Route":
        return self


#: Bound on memoized lookup results; past it the memo is reset wholesale
#: (workloads touch far fewer distinct destinations than this).
LOOKUP_CACHE_MAX = 4096

#: Sentinel distinguishing "not memoized" from a memoized miss (None).
_MISS = object()


class RoutingTable:
    """A longest-prefix-match IPv4 routing table.

    Lookups are memoized per destination address: the forwarding engine
    resolves the same destinations for every packet of a flow, so after
    the first longest-prefix scan each hop costs one dict probe.  Any
    mutation invalidates the memo (routes move under mobile hosts
    constantly — correctness beats retention).
    """

    def __init__(self) -> None:
        # prefix_len -> {network -> route}; scanned from /32 down so the
        # longest prefix wins.  Dict-of-dicts keeps withdrawal O(1).
        self._by_prefix: Dict[int, Dict[IPNetwork, Route]] = {}
        #: Prefix lengths present, presorted longest-first for lookup.
        self._prefix_order: List[int] = []
        #: destination value -> Route | None (memoized misses included).
        self._lookup_cache: Dict[int, object] = {}

    def _invalidate(self) -> None:
        self._prefix_order = sorted(self._by_prefix, reverse=True)
        self._lookup_cache.clear()

    def __deepcopy__(self, memo: dict) -> "RoutingTable":
        # Routes and the networks/addresses keying them are immutable
        # value types (identity-deepcopied), so a table copy is two
        # levels of fresh dicts over shared values.  The lookup memo is
        # *derived* data — rebuilt on demand, deterministically — so a
        # fork starts with it empty instead of paying to duplicate up to
        # LOOKUP_CACHE_MAX entries per table.
        clone = RoutingTable.__new__(RoutingTable)
        memo[id(self)] = clone
        clone._by_prefix = {
            plen: dict(bucket) for plen, bucket in self._by_prefix.items()
        }
        clone._prefix_order = list(self._prefix_order)
        clone._lookup_cache = {}
        return clone

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, route: Route) -> None:
        """Install ``route``, replacing any same-prefix route with a higher
        (worse) metric; an existing better route is kept."""
        bucket = self._by_prefix.setdefault(route.network.prefix_len, {})
        existing = bucket.get(route.network)
        if existing is not None and existing.metric < route.metric:
            return
        bucket[route.network] = route
        self._invalidate()

    def add_connected(self, network: IPNetwork, interface_name: str) -> None:
        self.add(Route(network=network, interface_name=interface_name))

    def add_next_hop(
        self,
        network: IPNetwork,
        next_hop: IPAddress,
        interface_name: str,
        metric: int = 1,
    ) -> None:
        self.add(
            Route(
                network=network,
                interface_name=interface_name,
                next_hop=next_hop,
                metric=metric,
            )
        )

    def set_default(self, next_hop: IPAddress, interface_name: str) -> None:
        self.add(
            Route(
                network=IPNetwork(0, 0),
                interface_name=interface_name,
                next_hop=next_hop,
            )
        )

    def remove(self, network: IPNetwork) -> bool:
        """Withdraw the route for exactly ``network``; returns whether one existed."""
        bucket = self._by_prefix.get(network.prefix_len)
        if bucket is None:
            return False
        removed = bucket.pop(network, None) is not None
        if not bucket:
            del self._by_prefix[network.prefix_len]
        if removed:
            self._invalidate()
        return removed

    def clear(self) -> None:
        self._by_prefix.clear()
        self._invalidate()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, destination: IPAddress) -> Optional[Route]:
        """Longest-prefix-match lookup; ``None`` if no route covers it."""
        key = destination.value
        cache = self._lookup_cache
        hit = cache.get(key, _MISS)
        if hit is not _MISS:
            return hit  # type: ignore[return-value]
        result: Optional[Route] = None
        for prefix_len in self._prefix_order:
            bucket = self._by_prefix[prefix_len]
            masked = key & IPNetwork._mask_for(prefix_len)
            route = bucket.get(IPNetwork(masked, prefix_len))
            if route is not None:
                result = route
                break
        if len(cache) >= LOOKUP_CACHE_MAX:
            cache.clear()
        cache[key] = result
        return result

    def require(self, destination: IPAddress) -> Route:
        """Like :meth:`lookup` but raises :class:`RoutingError` on a miss."""
        route = self.lookup(destination)
        if route is None:
            raise RoutingError(f"no route to {destination}")
        return route

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def routes(self) -> List[Route]:
        """All installed routes, longest prefix first."""
        out: List[Route] = []
        for prefix_len in sorted(self._by_prefix, reverse=True):
            out.extend(self._by_prefix[prefix_len].values())
        return out

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able table contents for the session snapshot/diff contract."""
        return {
            "routes": [
                {
                    "network": str(r.network),
                    "interface": r.interface_name,
                    "next_hop": str(r.next_hop) if r.next_hop is not None else None,
                    "metric": r.metric,
                }
                for r in self.routes()
            ]
        }

    def load_state(self, state: dict) -> None:
        """Replace the table contents with those from :meth:`state_dict`."""
        self.clear()
        for entry in state["routes"]:
            next_hop = entry["next_hop"]
            self.add(
                Route(
                    network=IPNetwork(entry["network"]),
                    interface_name=entry["interface"],
                    next_hop=IPAddress(next_hop) if next_hop is not None else None,
                    metric=entry["metric"],
                )
            )

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_prefix.values())

    def __str__(self) -> str:
        return "\n".join(str(route) for route in self.routes()) or "<empty table>"
