"""Structured event tracing.

The tracer records ``(time, category, node, detail)`` tuples.  Tests and
benchmarks use it to assert on protocol behaviour (e.g. "exactly one
location update was sent to S") without reaching into component internals.
Categories are free-form strings; the conventional ones are listed in
:data:`CATEGORIES`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Iterator, MutableSequence, NamedTuple, Optional

Listener = Callable[["TraceEntry"], None]

#: Conventional trace categories emitted by the library.
CATEGORIES = (
    "link.tx",        # frame transmitted on a link
    "link.rx",        # frame received by an interface
    "link.drop",      # frame lost (range, loss model, no receiver)
    "ip.send",        # packet originated by a node
    "ip.forward",     # packet forwarded by a router
    "ip.deliver",     # packet delivered to a local protocol handler
    "ip.drop",        # packet dropped (TTL, no route, ...)
    "icmp.error",     # ICMP error generated
    "arp",            # ARP traffic
    "mhrp.tunnel",    # packet entered/changed an MHRP tunnel
    "mhrp.update",    # location update sent or received
    "mhrp.register",  # mobile host registration traffic
    "mhrp.loop",      # routing loop detected / dissolved
    "baseline",       # baseline-protocol events
)


class TraceEntry(NamedTuple):
    """One traced occurrence.

    A tuple, because one is built per record and a tuple builds in a
    third of the time a frozen dataclass does; assigning to a field
    raises all the same.  The default ``detail`` is one shared empty
    dict, which is safe only because no entry's detail is ever mutated.
    """

    time: float
    category: str
    node: str
    detail: dict[str, Any] = {}

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.6f}] {self.category:<14} {self.node:<12} {parts}"

    # Entries are immutable once recorded (nothing may mutate ``detail``
    # after the fact), so copies and session snapshots share rather than
    # duplicate them (``SHARED_TYPES`` in :mod:`repro.scenario.session`)
    # — copying the full history would dominate fork cost.
    def __deepcopy__(self, memo: dict) -> "TraceEntry":
        return self


def jsonable(value: Any) -> Any:
    """The JSON form of a trace detail value: plain values as they are,
    lists and tuples as lists, dicts with ``str`` keys, and anything else
    (a :class:`~repro.ip.packet.PacketStamp`, say) as its ``str()``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


class Tracer:
    """Collects :class:`TraceEntry` records during a simulation run.

    Tracing is enabled by default but can be restricted to a set of
    categories to keep memory bounded in large runs::

        sim.tracer.restrict({"mhrp.update", "mhrp.loop"})

    For sweeps whose event volume is unbounded (millions of packets),
    ``max_entries`` turns storage into a ring buffer holding only the
    newest entries; :attr:`dropped` counts what fell off the front.
    Listeners still see every entry, so streaming consumers (wire-size
    trackers, journey builders) are unaffected by the bound.

    A listener subscribed with ``categories`` is called only for those
    categories.  The per-category call lists are rebuilt on every
    (un)subscribe, so :meth:`record` pays one dict lookup and calls
    nobody who would ignore the entry.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.entries: MutableSequence[TraceEntry] = []
        self.enabled = True
        self.dropped = 0
        self._max_entries: Optional[int] = None
        self._allowed: Optional[set[str]] = None
        #: ``(listener, categories or None)`` in subscription order.
        self._subscriptions: list[tuple[Listener, Optional[frozenset[str]]]] = []
        #: Listeners per category named by some subscription; every
        #: other category goes to ``_wildcard`` (the unscoped listeners).
        self._routes: dict[str, tuple[Listener, ...]] = {}
        self._wildcard: tuple[Listener, ...] = ()
        if max_entries is not None:
            self.limit(max_entries)

    @property
    def max_entries(self) -> Optional[int]:
        """The ring-buffer bound (``None`` = unbounded list storage)."""
        return self._max_entries

    def limit(self, max_entries: Optional[int]) -> None:
        """Switch to ring-buffer mode bounded at ``max_entries`` (or back
        to unbounded with ``None``), keeping the newest entries."""
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_entries == self._max_entries:
            return
        if max_entries is None:
            self.entries = list(self.entries)
        else:
            self.dropped += max(len(self.entries) - max_entries, 0)
            self.entries = deque(self.entries, maxlen=max_entries)
        self._max_entries = max_entries

    def restrict(self, categories: Optional[set[str]]) -> None:
        """Record only the given categories (``None`` = record everything)."""
        self._allowed = set(categories) if categories is not None else None

    def subscribe(
        self, listener: Listener, categories: Optional[Iterable[str]] = None
    ) -> None:
        """Invoke ``listener`` for every recorded entry (after filtering),
        or only for entries in ``categories`` when given.  Within one
        category, listeners are called in subscription order."""
        scope = frozenset(categories) if categories is not None else None
        self._subscriptions.append((listener, scope))
        self._reroute()

    def unsubscribe(self, listener: Listener) -> bool:
        """Remove a listener previously passed to :meth:`subscribe`.

        Returns ``True`` if it was found.  Matching is by equality, which
        for bound methods means "same method of the same object" — so an
        instrument can unsubscribe the bound listener it subscribed with.
        """
        for i, (subscribed, _) in enumerate(self._subscriptions):
            if subscribed == listener:
                del self._subscriptions[i]
                self._reroute()
                return True
        return False

    def listeners(self) -> list[Listener]:
        """Every subscribed listener, in subscription order."""
        return [listener for listener, _ in self._subscriptions]

    def _reroute(self) -> None:
        subscriptions = self._subscriptions
        named = {c for _, scope in subscriptions if scope is not None for c in scope}
        self._wildcard = tuple(
            listener for listener, scope in subscriptions if scope is None
        )
        self._routes = {
            category: tuple(
                listener
                for listener, scope in subscriptions
                if scope is None or category in scope
            )
            for category in named
        }

    def active(self, category: str) -> bool:
        """Whether a :meth:`record` call for ``category`` would store an
        entry right now.

        Hot-path callers guard with this *before* building the ``detail``
        kwargs (which usually means stamping a packet or frame), so a
        disabled or restricted tracer costs nothing per packet::

            if sim.trace_active("ip.forward"):
                sim.trace("ip.forward", name, packet=packet.stamp(), ...)

        The condition mirrors :meth:`record` exactly, including listener
        visibility (listeners only ever see entries that pass the
        enabled/category filter).
        """
        if not self.enabled:
            return False
        allowed = self._allowed
        return allowed is None or category in allowed

    def record(
        self,
        time: float,
        category: str,
        node: str,
        detail: Optional[dict[str, Any]] = None,
        /,
        **fields: Any,
    ) -> None:
        """Record one entry if tracing is enabled and the category allowed.

        The detail is either one dict passed positionally, stored as is
        (``Simulator.trace`` packs its kwargs once and hands them over
        this way), or keyword ``fields``.
        """
        if not self.enabled:
            return
        if self._allowed is not None and category not in self._allowed:
            return
        if detail is None:
            detail = fields
        entry = TraceEntry(time, category, node, detail)  # positional: ~40 % cheaper
        if self._max_entries is not None and len(self.entries) == self._max_entries:
            self.dropped += 1
        self.entries.append(entry)
        for listener in self._routes.get(category, self._wildcard):
            listener(entry)

    def _matching(
        self,
        category: Optional[str],
        node: Optional[str],
        where: Optional[Callable[[dict[str, Any]], bool]],
    ) -> Iterator[TraceEntry]:
        for e in self.entries:
            if category is not None and e.category != category:
                continue
            if node is not None and e.node != node:
                continue
            if where is not None and not where(e.detail):
                continue
            yield e

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        where: Optional[Callable[[dict[str, Any]], bool]] = None,
    ) -> list[TraceEntry]:
        """Return entries matching the given category and/or node.

        ``where`` optionally filters on the entry's detail dict, e.g.
        ``tracer.select("mhrp.tunnel", where=lambda d: d.get("uid") == 7)``.
        """
        return list(self._matching(category, node, where))

    def count(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        where: Optional[Callable[[dict[str, Any]], bool]] = None,
    ) -> int:
        """Number of entries matching the filter (no list materialized)."""
        return sum(1 for _ in self._matching(category, node, where))

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def clear(self) -> None:
        self.entries.clear()
        self.dropped = 0

    # ------------------------------------------------------------------
    # Snapshot contract
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able configuration + counters (entries excluded: they are
        carried by the session snapshot's pickle, and diff tests compare
        them separately as serialized traces)."""
        return {
            "enabled": self.enabled,
            "dropped": self.dropped,
            "max_entries": self._max_entries,
            "allowed": sorted(self._allowed) if self._allowed is not None else None,
            "n_entries": len(self.entries),
            "n_listeners": len(self._subscriptions),
        }

    def load_state(self, state: dict) -> None:
        """Restore configuration and counters from :meth:`state_dict`."""
        self.enabled = bool(state["enabled"])
        self.dropped = int(state["dropped"])
        self.limit(state["max_entries"])
        allowed = state["allowed"]
        self.restrict(set(allowed) if allowed is not None else None)
