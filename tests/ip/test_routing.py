"""Unit tests for the routing table."""

import pytest

from repro.errors import RoutingError
from repro.ip.address import IPAddress, IPNetwork
from repro.ip.routing import Route, RoutingTable


@pytest.fixture
def table():
    t = RoutingTable()
    t.add_connected(IPNetwork("10.1.0.0/24"), "eth0")
    t.add_next_hop(IPNetwork("10.2.0.0/24"), IPAddress("10.1.0.254"), "eth0")
    t.set_default(IPAddress("10.1.0.254"), "eth0")
    return t


class TestLookup:
    def test_connected_route_wins_for_local(self, table):
        route = table.lookup(IPAddress("10.1.0.5"))
        assert route.is_connected
        assert route.interface_name == "eth0"

    def test_remote_prefix(self, table):
        route = table.lookup(IPAddress("10.2.0.9"))
        assert route.next_hop == "10.1.0.254"

    def test_default_route_catches_rest(self, table):
        route = table.lookup(IPAddress("99.99.99.99"))
        assert route.network.prefix_len == 0

    def test_no_route_without_default(self):
        t = RoutingTable()
        t.add_connected(IPNetwork("10.1.0.0/24"), "eth0")
        assert t.lookup(IPAddress("8.8.8.8")) is None

    def test_require_raises(self):
        with pytest.raises(RoutingError):
            RoutingTable().require(IPAddress("1.2.3.4"))

    def test_host_route_beats_network_route(self, table):
        table.add_next_hop(IPNetwork("10.2.0.9/32"), IPAddress("10.1.0.200"), "eth0")
        assert table.lookup(IPAddress("10.2.0.9")).next_hop == "10.1.0.200"
        assert table.lookup(IPAddress("10.2.0.10")).next_hop == "10.1.0.254"

    def test_longer_prefix_wins(self):
        t = RoutingTable()
        t.add_next_hop(IPNetwork("10.0.0.0/8"), IPAddress("1.1.1.1"), "e")
        t.add_next_hop(IPNetwork("10.5.0.0/16"), IPAddress("2.2.2.2"), "e")
        assert t.lookup(IPAddress("10.5.1.1")).next_hop == "2.2.2.2"
        assert t.lookup(IPAddress("10.6.1.1")).next_hop == "1.1.1.1"


class TestMutation:
    def test_better_metric_replaces(self):
        t = RoutingTable()
        net = IPNetwork("10.0.0.0/8")
        t.add(Route(network=net, interface_name="e", next_hop=IPAddress("1.1.1.1"), metric=5))
        t.add(Route(network=net, interface_name="e", next_hop=IPAddress("2.2.2.2"), metric=1))
        assert t.lookup(IPAddress("10.0.0.1")).next_hop == "2.2.2.2"

    def test_worse_metric_ignored(self):
        t = RoutingTable()
        net = IPNetwork("10.0.0.0/8")
        t.add(Route(network=net, interface_name="e", next_hop=IPAddress("1.1.1.1"), metric=1))
        t.add(Route(network=net, interface_name="e", next_hop=IPAddress("2.2.2.2"), metric=5))
        assert t.lookup(IPAddress("10.0.0.1")).next_hop == "1.1.1.1"

    def test_remove(self, table):
        assert table.remove(IPNetwork("10.2.0.0/24"))
        assert table.lookup(IPAddress("10.2.0.9")).network.prefix_len == 0
        assert not table.remove(IPNetwork("10.2.0.0/24"))

    def test_remove_host_route(self, table):
        host = IPAddress("10.2.0.9")
        table.add_next_hop(IPNetwork("10.2.0.9/32"), IPAddress("10.1.0.200"), "eth0")
        assert table.remove(IPNetwork("10.2.0.9/32"))
        assert table.lookup(host).next_hop == "10.1.0.254"

    def test_clear_and_len(self, table):
        assert len(table) == 3
        table.clear()
        assert len(table) == 0


class TestIntrospection:
    def test_routes_sorted_longest_first(self, table):
        table.add_next_hop(IPNetwork("1.1.1.1/32"), IPAddress("10.1.0.254"), "eth0")
        prefixes = [r.network.prefix_len for r in table.routes()]
        assert prefixes == sorted(prefixes, reverse=True)

    def test_str_contains_routes(self, table):
        text = str(table)
        assert "10.1.0.0/24" in text
        assert "connected" in text


class TestLookupCache:
    """The memoized longest-prefix-match fast path must be invisible:
    every mutation invalidates it."""

    def test_repeated_lookup_is_cached(self, table):
        dst = IPAddress("10.2.0.9")
        first = table.lookup(dst)
        assert table.lookup(dst) is first
        assert dst.value in table._lookup_cache

    def test_add_invalidates(self, table):
        dst = IPAddress("10.2.0.9")
        assert table.lookup(dst).next_hop == "10.1.0.254"
        table.add_next_hop(IPNetwork("10.2.0.9/32"), IPAddress("10.1.0.7"), "eth0")
        assert table.lookup(dst).next_hop == "10.1.0.7"

    def test_remove_invalidates(self, table):
        dst = IPAddress("10.2.0.9")
        table.add_next_hop(IPNetwork("10.2.0.9/32"), IPAddress("10.1.0.7"), "eth0")
        assert table.lookup(dst).network.prefix_len == 32
        table.remove(IPNetwork("10.2.0.9/32"))
        assert table.lookup(dst).next_hop == "10.1.0.254"

    def test_negative_result_cached_and_invalidated(self):
        t = RoutingTable()
        dst = IPAddress("192.0.2.1")
        assert t.lookup(dst) is None
        assert t.lookup(dst) is None  # served from the cache
        t.add_connected(IPNetwork("192.0.2.0/24"), "eth0")
        assert t.lookup(dst) is not None

    def test_cache_bounded(self, table):
        from repro.ip.routing import LOOKUP_CACHE_MAX

        for value in range(LOOKUP_CACHE_MAX + 10):
            table.lookup(IPAddress((172 << 24) | value))
        assert len(table._lookup_cache) <= LOOKUP_CACHE_MAX


class TestMemoChurnEquivalence:
    """The memoized table must be *observationally identical* to an
    unmemoized one under arbitrary route churn: every lookup is
    cross-checked against a fresh table rebuilt from the same routes,
    including memoized misses and the wholesale-reset-at-bound path."""

    NETS = [
        IPNetwork("10.0.0.0/8"),
        IPNetwork("10.5.0.0/16"),
        IPNetwork("10.5.3.0/24"),
        IPNetwork("172.16.0.0/12"),
        IPNetwork("0.0.0.0/0"),
    ]

    @staticmethod
    def fresh_copy(table):
        """An un-memoized oracle holding exactly the same routes."""
        oracle = RoutingTable()
        for route in table.routes():
            oracle.add(
                Route(
                    network=route.network,
                    interface_name=route.interface_name,
                    next_hop=route.next_hop,
                    metric=route.metric,
                )
            )
        oracle._lookup_cache.clear()
        return oracle

    @staticmethod
    def probe_addresses(rng):
        pools = [
            (10 << 24) | rng.randrange(1 << 24),          # inside 10/8
            (10 << 24) | (5 << 16) | rng.randrange(1 << 16),
            (10 << 24) | (5 << 16) | (3 << 8) | rng.randrange(256),
            (172 << 24) | (16 << 16) | rng.randrange(1 << 16),
            rng.randrange(1, 2**32),                      # anywhere
        ]
        return IPAddress(rng.choice(pools))

    def check_equivalent(self, table, dst):
        got = table.lookup(dst)
        want = self.fresh_copy(table).lookup(dst)
        if want is None:
            assert got is None, f"{dst}: memoized {got}, oracle None"
        else:
            assert got is not None, f"{dst}: memoized None, oracle {want}"
            assert got.network == want.network
            assert got.next_hop == want.next_hop
            assert got.interface_name == want.interface_name

    def test_random_churn_matches_unmemoized_oracle(self):
        import random

        rng = random.Random("routing-memo-churn")
        table = RoutingTable()
        hosts = []
        for step in range(600):
            op = rng.random()
            if op < 0.25:
                net = rng.choice(self.NETS)
                table.add(
                    Route(
                        network=net,
                        interface_name=rng.choice(["e0", "e1"]),
                        next_hop=IPAddress(rng.randrange(1, 2**32)),
                        metric=rng.randrange(1, 4),
                    )
                )
            elif op < 0.35:
                table.remove(rng.choice(self.NETS))
            elif op < 0.45:
                host = IPNetwork((10 << 24) | (5 << 16) | rng.randrange(256), 32)
                table.add_next_hop(host, IPAddress(rng.randrange(1, 2**32)), "e0")
                hosts.append(host)
            elif op < 0.50 and hosts:
                # Withdraw a host route (possibly one already withdrawn).
                table.remove(hosts.pop(rng.randrange(len(hosts))))
            # Several lookups per step so repeats hit the memo (both
            # positive entries and cached misses).
            for _ in range(3):
                self.check_equivalent(table, self.probe_addresses(rng))

    def test_equivalence_across_wholesale_cache_reset(self):
        """Fill the memo to its bound mid-churn so the clear-everything
        path runs, then keep cross-checking."""
        import random

        from repro.ip.routing import LOOKUP_CACHE_MAX

        rng = random.Random("routing-memo-reset")
        table = RoutingTable()
        table.add_next_hop(IPNetwork("10.0.0.0/8"), IPAddress("1.1.1.1"), "e0")
        for value in range(LOOKUP_CACHE_MAX - 1):
            table.lookup(IPAddress((10 << 24) | value))
        assert len(table._lookup_cache) == LOOKUP_CACHE_MAX - 1
        # These lookups cross the bound and trigger the wholesale reset.
        for _ in range(40):
            self.check_equivalent(table, self.probe_addresses(rng))
        assert len(table._lookup_cache) < LOOKUP_CACHE_MAX - 1
