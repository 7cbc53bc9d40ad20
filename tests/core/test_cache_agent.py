"""Unit tests for the location cache, rate limiter, and cache agent."""

import pytest

from repro.core.cache_agent import (
    CacheAgent,
    LocationCache,
    UpdateRateLimiter,
    send_location_update,
)
from repro.ip.address import IPAddress

MH = IPAddress("10.2.0.10")
FA = IPAddress("10.4.0.254")
FA2 = IPAddress("10.5.0.254")


class TestLocationCache:
    def test_put_get(self):
        cache = LocationCache()
        cache.put(MH, FA)
        assert cache.get(MH) == FA
        assert cache.hits == 1

    def test_miss_counts(self):
        cache = LocationCache()
        assert cache.get(MH) is None
        assert cache.misses == 1

    def test_update_replaces(self):
        cache = LocationCache()
        cache.put(MH, FA)
        cache.put(MH, FA2)
        assert cache.get(MH) == FA2
        assert len(cache) == 1

    def test_lru_eviction(self):
        cache = LocationCache(capacity=2)
        a, b, c = IPAddress("1.0.0.1"), IPAddress("1.0.0.2"), IPAddress("1.0.0.3")
        cache.put(a, FA)
        cache.put(b, FA)
        cache.get(a)        # a is now most recently used
        cache.put(c, FA)    # evicts b
        assert a in cache
        assert b not in cache
        assert c in cache
        assert cache.evictions == 1

    def test_delete(self):
        cache = LocationCache()
        cache.put(MH, FA)
        assert cache.delete(MH)
        assert not cache.delete(MH)
        assert MH not in cache

    def test_peek_has_no_side_effects(self):
        cache = LocationCache()
        cache.put(MH, FA)
        assert cache.peek(MH) == FA
        assert cache.hits == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LocationCache(capacity=0)


class TestUpdateRateLimiter:
    def test_first_update_allowed(self):
        limiter = UpdateRateLimiter(min_interval=1.0)
        assert limiter.allow(FA, now=0.0)

    def test_burst_suppressed(self):
        limiter = UpdateRateLimiter(min_interval=1.0)
        assert limiter.allow(FA, now=0.0)
        assert not limiter.allow(FA, now=0.5)
        assert limiter.suppressed == 1

    def test_allowed_after_interval(self):
        limiter = UpdateRateLimiter(min_interval=1.0)
        assert limiter.allow(FA, now=0.0)
        assert limiter.allow(FA, now=1.5)

    def test_destinations_independent(self):
        limiter = UpdateRateLimiter(min_interval=1.0)
        assert limiter.allow(FA, now=0.0)
        assert limiter.allow(FA2, now=0.0)

    def test_lru_tracking_capacity(self):
        limiter = UpdateRateLimiter(min_interval=100.0, capacity=1)
        assert limiter.allow(FA, now=0.0)
        assert limiter.allow(FA2, now=0.0)   # evicts FA's record
        assert limiter.allow(FA, now=0.1)    # forgotten, so allowed again


class TestCacheAgentTunneling:
    def test_sender_cache_hit_builds_8_byte_header(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        agent = CacheAgent(a)
        mh, fa = IPAddress("9.0.0.1"), net.host(2)
        agent.learn(mh, fa)
        from repro.ip.packet import IPPacket, RawPayload
        from repro.ip.protocols import MHRP, UDP

        seen = []
        b.register_protocol(MHRP, lambda p, i: seen.append(p))
        a.send(IPPacket(src=net.host(1), dst=mh, protocol=UDP, payload=RawPayload(b"x")))
        sim.run_until_idle()
        assert len(seen) == 1
        assert seen[0].payload.header.byte_length == 8
        assert seen[0].src == net.host(1)  # untouched

    def test_transit_cache_hit_builds_12_byte_header(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        agent = CacheAgent(r)
        mh = IPAddress("9.0.0.1")
        agent.learn(mh, net_b.host(1))  # "foreign agent" is B for the test
        from repro.ip.packet import IPPacket, RawPayload
        from repro.ip.protocols import MHRP, UDP

        seen = []
        b.register_protocol(MHRP, lambda p, i: seen.append(p))
        a.send(IPPacket(src=net_a.host(1), dst=mh, protocol=UDP))
        sim.run_until_idle()
        assert len(seen) == 1
        header = seen[0].payload.header
        assert header.byte_length == 12
        assert header.previous_sources == [net_a.host(1)]
        assert seen[0].src == r.primary_address

    def test_miss_means_normal_routing(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        CacheAgent(a)
        from repro.ip.packet import IPPacket
        from repro.ip.protocols import UDP

        seen = []
        b.register_protocol(UDP, lambda p, i: seen.append(p))
        a.send(IPPacket(src=net.host(1), dst=net.host(2), protocol=UDP))
        sim.run_until_idle()
        assert len(seen) == 1
        assert seen[0].protocol == UDP

    def test_disabled_agent_does_nothing(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        agent = CacheAgent(a, enabled=False)
        agent.cache.put(net.host(2), IPAddress("9.9.9.9"))
        from repro.ip.packet import IPPacket
        from repro.ip.protocols import UDP

        seen = []
        b.register_protocol(UDP, lambda p, i: seen.append(p))
        a.send(IPPacket(src=net.host(1), dst=net.host(2), protocol=UDP))
        sim.run_until_idle()
        assert len(seen) == 1


class TestCacheAgentUpdates:
    def test_location_update_installs_entry(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        agent = CacheAgent(a)
        send_location_update(b, net.host(1), MH, FA)
        sim.run_until_idle()
        assert agent.cache.peek(MH) == FA

    def test_zero_update_clears_entry(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        agent = CacheAgent(a)
        agent.learn(MH, FA)
        send_location_update(b, net.host(1), MH, IPAddress.zero())
        sim.run_until_idle()
        assert MH not in agent.cache

    def test_purge_update_clears_entry(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        agent = CacheAgent(a)
        agent.learn(MH, FA)
        send_location_update(b, net.host(1), MH, FA2, purge=True)
        sim.run_until_idle()
        assert MH not in agent.cache

    def test_update_naming_this_node_keeps_the_forwarding_pointer(
        self, two_hosts_one_lan
    ):
        """A home agent whose database still names a foreign agent that
        the host just left updates that agent with its own address; the
        pointer the host's fa-disconnect installed must survive it."""
        sim, lan, a, b, net = two_hosts_one_lan
        agent = CacheAgent(a)
        agent.learn(MH, FA)
        send_location_update(b, net.host(1), MH, net.host(1))
        sim.run_until_idle()
        assert agent.cache.peek(MH) == FA

    def test_update_ignored_by_non_mhrp_host(self, two_hosts_one_lan):
        """Backwards compatibility (Section 4.3): hosts without MHRP
        silently discard the unknown ICMP type."""
        sim, lan, a, b, net = two_hosts_one_lan
        # a has NO cache agent; the update must vanish without errors.
        errors = []
        b.on_icmp_error(lambda p, e: errors.append(e))
        send_location_update(b, net.host(1), MH, FA)
        sim.run_until_idle()
        assert errors == []

    def test_snooping_router_caches_forwarded_updates(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        agent = CacheAgent(r, examine_forwarded=True)
        send_location_update(b, net_a.host(1), MH, FA)
        sim.run_until_idle()
        assert agent.cache.peek(MH) == FA

    def test_snooping_router_ignores_updates_naming_itself(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        agent = CacheAgent(r, examine_forwarded=True)
        agent.learn(MH, FA)
        send_location_update(b, net_a.host(1), MH, r.primary_address)
        sim.run_until_idle()
        assert agent.cache.peek(MH) == FA

    def test_non_snooping_router_does_not_cache(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        agent = CacheAgent(r, examine_forwarded=False)
        send_location_update(b, net_a.host(1), MH, FA)
        sim.run_until_idle()
        assert MH not in agent.cache


class TestSendLocationUpdate:
    def test_never_to_self_or_zero_or_mh(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        assert not send_location_update(a, net.host(1), MH, FA)   # self
        assert not send_location_update(a, IPAddress.zero(), MH, FA)
        assert not send_location_update(a, MH, MH, FA)            # the MH itself

    def test_rate_limited(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        limiter = UpdateRateLimiter(min_interval=10.0)
        assert send_location_update(a, net.host(2), MH, FA, limiter)
        assert not send_location_update(a, net.host(2), MH, FA, limiter)
