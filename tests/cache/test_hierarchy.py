"""Tests for the cache hierarchy and port arbitration (the oracle
timing machine's components) and for the LVC hit-rate sweep."""

import pytest

from repro.cache.cache import Cache, CacheConfig
from repro.cache.lvc import lvc_size_sweep, stack_cache_hit_rate
from repro.trace.records import (OC_LOAD, REGION_DATA, REGION_STACK, Trace,
                                 TraceRecord)
from tests.oracles.hierarchy import Hierarchy, PortManager

BASE = 0x10000000


def tiny_hierarchy():
    l1 = Cache(CacheConfig("L1", 2 * 32, 1, 32, latency=2))
    l2 = Cache(CacheConfig("L2", 8 * 32, 2, 32, latency=12))
    return Hierarchy(l1, l2, memory_latency=50)


class TestHierarchyLatency:
    def test_l1_hit_latency(self):
        h = tiny_hierarchy()
        h.access(BASE)
        result = h.access(BASE)
        assert result.l1_hit
        assert result.latency == 2

    def test_l2_hit_latency(self):
        h = tiny_hierarchy()
        h.access(BASE)              # fills L1 and L2
        h.access(BASE + 64)         # evicts BASE from 2-line L1 set 0...
        h.access(BASE + 128)
        result = h.access(BASE)
        if not result.l1_hit and result.l2_hit:
            assert result.latency == 2 + 12

    def test_memory_latency(self):
        h = tiny_hierarchy()
        result = h.access(BASE)
        assert not result.l1_hit
        assert not result.l2_hit
        assert result.latency == 2 + 12 + 50

    def test_inclusion_like_refill(self):
        h = tiny_hierarchy()
        h.access(BASE)
        assert h.l1.lookup(BASE)
        assert h.l2.lookup(BASE)


class TestPortManager:
    def test_grants_up_to_port_count(self):
        ports = PortManager(2)
        assert ports.try_acquire(0)
        assert ports.try_acquire(0)
        assert not ports.try_acquire(0)

    def test_resets_each_cycle(self):
        ports = PortManager(1)
        assert ports.try_acquire(0)
        assert not ports.try_acquire(0)
        assert ports.try_acquire(1)

    def test_counters(self):
        ports = PortManager(1)
        ports.try_acquire(0)
        ports.try_acquire(0)
        assert ports.grants == 1
        assert ports.conflicts == 1

    def test_available(self):
        ports = PortManager(3)
        assert ports.available(5) == 3
        ports.try_acquire(5)
        assert ports.available(5) == 2

    def test_zero_ports_rejected(self):
        with pytest.raises(ValueError):
            PortManager(0)


class TestStackCacheExperiment:
    def _trace(self, addresses, region=REGION_STACK):
        records = [TraceRecord(0, OC_LOAD, addr=a, region=region)
                   for a in addresses]
        return Trace("t", records)

    def test_only_stack_references_counted(self):
        records = [
            TraceRecord(0, OC_LOAD, addr=0x7FFF0000, region=REGION_STACK),
            TraceRecord(0, OC_LOAD, addr=BASE, region=REGION_DATA),
        ]
        result = stack_cache_hit_rate(Trace("t", records))
        assert result.stack_accesses == 1

    def test_hot_frame_hits(self):
        addresses = [0x7FFF0000 + (i % 8) * 8 for i in range(100)]
        result = stack_cache_hit_rate(self._trace(addresses))
        assert result.hit_rate > 0.9

    def test_size_sweep_monotone_for_nested_working_sets(self):
        # Working set of 8 KB: a 16 KB LVC must do at least as well as
        # 1 KB on re-walks.
        walk = [0x7FFF0000 + i * 8 for i in range(1024)]
        trace = self._trace(walk * 4)
        results = lvc_size_sweep(trace, sizes=(1024, 16384))
        assert results[1].hit_rate >= results[0].hit_rate
