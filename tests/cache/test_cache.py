"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import (Cache, CacheConfig, l1_data_cache, l2_cache,
                               local_variable_cache)
from tests.oracles.cache import Cache as OracleCache

BASE = 0x10000000


def small_cache(assoc=2, sets=4, line=32):
    return Cache(CacheConfig("test", assoc * sets * line, assoc, line))


class TestGeometry:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, 2, 32)     # not divisible
        with pytest.raises(ValueError):
            CacheConfig("bad", 96 * 3, 3, 32)   # 3 sets: not power of two
        with pytest.raises(ValueError):
            CacheConfig("bad", 0, 1, 32)

    def test_n_sets(self):
        config = CacheConfig("c", 64 * 1024, 2, 32)
        assert config.n_sets == 1024

    def test_paper_configurations(self):
        assert l1_data_cache().config.size_bytes == 64 * 1024
        assert l1_data_cache().config.assoc == 2
        assert l2_cache().config.size_bytes == 512 * 1024
        lvc = local_variable_cache()
        assert lvc.config.size_bytes == 4 * 1024
        assert lvc.config.assoc == 1


class TestHitMissBehavior:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(BASE) is False
        assert cache.access(BASE) is True

    def test_same_line_different_words_hit(self):
        cache = small_cache(line=32)
        cache.access(BASE)
        assert cache.access(BASE + 24) is True

    def test_adjacent_lines_are_separate(self):
        cache = small_cache(line=32)
        cache.access(BASE)
        assert cache.access(BASE + 32) is False

    def test_lru_eviction(self):
        cache = small_cache(assoc=2, sets=1)
        a, b, c = BASE, BASE + 32, BASE + 64
        cache.access(a)
        cache.access(b)
        cache.access(c)              # evicts a (LRU)
        assert cache.access(b) is True
        assert cache.access(a) is False

    def test_lru_promotion_on_hit(self):
        cache = small_cache(assoc=2, sets=1)
        a, b, c = BASE, BASE + 32, BASE + 64
        cache.access(a)
        cache.access(b)
        cache.access(a)              # a becomes MRU
        cache.access(c)              # evicts b
        assert cache.access(a) is True
        assert cache.access(b) is False

    def test_dirty_eviction_counts_writeback(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(BASE, is_write=True)
        cache.access(BASE + 32)
        assert cache.stats.writebacks == 1
        cache.access(BASE + 64)
        assert cache.stats.writebacks == 1   # clean line: no writeback

    def test_write_hit_marks_dirty(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(BASE)                  # clean fill
        cache.access(BASE, is_write=True)   # dirtied by hit
        cache.access(BASE + 32)
        assert cache.stats.writebacks == 1

    def test_lookup_does_not_mutate(self):
        cache = small_cache()
        assert cache.lookup(BASE) is False
        assert cache.stats.accesses == 0
        cache.access(BASE)
        assert cache.lookup(BASE) is True
        assert cache.stats.accesses == 1

    def test_invalidate_all(self):
        cache = small_cache()
        cache.access(BASE)
        cache.invalidate_all()
        assert cache.access(BASE) is False

    def test_stats_rates(self):
        cache = small_cache()
        cache.access(BASE)
        cache.access(BASE)
        cache.access(BASE)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        assert cache.stats.miss_rate == pytest.approx(1 / 3)


class TestCacheProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=300))
    def test_resident_lines_bounded_by_capacity(self, line_indexes):
        cache = small_cache(assoc=2, sets=4)
        for index in line_indexes:
            cache.access(BASE + index * 32)
        assert cache.resident_lines <= 8

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                    max_size=100))
    def test_working_set_within_capacity_never_re_misses(self, accesses):
        # 32 distinct lines fit exactly in a 32-line fully-used cache.
        cache = Cache(CacheConfig("c", 32 * 32, 4, 32))
        seen = set()
        for index in accesses:
            hit = cache.access(BASE + index * 32)
            assert hit == (index in seen)
            seen.add(index)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.booleans()), max_size=200))
    def test_hits_plus_misses_equals_accesses(self, ops):
        cache = small_cache()
        for index, is_write in ops:
            cache.access(BASE + index * 32, is_write)
        assert cache.stats.hits + cache.stats.misses == len(ops)


class TestMatchesOracle:
    """The line-number/dirty-set cache against the set/tag/dirty-list
    one it replaced: same hit/miss answer per access, same statistics,
    same residency."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1, 1), (1, 4), (2, 4), (4, 2), (4, 8)]),
           st.lists(st.tuples(st.integers(min_value=0, max_value=4095),
                              st.booleans(), st.booleans()),
                    max_size=300))
    def test_same_answers_and_stats(self, geometry, ops):
        assoc, sets = geometry
        config = CacheConfig("c", assoc * sets * 32, assoc, 32)
        cache, oracle = Cache(config), OracleCache(config)
        for offset, is_write, flush in ops:
            addr = BASE + offset * 8
            assert cache.lookup(addr) == oracle.lookup(addr)
            assert cache.access(addr, is_write) == \
                oracle.access(addr, is_write)
            if flush and offset % 61 == 0:
                cache.invalidate_all()
                oracle.invalidate_all()
        assert cache.stats == oracle.stats
        assert cache.resident_lines == oracle.resident_lines
