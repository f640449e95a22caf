"""The set/tag/dirty-list cache, kept as a test oracle.

This is :class:`repro.cache.cache.Cache` as it was before it switched to
per-set line numbers plus a dirty-line set: each set is a list of
``[tag, dirty]`` entries in LRU order.  The oracle timing machine and
hierarchy use it, so the differential timing tests also pin the cache's
behaviour, and ``tests/cache/test_cache.py`` compares the two directly.
"""

from __future__ import annotations

from typing import List

from repro.cache.cache import CacheConfig, CacheStats


class Cache:
    """One cache level.  ``access`` returns True on hit."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.n_sets - 1
        # Per set: list of [tag, dirty] in LRU order (front = LRU).
        self._sets: List[List[List]] = [[] for _ in range(config.n_sets)]

    def _locate(self, addr: int):
        line = addr >> self._line_shift
        return line & self._set_mask, line >> (self._set_mask.bit_length())

    def lookup(self, addr: int) -> bool:
        """Probe without updating state or statistics."""
        set_index, tag = self._locate(addr)
        return any(entry[0] == tag for entry in self._sets[set_index])

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Reference one address; fills on miss; returns hit/miss."""
        set_index, tag = self._locate(addr)
        ways = self._sets[set_index]
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                ways.append(ways.pop(i))   # promote to MRU
                if is_write:
                    entry[1] = True
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        if len(ways) >= self.config.assoc:
            victim = ways.pop(0)
            self.stats.evictions += 1
            if victim[1]:
                self.stats.writebacks += 1
        ways.append([tag, is_write])
        return False

    def invalidate_all(self) -> None:
        self._sets = [[] for _ in range(self.config.n_sets)]

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)
