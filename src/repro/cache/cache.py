"""Set-associative cache model with LRU replacement.

Behavioural (hit/miss) model used both standalone (stack-cache hit-rate
experiments, Section 3.3 of the paper) and composed into the two-level
hierarchy of the timing simulator.  Write policy is write-back /
write-allocate, the common choice for the paper's era of L1 designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_size: int = 32
    latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_size <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.assoc * self.line_size):
            raise ValueError(
                f"{self.name}: size must be divisible by assoc * line_size")
        if self.line_size & (self.line_size - 1):
            raise ValueError("line size must be a power of two")
        n_sets = self.size_bytes // (self.assoc * self.line_size)
        if n_sets & (n_sets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_size)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / max(1, self.accesses)

    @property
    def miss_rate(self) -> float:
        return self.misses / max(1, self.accesses)

    def publish(self, ns) -> None:
        """Publish these stats as counters into a metrics namespace.

        ``ns`` is anything with ``counter(name).inc(amount)`` - normally
        a :class:`repro.metrics.Namespace` scoped to this cache level
        (kept duck-typed so the cache model stays import-light).
        """
        ns.counter("hits").inc(self.hits)
        ns.counter("misses").inc(self.misses)
        ns.counter("evictions").inc(self.evictions)
        ns.counter("writebacks").inc(self.writebacks)


class Cache:
    """One cache level.  ``access`` returns True on hit."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.n_sets - 1
        self._assoc = config.assoc
        # Per set: resident line numbers (addr >> line bits) in LRU
        # order (front = LRU); a line number names its set and tag.
        self._sets: List[List[int]] = [[] for _ in range(config.n_sets)]
        self._dirty: Set[int] = set()

    def lookup(self, addr: int) -> bool:
        """Probe without updating state or statistics."""
        line = addr >> self._line_shift
        return line in self._sets[line & self._set_mask]

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Reference one address; fills on miss; returns hit/miss."""
        line = addr >> self._line_shift
        ways = self._sets[line & self._set_mask]
        stats = self.stats
        if line in ways:
            if ways[-1] != line:
                ways.remove(line)       # promote to MRU
                ways.append(line)
            if is_write:
                self._dirty.add(line)
            stats.hits += 1
            return True
        stats.misses += 1
        if len(ways) >= self._assoc:
            victim = ways.pop(0)
            stats.evictions += 1
            if victim in self._dirty:
                self._dirty.remove(victim)
                stats.writebacks += 1
        ways.append(line)
        if is_write:
            self._dirty.add(line)
        return False

    def invalidate_all(self) -> None:
        self._sets = [[] for _ in range(self.config.n_sets)]
        self._dirty = set()

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)


# Configurations from the paper's Table 4 -------------------------------

def l1_data_cache(latency: int = 2) -> Cache:
    """64 KB, 2-way set-associative L1 data cache (2-cycle hit)."""
    return Cache(CacheConfig(name="L1D", size_bytes=64 * 1024, assoc=2,
                             latency=latency))


def l2_cache() -> Cache:
    """512 KB, 4-way unified L2 (12-cycle access)."""
    return Cache(CacheConfig(name="L2", size_bytes=512 * 1024, assoc=4,
                             latency=12))


def local_variable_cache(size_bytes: int = 4 * 1024) -> Cache:
    """The paper's LVC: 4 KB direct-mapped, 1-cycle stack cache."""
    return Cache(CacheConfig(name="LVC", size_bytes=size_bytes, assoc=1,
                             latency=1))
