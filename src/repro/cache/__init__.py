"""Cache models: set-associative caches and the LVC."""

from repro.cache.cache import (Cache, CacheConfig, CacheStats,
                               l1_data_cache, l2_cache,
                               local_variable_cache)
from repro.cache.lvc import (StackCacheResult, lvc_size_sweep,
                             stack_cache_hit_rate)

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "l1_data_cache",
    "l2_cache",
    "local_variable_cache",
    "StackCacheResult",
    "lvc_size_sweep",
    "stack_cache_hit_rate",
]
