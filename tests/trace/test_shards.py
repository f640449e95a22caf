"""Sharded trace storage: roundtrip, knobs, integrity, cache bounds.

Covers the shard writer/manifest/iterator layer itself plus its trace
cache integration: per-shard CRC verification quarantining the whole
entry (shards are only valid together), regeneration after corruption,
and the ``REPRO_TRACE_CACHE_MAX_BYTES`` LRU bound evicting whole shard
sets atomically.
"""

import json
import random

import numpy as np
import pytest

from repro import config
from repro.trace import cache as cache_mod
from repro.trace import shards
from repro.trace.cache import TraceCache
from repro.trace.records import (OC_BRANCH, OC_IALU, OC_LOAD, OC_STORE,
                                 REGION_DATA, REGION_HEAP, REGION_STACK,
                                 Trace, TraceRecord)
from repro.trace.serialize import TraceIntegrityError
from repro.trace.shards import (MemoryShardWriter, ShardedTrace,
                                ShardWriter, load_sharded, shard_trace)

_REGIONS = (REGION_DATA, REGION_HEAP, REGION_STACK)


def _random_trace(seed: int, n: int = 400) -> Trace:
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        draw = rng.random()
        if draw < 0.15:
            records.append(TraceRecord(0x400800 + 8 * rng.randrange(4),
                                       OC_BRANCH,
                                       taken=rng.random() < 0.5))
        elif draw < 0.3:
            records.append(TraceRecord(0x400000 + 8 * rng.randrange(8),
                                       OC_IALU, dst=rng.randrange(32),
                                       value=rng.randrange(-50, 50)))
        else:
            records.append(TraceRecord(
                0x400100 + 8 * rng.randrange(6),
                OC_LOAD if rng.random() < 0.7 else OC_STORE,
                addr=0x10000000 + 8 * rng.randrange(64),
                mode=rng.choice((0, 1, 2, 3, 3)),
                region=rng.choice(_REGIONS),
                ra=0x400008 + 8 * rng.randrange(3)))
    trace = Trace(f"rand{seed}", records)
    trace.output = [1, 2, 3]
    trace.exit_code = 7
    return trace


def _columns_equal(a, b) -> bool:
    from repro.trace.columns import COLUMN_DTYPES
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name, _ in COLUMN_DTYPES) \
        and np.array_equal(a.value, b.value) \
        and np.array_equal(a.value_valid, b.value_valid)


class TestShardRoundtrip:
    @pytest.mark.parametrize("shard_rows", (1, 7, 64, 1000))
    def test_disk_roundtrip_materializes_identically(self, tmp_path,
                                                     shard_rows):
        trace = _random_trace(0)
        memory = shard_trace(trace, shard_rows)
        writer = ShardWriter(tmp_path / "entry", trace.name, shard_rows)
        for chunk in memory.chunks():
            writer.append(chunk)
        written = writer.finish(trace.output, trace.exit_code)
        loaded = load_sharded(tmp_path / "entry")
        for view in (written, loaded):
            assert view.total_rows == len(trace)
            assert view.num_shards == memory.num_shards
            assert view.output == trace.output
            assert view.exit_code == trace.exit_code
            back = view.materialize()
            assert _columns_equal(back.columns, trace.columns)
            assert back.output == trace.output

    def test_manifest_counts_sum_to_trace_mix(self):
        trace = _random_trace(1)
        view = shard_trace(trace, 37)
        op = trace.columns.op_class
        assert view.counts()["instructions"] == len(trace)
        assert view.load_count == int((op == OC_LOAD).sum())
        assert view.store_count == int((op == OC_STORE).sum())
        assert view.counts()["branches"] == int((op == OC_BRANCH).sum())
        mem = (op == OC_LOAD) | (op == OC_STORE)
        by_region = np.bincount(trace.columns.region[mem], minlength=3)
        assert view.counts()["region_data"] == int(by_region[0])
        assert view.counts()["region_heap"] == int(by_region[1])
        assert view.counts()["region_stack"] == int(by_region[2])

    def test_chunks_are_bounded_and_ordered(self):
        trace = _random_trace(2, n=100)
        view = shard_trace(trace, 33)
        sizes = [len(chunk) for chunk in view.chunks()]
        assert sizes == [33, 33, 33, 1]
        assert np.array_equal(
            np.concatenate([chunk.pc for chunk in view.chunks()]),
            trace.columns.pc)

    def test_empty_trace_roundtrips(self, tmp_path):
        writer = ShardWriter(tmp_path / "empty", "empty", 16)
        view = writer.finish([], 0)
        assert view.total_rows == 0 and view.num_shards == 0
        assert len(load_sharded(tmp_path / "empty").materialize()) == 0

    def test_writer_rejects_bad_shard_rows(self):
        with pytest.raises(ValueError):
            MemoryShardWriter("x", 0)


class TestShardRowsKnob:
    def test_explicit_set_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_ROWS", "123")
        with config.override(shard_rows=77):
            assert config.active().shard_rows == 77
        with config.override(shard_rows=0):   # explicit off beats env on
            assert not config.active().shard_rows
        assert config.active().shard_rows == 123

    def test_env_var_applies_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_ROWS", "4096")
        assert config.active().shard_rows == 4096

    def test_invalid_env_falls_back_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_ROWS", "banana")
        with pytest.warns(RuntimeWarning, match="REPRO_SHARD_ROWS"):
            assert config.active().shard_rows == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            with config.override(shard_rows=-1):
                pass


def _producer_for(trace):
    """A cache producer that shards ``trace`` instead of simulating."""
    def producer(name, scale, writer):
        source = shard_trace(trace, writer.shard_rows)
        for chunk in source.chunks():
            writer.append(chunk)
        return writer.finish(trace.output, trace.exit_code)
    return producer


class TestShardedCache:
    def test_fetch_miss_then_hit(self, tmp_path):
        trace = _random_trace(3)
        cache = TraceCache(tmp_path)
        produced = cache.fetch_sharded(trace.name, 1.0, 50,
                                       producer=_producer_for(trace))
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        again = cache.fetch_sharded(trace.name, 1.0, 50,
                                    producer=_producer_for(trace))
        assert cache.stats.hits == 1
        assert _columns_equal(produced.materialize().columns,
                              again.materialize().columns)

    def test_distinct_shard_rows_are_distinct_entries(self, tmp_path):
        trace = _random_trace(4)
        cache = TraceCache(tmp_path)
        a = cache.fetch_sharded(trace.name, 1.0, 10,
                                producer=_producer_for(trace))
        b = cache.fetch_sharded(trace.name, 1.0, 99,
                                producer=_producer_for(trace))
        assert a.num_shards != b.num_shards
        assert cache.stats.misses == 2

    def test_corrupt_shard_quarantines_whole_entry_and_regenerates(
            self, tmp_path):
        trace = _random_trace(5)
        cache = TraceCache(tmp_path)
        first = cache.fetch_sharded(trace.name, 1.0, 64,
                                    producer=_producer_for(trace))
        entry = cache.sharded_path_for(trace.name, 1.0, 64)
        victim = entry / first.shard_meta(1)["file"]
        victim.write_bytes(b"garbage not a zip")
        reloaded = cache.fetch_sharded(trace.name, 1.0, 64,
                                       producer=_producer_for(trace))
        with pytest.raises(TraceIntegrityError):
            reloaded.chunk(1)
        # The corrupt-chunk hook quarantined the whole entry...
        assert cache.stats.corrupt == 1
        assert not entry.exists()
        quarantined = list(tmp_path.glob(
            "*" + cache_mod.QUARANTINE_SUFFIX))
        assert quarantined, "corrupt shard set should be moved aside"
        # ...so the next fetch is a miss that regenerates a good copy.
        before = cache.stats.misses
        fresh = cache.fetch_sharded(trace.name, 1.0, 64,
                                    producer=_producer_for(trace))
        assert cache.stats.misses == before + 1
        assert _columns_equal(fresh.materialize().columns,
                              trace.columns)

    def test_tampered_manifest_is_quarantined_on_open(self, tmp_path):
        trace = _random_trace(6)
        cache = TraceCache(tmp_path)
        cache.fetch_sharded(trace.name, 1.0, 64,
                            producer=_producer_for(trace))
        entry = cache.sharded_path_for(trace.name, 1.0, 64)
        manifest = json.loads(
            (entry / shards.MANIFEST_NAME).read_text())
        manifest["name"] = "impostor"
        (entry / shards.MANIFEST_NAME).write_text(json.dumps(manifest))
        assert cache.load_sharded(trace.name, 1.0, 64) is None
        assert cache.stats.corrupt == 1
        assert not entry.exists()

    def test_lru_bound_evicts_whole_shard_sets(self, tmp_path):
        trace = _random_trace(7)
        cache = TraceCache(tmp_path)
        for scale in (1.0, 2.0, 3.0):
            cache.fetch_sharded(trace.name, scale, 64,
                                producer=_producer_for(trace))
        entries = [cache.sharded_path_for(trace.name, s, 64)
                   for s in (1.0, 2.0, 3.0)]
        assert all(path.is_dir() for path in entries)
        one_entry = sum(f.stat().st_size
                        for f in entries[0].rglob("*") if f.is_file())
        # Bound to ~one entry: the two least-recently-used sets go.
        with config.override(trace_cache_max_bytes=int(one_entry * 1.5)):
            removed = cache.enforce_size_bound(keep=entries[2])
        assert removed == 2 and cache.stats.evictions == 2
        assert not entries[0].exists() and not entries[1].exists()
        assert entries[2].exists()
        # Evicted entries are gone atomically - no stray shard files.
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.endswith(".npz") and p.is_file()]
        assert not leftovers

    def test_unbounded_cache_never_evicts(self, tmp_path):
        trace = _random_trace(8)
        cache = TraceCache(tmp_path)
        with config.override(trace_cache_max_bytes=0):
            cache.fetch_sharded(trace.name, 1.0, 64,
                                producer=_producer_for(trace))
            assert cache.enforce_size_bound() == 0
        assert cache.stats.evictions == 0


class TestShardStats:
    def test_chunk_loads_and_produces_are_counted(self, tmp_path):
        trace = _random_trace(9, n=120)
        chunks = list(shard_trace(trace, 50).chunks())
        baseline = shards.STATS.snapshot()
        writer = ShardWriter(tmp_path / "entry", trace.name, 50)
        for chunk in chunks:
            writer.append(chunk)
        writer.finish(trace.output, trace.exit_code)
        view = load_sharded(tmp_path / "entry")
        list(view.chunks())
        snap = shards.STATS.snapshot()
        assert snap["trace.shards.produced"] \
            - baseline["trace.shards.produced"] == 3
        assert snap["trace.shards.loaded"] \
            - baseline["trace.shards.loaded"] == 3

    def test_inconsistent_manifest_rejected(self):
        view = shard_trace(_random_trace(10, n=10), 4)
        manifest = {
            "version": shards.SHARD_FORMAT_VERSION,
            "name": view.name, "shard_rows": 4,
            "total_rows": view.total_rows + 1,
            "output": [], "exit_code": 0,
            "shards": [view.shard_meta(i)
                       for i in range(view.num_shards)],
        }
        with pytest.raises(TraceIntegrityError):
            ShardedTrace(manifest, resident_chunks=list(view.chunks()))
