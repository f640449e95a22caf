"""Tests for the on-disk trace cache."""

import multiprocessing

import pytest

from repro import config
from repro.testing import faults as fi
from repro.trace import cache as trace_cache
from repro.trace import serialize
from repro.trace.cache import QUARANTINE_SUFFIX, CacheStats, TraceCache
from repro.trace.records import OC_IALU, Trace, TraceRecord


def _trace(name="cached", n=4):
    records = [TraceRecord(pc=0x400000 + 4 * i, op_class=OC_IALU,
                           dst=1, src1=2, src2=3, addr=0, mode=-1,
                           region=-1, taken=False, ra=0, value=i)
               for i in range(n)]
    return Trace(name, records, output=[n], exit_code=0)


def _store_entry(directory, value):
    """Child-process body for the concurrent-store test."""
    cache = TraceCache(directory)
    cache.store("shared", 1.0, _trace("shared", n=value))


@pytest.fixture(autouse=True)
def _clean_config(monkeypatch):
    monkeypatch.delenv(trace_cache.ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)


class TestKeyScheme:
    def test_key_includes_name_scale_and_version(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = cache.key("db_vortex", 0.25)
        assert "db_vortex" in key
        assert "s0.25" in key
        assert f"v{serialize.FORMAT_VERSION}" in key

    def test_file_as_cache_directory_rejected(self, tmp_path):
        path = tmp_path / "notadir"
        path.touch()
        with pytest.raises(ValueError):
            TraceCache(path)

    def test_different_scales_get_different_paths(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.path_for("go_ai", 1.0) != cache.path_for("go_ai", 0.5)

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = TraceCache(tmp_path)
        cache.store("w", 1.0, _trace())
        assert cache.load("w", 1.0) is not None
        monkeypatch.setattr(serialize, "FORMAT_VERSION",
                            serialize.FORMAT_VERSION + 1)
        assert cache.load("w", 1.0) is None


class TestFetch:
    def test_miss_runs_producer_then_hit_does_not(self, tmp_path):
        cache = TraceCache(tmp_path)
        calls = []

        def producer(name, scale):
            calls.append((name, scale))
            return _trace(name)

        first = cache.fetch("w", 0.5, producer=producer)
        second = cache.fetch("w", 0.5, producer=producer)
        assert calls == [("w", 0.5)]
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert [r.value for r in second.records] == \
            [r.value for r in first.records]

    def test_store_writes_final_path_only(self, tmp_path):
        cache = TraceCache(tmp_path)
        path = cache.store("w", 1.0, _trace())
        assert path == cache.path_for("w", 1.0)
        assert path.exists()
        # No stray temp/partial files - only the entry itself and the
        # advisory lock directory.
        assert sorted(tmp_path.iterdir()) == sorted(
            [path, tmp_path / ".locks"])

    def test_corrupt_file_falls_back_to_producer(self, tmp_path):
        cache = TraceCache(tmp_path)
        path = cache.path_for("w", 1.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz archive")
        fetched = cache.fetch("w", 1.0, producer=lambda n, s: _trace(n))
        assert fetched.name == "w"
        assert cache.stats.misses == 1
        # The corrupt file was replaced by a valid one.
        assert cache.load("w", 1.0) is not None


class TestFailureModes:
    """Corrupt entries are quarantined and regenerated - never served,
    never fatal."""

    def _seeded(self, tmp_path):
        cache = TraceCache(tmp_path)
        path = cache.store("w", 1.0, _trace("w"))
        return cache, path

    def _assert_recovered(self, cache, path):
        quarantined = path.with_name(path.name + QUARANTINE_SUFFIX)
        produced = []

        def producer(name, scale):
            produced.append(name)
            return _trace(name)

        fetched = cache.fetch("w", 1.0, producer=producer)
        assert fetched.name == "w"
        assert produced == ["w"]
        assert cache.stats.corrupt == 1
        assert quarantined.exists()
        # The regenerated entry is valid and served on the next fetch.
        assert cache.fetch("w", 1.0, producer=producer).name == "w"
        assert produced == ["w"]

    def test_truncated_entry(self, tmp_path):
        cache, path = self._seeded(tmp_path)
        fi.corrupt_file(path, "truncate")
        self._assert_recovered(cache, path)

    def test_zero_byte_entry(self, tmp_path):
        cache, path = self._seeded(tmp_path)
        fi.corrupt_file(path, "zero")
        self._assert_recovered(cache, path)

    def test_garbage_entry(self, tmp_path):
        cache, path = self._seeded(tmp_path)
        fi.corrupt_file(path, "garbage", seed=11)
        self._assert_recovered(cache, path)

    def test_wrong_embedded_version(self, tmp_path):
        import json

        import numpy as np
        cache = TraceCache(tmp_path)
        path = cache.path_for("w", 1.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = json.dumps({"version": serialize.FORMAT_VERSION + 1,
                           "name": "w", "output": [], "exit_code": 0})
        np.savez_compressed(
            str(path),
            meta=np.frombuffer(meta.encode(), dtype=np.uint8))
        self._assert_recovered(cache, path)

    def test_injected_store_corruption(self, tmp_path):
        """A store corrupted in flight is caught on the next load."""
        cache = TraceCache(tmp_path)
        with config.override(inject_fault="corrupt:name=w,mode=truncate"):
            path = cache.store("w", 1.0, _trace("w"))
            assert cache.load("w", 1.0) is None
            assert cache.stats.corrupt == 1
            assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()
            # The directive is spent (times=1), so regeneration sticks.
            fetched = cache.fetch("w", 1.0,
                                  producer=lambda n, s: _trace(n))
            assert fetched.name == "w"
            assert cache.load("w", 1.0) is not None

    def test_concurrent_stores_of_same_entry(self, tmp_path):
        procs = [multiprocessing.Process(target=_store_entry,
                                         args=(tmp_path, n))
                 for n in (3, 5)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert [proc.exitcode for proc in procs] == [0, 0]
        loaded = TraceCache(tmp_path).load("shared", 1.0)
        assert loaded is not None           # last writer won, intact
        assert len(loaded) in (3, 5)

    def test_fetch_after_wait_loads_other_writers_entry(self, tmp_path):
        """The double-checked miss path: a fetch that waited on the
        entry lock re-loads instead of simulating a second time."""
        from contextlib import contextmanager

        cache = TraceCache(tmp_path)
        entry = cache.path_for("w", 1.0)
        real_lock = cache._entry_lock

        @contextmanager
        def contended_lock(path):
            # Simulate another writer finishing while we waited for
            # the lock: the entry appears, and waited is reported True.
            with real_lock(path):
                serialize.save_trace(_trace("w"), entry)
                yield True

        cache._entry_lock = contended_lock
        try:
            fetched = cache.fetch(
                "w", 1.0,
                producer=lambda n, s: pytest.fail("must not simulate"))
        finally:
            cache._entry_lock = real_lock
        assert fetched.name == "w"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0


class TestActivation:
    def test_disabled_by_default(self):
        assert trace_cache.active_cache() is None

    def test_env_var_activates(self, tmp_path, monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        cache = trace_cache.active_cache()
        assert cache is not None
        assert cache.directory == tmp_path

    def test_configure_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path / "env"))
        configured = trace_cache.configure(tmp_path / "explicit")
        assert trace_cache.active_cache() is configured
        assert configured.directory == tmp_path / "explicit"

    def test_configure_none_disables_despite_env(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        trace_cache.configure(None)
        assert trace_cache.active_cache() is None

    def test_reset_restores_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        trace_cache.configure(None)
        trace_cache.reset()
        cache = trace_cache.active_cache()
        assert cache is not None
        assert cache.directory == tmp_path


class TestStats:
    def test_snapshot_is_independent(self):
        stats = CacheStats(hits=2, misses=3, load_seconds=0.5,
                           sim_seconds=1.0)
        snap = stats.snapshot()
        stats.hits += 1
        assert snap.hits == 2
        assert snap.misses == 3
