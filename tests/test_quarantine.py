"""Garbage collection of quarantined files (:mod:`repro.quarantine`).

Covers the collector directly (age bound, newest-N retention, env
knobs, degenerate inputs) and its integration points: opening a trace
cache or checkpoint journal collects expired quarantined entries and
counts them in the store's stats, which the engine surfaces as
resilience metrics.
"""

import os
import time
import warnings

import pytest

from repro import config, quarantine
from repro.eval.checkpoint import CellJournal
from repro.trace.cache import TraceCache

DAY = 86400.0


def _quarantined(directory, name, age_days, now):
    """Create one quarantined file with an mtime ``age_days`` old."""
    path = directory / f"{name}{quarantine.SUFFIX}"
    path.write_bytes(b"corrupt")
    stamp = now - age_days * DAY
    os.utime(path, (stamp, stamp))
    return path


class TestCollect:
    def test_age_bound(self, tmp_path):
        now = time.time()
        old = _quarantined(tmp_path, "old", 10, now)
        fresh = _quarantined(tmp_path, "fresh", 1, now)
        removed = quarantine.collect(tmp_path, max_age_days=7,
                                     max_files=100, now=now)
        assert removed == 1
        assert not old.exists() and fresh.exists()

    def test_count_bound_keeps_newest(self, tmp_path):
        now = time.time()
        paths = [_quarantined(tmp_path, f"q{i}", i, now)
                 for i in range(6)]           # q0 newest ... q5 oldest
        removed = quarantine.collect(tmp_path, max_age_days=100,
                                     max_files=2, now=now)
        assert removed == 4
        survivors = sorted(p.name for p in
                           tmp_path.glob(f"*{quarantine.SUFFIX}"))
        assert survivors == [paths[0].name, paths[1].name]

    def test_age_zero_clears_everything(self, tmp_path):
        now = time.time()
        for i in range(3):
            _quarantined(tmp_path, f"q{i}", i, now)
        assert quarantine.collect(tmp_path, max_age_days=0,
                                  max_files=100, now=now + 1) == 3
        assert not list(tmp_path.glob(f"*{quarantine.SUFFIX}"))

    def test_ignores_other_files(self, tmp_path):
        now = time.time()
        keep = tmp_path / "trace.npz"
        keep.write_bytes(b"data")
        os.utime(keep, (now - 30 * DAY, now - 30 * DAY))
        _quarantined(tmp_path, "old", 30, now)
        assert quarantine.collect(tmp_path, max_age_days=7,
                                  max_files=0, now=now) == 1
        assert keep.exists()

    def test_missing_directory_is_a_noop(self, tmp_path):
        assert quarantine.collect(tmp_path / "absent") == 0

    def test_env_knobs(self, tmp_path, monkeypatch):
        now = time.time()
        _quarantined(tmp_path, "old", 5, now)
        _quarantined(tmp_path, "fresh", 1, now)
        monkeypatch.setenv("REPRO_QUARANTINE_MAX_AGE_DAYS", "3")
        assert quarantine.collect(tmp_path, now=now) == 1
        with config.override(quarantine_max_files=0):
            assert quarantine.collect(tmp_path, now=now) == 1
        assert not list(tmp_path.glob(f"*{quarantine.SUFFIX}"))

    @pytest.mark.parametrize("value", ("not-a-number", "-2", ""))
    def test_invalid_env_values_fall_back(self, tmp_path, monkeypatch,
                                          value):
        now = time.time()
        _quarantined(tmp_path, "recent", 1, now)
        monkeypatch.setenv("REPRO_QUARANTINE_MAX_AGE_DAYS", value)
        monkeypatch.setenv("REPRO_QUARANTINE_MAX_FILES", value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # Defaults (7 days / 16 files) keep a 1-day-old file.
            assert quarantine.collect(tmp_path, now=now) == 0
        # Blank means unset; a malformed value is reported, per knob.
        assert len(caught) == (2 if value else 0)


class TestStoreIntegration:
    def test_trace_cache_open_collects_and_counts(self, tmp_path):
        now = time.time()
        _quarantined(tmp_path, "bad.npz", 30, now)
        _quarantined(tmp_path, "recent.npz", 1, now)
        cache = TraceCache(tmp_path)
        assert cache.stats.quarantine_gc == 1
        assert list(tmp_path.glob(f"*{quarantine.SUFFIX}")) \
            == [tmp_path / f"recent.npz{quarantine.SUFFIX}"]

    def test_journal_open_collects_and_counts(self, tmp_path):
        now = time.time()
        _quarantined(tmp_path, "bad.cell", 30, now)
        journal = CellJournal(tmp_path)
        assert journal.stats.quarantine_gc == 1

    def test_snapshot_carries_the_counter(self, tmp_path):
        _quarantined(tmp_path, "bad.npz", 30, time.time())
        cache = TraceCache(tmp_path)
        assert cache.stats.snapshot().quarantine_gc == 1

    def test_resilience_metrics_surface_collections(self, tmp_path):
        from repro.eval import engine
        now = time.time()
        cache_dir = tmp_path / "cache"
        journal_dir = tmp_path / "journal"
        cache_dir.mkdir(), journal_dir.mkdir()
        _quarantined(cache_dir, "bad.npz", 30, now)
        _quarantined(journal_dir, "bad.cell", 30, now)
        with config.override(trace_cache=cache_dir, checkpoint=journal_dir):
            snap = engine.resilience_snapshot()
        assert snap["trace.cache.quarantine_gc"] == 1
        assert snap["checkpoint.quarantine_gc"] == 1
