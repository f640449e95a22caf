"""Checkpoint/resume tests: interrupted sweeps re-run only missing cells."""

import pickle

import pytest

from repro import config, metrics
from repro.eval import checkpoint, engine, faults
from repro.eval.checkpoint import CellJournal, cell_key
from repro.eval.faults import CellFailure, RetryPolicy

NAMES = ("alpha", "beta", "gamma")


def _cell(name, scale):
    return f"{name}@{scale}"


def _other_cell(name, scale):
    return name


def _metric_cell(name, scale):
    metrics.active().scoped("test").counter("runs").inc(1)
    return name


#: Execution log for _logging_cell (meaningful in serial mode only,
#: where cells run in this process).
_EXECUTIONS = []


def _logging_cell(name, scale):
    _EXECUTIONS.append(name)
    return _cell(name, scale)


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)
    engine.reset_fault_stats()
    engine.take_metrics()
    yield
    metrics.disable()
    engine.take_metrics()


def _fresh_journal():
    """The configured journal with zeroed counters (a new run)."""
    engine.reset_fault_stats()
    return engine.active_journal()


class TestCellKey:
    def test_stable(self):
        assert cell_key(_cell, "w", 0.5, ()) == \
            cell_key(_cell, "w", 0.5, ())

    def test_distinguishes_every_identity_component(self):
        base = cell_key(_cell, "w", 0.5, ())
        assert cell_key(_other_cell, "w", 0.5, ()) != base
        assert cell_key(_cell, "x", 0.5, ()) != base
        assert cell_key(_cell, "w", 0.25, ()) != base
        assert cell_key(_cell, "w", 0.5, (4,)) != base


class TestJournal:
    def test_roundtrip(self, tmp_path):
        journal = CellJournal(tmp_path)
        journal.record(_cell, "w", 0.5, (), "result", {"a": 1})
        loaded = journal.load(_cell, "w", 0.5, ())
        assert loaded is not None
        result, snapshot = loaded
        assert result == "result"
        assert snapshot == {"a": 1}
        assert journal.stats.hits == 1
        assert len(journal) == 1

    def test_miss_counted(self, tmp_path):
        journal = CellJournal(tmp_path)
        assert journal.load(_cell, "w", 0.5, ()) is None
        assert journal.stats.misses == 1

    def test_file_as_directory_rejected(self, tmp_path):
        path = tmp_path / "notadir"
        path.touch()
        with pytest.raises(ValueError):
            CellJournal(path)

    def test_corrupt_entry_quarantined(self, tmp_path):
        journal = CellJournal(tmp_path)
        path = journal.record(_cell, "w", 0.5, (), "r", None)
        path.write_bytes(b"\x80garbage, not a pickle")
        assert journal.load(_cell, "w", 0.5, ()) is None
        assert journal.stats.corrupt == 1
        assert not path.exists()
        assert path.with_name(path.name + ".quarantined").exists()

    def test_key_mismatch_quarantined(self, tmp_path):
        # A valid pickle recorded under the wrong filename must not be
        # served: the embedded key is checked against the requested one.
        journal = CellJournal(tmp_path)
        recorded = journal.record(_cell, "w", 0.5, (), "r", None)
        alias = journal.path_for(cell_key(_cell, "other", 0.5, ()))
        alias.write_bytes(recorded.read_bytes())
        assert journal.load(_cell, "other", 0.5, ()) is None
        assert journal.stats.corrupt == 1

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        journal = CellJournal(tmp_path)
        path = journal.record(_cell, "w", 0.5, (), "r", None)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = checkpoint.FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert journal.load(_cell, "w", 0.5, ()) is None
        assert journal.stats.corrupt == 1


class TestResume:
    def test_interrupted_sweep_resumes_missing_cells_only(self, tmp_path,
                                                          monkeypatch):
        """The acceptance scenario: a sweep dies mid-run, the re-run
        replays journalled cells and executes only the missing ones."""
        monkeypatch.setattr(faults, "_sleep", lambda _s: None)
        with config.override(checkpoint=tmp_path):
            with config.override(retry=RetryPolicy(max_retries=0),
                                 inject_fault="fail:name=gamma,times=99"):
                with pytest.raises(CellFailure):    # "power cut" at cell 3
                    engine.run_cells(_cell, NAMES, 1.0, jobs=1)
            assert len(engine.active_journal()) == 2   # alpha, beta landed

            journal = _fresh_journal()
            results = engine.run_cells(_cell, NAMES, 1.0, jobs=1)
            assert results == ["alpha@1.0", "beta@1.0", "gamma@1.0"]
            assert journal.stats.hits == 2
            assert journal.stats.misses == 1
            snap = engine.resilience_snapshot()
            assert snap["checkpoint.hits"] == 2
            assert snap["checkpoint.misses"] == 1

    def test_full_replay_executes_nothing(self, tmp_path):
        del _EXECUTIONS[:]
        with config.override(checkpoint=tmp_path):
            engine.run_cells(_logging_cell, NAMES, 1.0, jobs=1)
            assert _EXECUTIONS == list(NAMES)
            journal = _fresh_journal()
            results = engine.run_cells(_logging_cell, NAMES, 1.0, jobs=1)
            assert results == ["alpha@1.0", "beta@1.0", "gamma@1.0"]
            assert journal.stats.hits == 3
            assert _EXECUTIONS == list(NAMES)   # no cell ran again

    def test_replay_restores_metrics(self, tmp_path):
        with config.override(checkpoint=tmp_path):
            metrics.enable()
            engine.run_cells(_metric_cell, NAMES, 1.0, jobs=1)
            first = engine.take_metrics()

            engine.run_cells(_metric_cell, NAMES, 1.0, jobs=1)
            replayed = engine.take_metrics()
            assert replayed == first

    def test_different_args_never_match(self, tmp_path):
        with config.override(checkpoint=tmp_path):
            engine.run_cells(_cell, NAMES, 1.0, jobs=1)
            journal = _fresh_journal()
            engine.run_cells(_cell, NAMES, 2.0, jobs=1)   # different scale
            assert journal.stats.hits == 0
            assert journal.stats.misses == 3

    def test_corrupt_journal_entry_reruns_cell(self, tmp_path):
        with config.override(checkpoint=tmp_path):
            engine.run_cells(_cell, NAMES, 1.0, jobs=1)
            entry = engine.active_journal().path_for(
                cell_key(_cell, "beta", 1.0, ()))
            entry.write_bytes(b"scrambled")
            journal = _fresh_journal()
            results = engine.run_cells(_cell, NAMES, 1.0, jobs=1)
            assert results == ["alpha@1.0", "beta@1.0", "gamma@1.0"]
            assert journal.stats.hits == 2
            assert journal.stats.corrupt == 1
            assert engine.resilience_snapshot()["checkpoint.corrupt"] == 1
            # The re-run re-journalled the cell, so a third run fully hits.
            journal = _fresh_journal()
            engine.run_cells(_cell, NAMES, 1.0, jobs=1)
            assert journal.stats.hits == 3


class TestDiskQuota:
    """``REPRO_CHECKPOINT_MAX_BYTES`` bounds journal growth by
    rotating the oldest entries into quarantine."""

    def test_unbounded_by_default(self, tmp_path):
        journal = CellJournal(tmp_path)
        assert journal.max_bytes == 0
        for index in range(5):
            journal.record(_cell, f"w{index}", 1.0, (), "r", None)
        assert len(journal) == 5
        assert journal.stats.quota_evictions == 0

    def test_env_var_sets_quota(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_MAX_BYTES", "4096")
        assert CellJournal(tmp_path).max_bytes == 4096
        for bad in ("not-a-number", "-1"):
            monkeypatch.setenv("REPRO_CHECKPOINT_MAX_BYTES", bad)
            config.install(None)
            with pytest.warns(RuntimeWarning, match=repr(bad)):
                assert CellJournal(tmp_path).max_bytes == 0

    def test_quota_rotates_oldest_keeps_newest(self, tmp_path):
        # A quota smaller than one record: every new record rotates
        # everything older, but never itself.
        journal = CellJournal(tmp_path, max_bytes=1)
        for index in range(3):
            journal.record(_cell, f"w{index}", 1.0, (),
                           f"r{index}", None)
        assert len(journal) == 1
        assert journal.stats.quota_evictions == 2
        quarantined = list(tmp_path.glob("*.quarantined"))
        assert len(quarantined) == 2
        # The survivor is the newest record, still replayable.
        assert journal.load(_cell, "w2", 1.0, ()) == ("r2", None)
        # Rotated cells read as plain misses (they re-run on resume).
        assert journal.load(_cell, "w0", 1.0, ()) is None

    def test_quota_large_enough_keeps_everything(self, tmp_path):
        journal = CellJournal(tmp_path, max_bytes=1 << 20)
        for index in range(4):
            journal.record(_cell, f"w{index}", 1.0, (), "r", None)
        assert len(journal) == 4
        assert journal.stats.quota_evictions == 0

    def test_quota_evictions_in_resilience_snapshot(self, tmp_path):
        with config.override(checkpoint=tmp_path, checkpoint_max_bytes=1):
            engine.run_cells(_cell, NAMES, 1.0, jobs=1)
            snap = engine.resilience_snapshot()
        assert snap["checkpoint.quota_evictions"] == 2

    def test_rotated_entries_are_quarantine_collectable(self, tmp_path):
        journal = CellJournal(tmp_path, max_bytes=1)
        for index in range(3):
            journal.record(_cell, f"w{index}", 1.0, (), "r", None)
        # Age bound 0 clears every quarantined file on the next open.
        with config.override(quarantine_max_age_days=0):
            reopened = CellJournal(tmp_path)
        assert reopened.stats.quarantine_gc == 2
        assert list(tmp_path.glob("*.quarantined")) == []
