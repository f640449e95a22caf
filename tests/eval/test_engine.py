"""Tests for the experiment execution engine (fan-out + stage timing).

The load-bearing property is equivalence: every experiment table must be
byte-identical whether the trace cache is disabled, cold, or warm, and
at any ``--jobs`` level.
"""

import pytest

from repro.eval import engine, figure4
from repro.trace import cache as trace_cache
from repro.workloads import suite

SCALE = 0.2
NAMES = ("db_vortex", "go_ai")


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(trace_cache.ENV_VAR, raising=False)
    monkeypatch.delenv(engine.JOBS_ENV_VAR, raising=False)
    trace_cache.reset()
    engine.set_jobs(None)
    engine.reset_stage_times()
    yield
    trace_cache.reset()
    engine.set_jobs(None)
    engine.reset_stage_times()
    suite.clear_caches()


def _cell(name, scale):
    return f"{name}@{scale:g}"


def _flaky_order_cell(name, scale, delays):
    # Later-submitted cells finish first; results must still come back
    # in submission order.
    import time
    time.sleep(delays[name])
    return name


class TestRunCells:
    def test_serial_results_in_submission_order(self):
        results = engine.run_cells(_cell, ("b", "a", "c"), 0.5, jobs=1)
        assert results == ["b@0.5", "a@0.5", "c@0.5"]

    def test_parallel_results_in_submission_order(self):
        delays = {"b": 0.2, "a": 0.0, "c": 0.1}
        results = engine.run_cells(
            _flaky_order_cell, ("b", "a", "c"), 1.0, delays, jobs=3)
        assert results == ["b", "a", "c"]

    def test_cell_count_accumulates(self):
        engine.run_cells(_cell, ("x", "y"), 1.0, jobs=1)
        assert engine.stage_times().cells == 2


class TestJobs:
    def test_default_is_serial(self):
        assert engine.get_jobs() == 1

    def test_set_jobs(self):
        engine.set_jobs(4)
        assert engine.get_jobs() == 4

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(engine.JOBS_ENV_VAR, "3")
        assert engine.get_jobs() == 3

    def test_bad_env_var_falls_back(self, monkeypatch):
        monkeypatch.setenv(engine.JOBS_ENV_VAR, "lots")
        assert engine.get_jobs() == 1

    def test_bad_env_var_warns_naming_value(self, monkeypatch):
        monkeypatch.setenv(engine.JOBS_ENV_VAR, "lots")
        engine._warned_jobs.clear()
        with pytest.warns(RuntimeWarning, match="'lots'"):
            assert engine.get_jobs() == 1

    def test_nonpositive_env_var_warns(self, monkeypatch):
        monkeypatch.setenv(engine.JOBS_ENV_VAR, "-2")
        engine._warned_jobs.clear()
        with pytest.warns(RuntimeWarning, match="'-2'"):
            assert engine.get_jobs() == 1

    def test_bad_env_var_warns_once_per_value(self, monkeypatch):
        import warnings as warnings_module
        monkeypatch.setenv(engine.JOBS_ENV_VAR, "zero")
        engine._warned_jobs.clear()
        with pytest.warns(RuntimeWarning):
            engine.get_jobs()
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert engine.get_jobs() == 1   # already reported: silent


class TestStageTimes:
    def test_merge(self):
        a = engine.StageTimes(functional_sim=1.0, replay=2.0, cells=1)
        a.merge(engine.StageTimes(functional_sim=0.5, cache_io=0.25,
                                  cells=2, cache_hits=3))
        assert a.functional_sim == 1.5
        assert a.cache_io == 0.25
        assert a.cells == 3
        assert a.cache_hits == 3
        assert a.total == 1.5 + 0.25 + 2.0

    def test_render_mentions_cache_state(self, tmp_path):
        trace_cache.configure(tmp_path)
        text = engine.StageTimes(cells=2).render()
        assert str(tmp_path) in text
        trace_cache.configure(None)
        assert "off" in engine.StageTimes().render()


class TestTraceFor:
    """Trace acquisition through the one accessor, ``open_trace``."""

    def test_columnar_conversion_attributed_to_cache_io(self, monkeypatch):
        """Stage attribution: converting a records-backed trace to its
        columnar view inside ``open_trace`` is charged to the
        trace-cache I/O stage, not to functional simulation (or, later,
        replay)."""
        import time as time_module

        from repro.trace.columns import ColumnarTrace
        from repro.trace.records import OC_IALU, Trace, TraceRecord

        records = [TraceRecord(0x400000, OC_IALU, dst=3, value=1)] * 4

        def stub_run(name, scale):
            return Trace(name, list(records))
        stub_run.cache_clear = lambda: None  # clear_caches() compatibility
        stub_run.evict = lambda name, scale: False   # open_trace's exit
        monkeypatch.setattr(suite, "run", stub_run)
        original = ColumnarTrace.from_records.__func__
        delay = 0.05

        def slow_from_records(cls, recs):
            time_module.sleep(delay)
            return original(cls, recs)

        monkeypatch.setattr(ColumnarTrace, "from_records",
                            classmethod(slow_from_records))
        with engine.open_trace("stub", 1.0) as trace:
            pass
        times = engine.stage_times()
        assert trace.has_columns
        assert times.cache_io >= delay
        # The conversion must not inflate the simulation stage.
        assert times.functional_sim < delay

    def test_column_backed_trace_costs_no_cache_io(self, monkeypatch):
        from repro.trace.columns import ColumnarTrace
        from repro.trace.records import Trace

        def stub_run(name, scale):
            return Trace(name, columns=ColumnarTrace.empty())
        stub_run.cache_clear = lambda: None  # clear_caches() compatibility
        stub_run.evict = lambda name, scale: False   # open_trace's exit
        monkeypatch.setattr(suite, "run", stub_run)
        with engine.open_trace("stub", 1.0):
            pass
        assert engine.stage_times().cache_io == 0.0

    def test_warm_cache_skips_functional_sim(self, tmp_path):
        trace_cache.configure(tmp_path)
        with engine.open_trace(NAMES[0], SCALE):
            pass                       # exit evicts: next call hits disk
        engine.reset_stage_times()
        with engine.open_trace(NAMES[0], SCALE) as trace:
            pass
        times = engine.stage_times()
        assert times.functional_sim == 0.0
        assert times.cache_hits == 1
        assert times.cache_io > 0.0
        assert len(trace) > 0


@pytest.mark.slow
class TestEquivalence:
    def test_cache_cold_warm_disabled_identical(self, tmp_path):
        disabled = figure4(SCALE, NAMES).render()
        trace_cache.configure(tmp_path)
        cold = figure4(SCALE, NAMES).render()
        assert trace_cache.active_cache().stats.misses == len(NAMES)
        engine.reset_stage_times()
        warm = figure4(SCALE, NAMES).render()
        assert cold == disabled
        assert warm == disabled
        # The warm pass never ran the functional simulator.
        times = engine.stage_times()
        assert times.functional_sim == 0.0
        assert times.cache_hits == len(NAMES)

    def test_jobs_levels_identical(self, tmp_path):
        trace_cache.configure(tmp_path)
        serial = figure4(SCALE, NAMES, jobs=1).render()
        parallel = figure4(SCALE, NAMES, jobs=4).render()
        assert parallel == serial


class TestCellNotes:
    def test_verbose_report_aligns_per_cell_lines(self):
        engine._note_cell("db_vortex", hits=2, misses=1)
        engine._note_cell("go_ai", replays=1)
        engine._note_cell("db_vortex", replays=1)
        report = engine.render_stage_report()
        lines = [line for line in report.splitlines()
                 if "cache" in line and "replays" in line]
        # One aligned line per cell, in submission order, accumulating
        # across repeated notes for the same cell.
        assert lines == [
            "  db_vortex  cache 2 hit / 1 miss  replays 1",
            "  go_ai      cache 0 hit / 0 miss  replays 1",
        ]

    def test_reset_clears_cell_notes(self):
        engine._note_cell("db_vortex", hits=1)
        engine.reset_stage_times()
        assert "per-cell:" not in engine.render_stage_report()
