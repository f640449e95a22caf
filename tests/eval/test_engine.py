"""Tests for the experiment execution engine (fan-out + stage timing).

The load-bearing property is equivalence: every experiment table must be
byte-identical whether the trace cache is disabled, cold, or warm, and
at any ``--jobs`` level.
"""

import pytest

from repro import config
from repro.eval import engine, figure4
from repro.trace import cache as trace_cache
from repro.workloads import suite

SCALE = 0.2
NAMES = ("db_vortex", "go_ai")


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(trace_cache.ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    engine.reset_stage_times()
    yield
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
        assert config.active().jobs == 1

    def test_set_jobs(self):
        with config.override(jobs=4):
            assert config.active().jobs == 4

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert config.active().jobs == 3

    def test_bad_env_var_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.warns(RuntimeWarning):
            assert config.active().jobs == 1

    def test_bad_env_var_warns_naming_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS='lots'"):
            assert config.active().jobs == 1

    def test_nonpositive_env_var_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.warns(RuntimeWarning, match="'-2'"):
            assert config.active().jobs == 1

    def test_bad_env_var_warns_once_per_value(self, monkeypatch):
        import warnings as warnings_module
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.warns(RuntimeWarning):
            config.active()
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            # Parsed once per process: later reads are silent.
            assert config.active().jobs == 1
            assert engine.run_cells(_cell, ("x",), 1.0) == ["x@1"]


#: Runs under the ``spawn`` start method: the parent turns the trace
#: cache off while ``REPRO_TRACE_CACHE`` names a directory, and each
#: pool worker reports the cache it sees.
_SPAWN_SCRIPT = """
import json
import multiprocessing
import os
import sys

from repro.eval import engine
from repro.trace import cache as trace_cache


def cache_cell(name, scale):
    cache = trace_cache.active_cache()
    return None if cache is None else str(cache.directory)


if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    os.environ["REPRO_TRACE_CACHE"] = sys.argv[1]
    trace_cache.configure(None)
    print(json.dumps(engine.run_cells(cache_cell, ["a", "b"], 1.0,
                                      jobs=2)))
"""


class TestWorkerConfig:
    def test_spawn_workers_inherit_parent_config(self, tmp_path):
        """Pool workers see the parent's configuration, not their own
        environment, under the ``spawn`` start method."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = tmp_path / "spawn_leak.py"
        script.write_text(_SPAWN_SCRIPT)
        src = Path(__file__).resolve().parents[2] / "src"
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(src), env.get("PYTHONPATH"))))
        completed = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "env-cache")],
            env=env, capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == [None, None]


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
        with config.override(trace_cache=tmp_path):
            text = engine.StageTimes(cells=2).render()
        assert str(tmp_path) in text
        with config.override(trace_cache=None):
            assert "off" in engine.StageTimes().render()


class TestTraceFor:
    """Trace acquisition through the one accessor, ``open_trace``."""

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
        with config.override(trace_cache=tmp_path):
            with engine.open_trace(NAMES[0], SCALE):
                pass                   # exit evicts: next call hits disk
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
        with config.override(trace_cache=tmp_path):
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
        with config.override(trace_cache=tmp_path):
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
