"""Tests for the experiment execution engine (fan-out + stage report).

The load-bearing property is equivalence: every experiment table must be
byte-identical whether the trace cache is disabled, cold, or warm, and
at any ``--jobs`` level.
"""

import pytest

from repro import config
from repro.cli import main
from repro.eval import engine, figure4
from repro.obs import manifest as run_manifest
from repro.obs import profile as obs_profile
from repro.obs import spans
from repro.trace import cache as trace_cache
from repro.workloads import suite

SCALE = 0.2
NAMES = ("db_vortex", "go_ai")


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(trace_cache.ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    yield
    suite.clear_caches()


def _journal(directory, fn, *args, **kwargs):
    """Run ``fn`` with spans journalled into ``directory``; the run."""
    spans.enable(directory)
    try:
        fn(*args, **kwargs)
    finally:
        spans.disable()
    return obs_profile.load_run(directory)


def _named(run, name):
    return [span for span in run.spans if span["name"] == name]


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

    def test_cell_count_accumulates(self, tmp_path):
        run = _journal(tmp_path, engine.run_cells, _cell, ("x", "y"),
                       1.0, jobs=1)
        assert len(_named(run, "cell")) == 2
        report = obs_profile.render_stage_report(run)
        assert report.startswith("Stage timing: 2 cells")


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


class TestStageReport:
    def test_render_mentions_cache_state(self, tmp_path):
        # The cache directory comes from the manifest's resolved config.
        for cache in (tmp_path / "cache", None):
            with config.override(trace_cache=cache):
                run_manifest.write_manifest(
                    tmp_path, run_manifest.build_manifest("r", "figure2"))
            run = obs_profile.RunProfile(
                source=tmp_path,
                manifest=run_manifest.load_manifest(tmp_path))
            header = obs_profile.render_stage_report(run).splitlines()[0]
            assert f"trace cache {cache or 'off'} " in header


class TestTraceFor:
    """Trace acquisition through the one accessor, ``open_trace``."""

    def test_column_backed_trace_costs_no_cache_io(self, monkeypatch,
                                                   tmp_path):
        from repro.trace.columns import ColumnarTrace
        from repro.trace.records import Trace

        def stub_run(name, scale):
            return Trace(name, columns=ColumnarTrace.empty())
        stub_run.cache_clear = lambda: None  # clear_caches() compatibility
        stub_run.evict = lambda name, scale: False   # open_trace's exit
        monkeypatch.setattr(suite, "run", stub_run)

        def fetch():
            with engine.open_trace("stub", 1.0):
                pass
        run = _journal(tmp_path, fetch)
        assert {span["name"] for span in run.spans} == {"trace:fetch"}
        assert _named(run, "trace:fetch")[0]["attrs"]["cache"] == "off"

    def test_warm_cache_skips_functional_sim(self, tmp_path):
        traces = []

        def fetch():
            with engine.open_trace(NAMES[0], SCALE) as trace:
                traces.append(trace)
        with config.override(trace_cache=tmp_path / "cache"):
            cold = _journal(tmp_path / "cold", fetch)
            warm = _journal(tmp_path / "warm", fetch)
        assert [span["attrs"]["cache"]
                for span in _named(cold, "trace:fetch")] == ["miss"]
        assert len(_named(cold, "trace:produce")) == 1
        # Exit evicted the memo, so the warm fetch read the archive.
        assert [span["attrs"]["cache"]
                for span in _named(warm, "trace:fetch")] == ["hit"]
        assert not _named(warm, "trace:produce")
        assert len(traces[1]) > 0


@pytest.mark.slow
class TestEquivalence:
    def test_cache_cold_warm_disabled_identical(self, tmp_path):
        disabled = figure4(SCALE, NAMES).render()
        with config.override(trace_cache=tmp_path):
            cold = figure4(SCALE, NAMES).render()
            stats = trace_cache.active_cache().stats
            assert stats.misses == len(NAMES)
            warm = figure4(SCALE, NAMES).render()
            # The warm pass never ran the functional simulator.
            assert stats.misses == len(NAMES)
            assert stats.hits == len(NAMES)
        assert cold == disabled
        assert warm == disabled

    def test_jobs_levels_identical(self, tmp_path):
        with config.override(trace_cache=tmp_path):
            serial = figure4(SCALE, NAMES, jobs=1).render()
            parallel = figure4(SCALE, NAMES, jobs=4).render()
        assert parallel == serial


def _span(name, span_id, parent, start, **attrs):
    return {"name": name, "id": span_id, "parent": parent, "pid": 1,
            "tid": 1, "start": start, "dur": 0.5, "attrs": attrs}


class TestCellNotes:
    def test_verbose_report_aligns_per_cell_lines(self, tmp_path):
        # A sharded run's journal: a produce pass, then shard cells
        # (``name#i``) finishing out of order, then a replayed cell.
        journal = [
            _span("engine:run_cells", "r1", None, 1.0),
            _span("cell", "c1", "r1", 1.2, workload="db_vortex",
                  index=0),
            _span("trace:fetch", "f1", "c1", 1.3, workload="db_vortex",
                  cache="corrupt"),
            _span("cell", "c2", "r1", 1.1, workload="go_ai", index=1),
            _span("trace:fetch", "f2", "c2", 1.2, workload="go_ai",
                  cache="hit"),
            _span("engine:run_cells", "r2", None, 2.0),
            _span("cell", "c3", "r2", 2.1, workload="go_ai#0", index=2),
            _span("cell", "c4", "r2", 2.2, workload="db_vortex#0",
                  index=0, error="InjectedFault"),
            _span("checkpoint:replay", "p1", "r2", 2.3,
                  workload="db_vortex#1", index=1, hit=True),
        ]
        run = obs_profile.RunProfile(source=tmp_path, spans=journal)
        report = obs_profile.render_stage_report(run).splitlines()
        assert report[0] == ("Stage timing: 2 cells, trace cache off "
                             "(1 hits / 1 misses, 1 corrupt)")
        # One aligned line per workload in submission order (not start
        # order), folding shard cells and replays into it.
        assert report[report.index("per-cell:") + 1:] == [
            "  db_vortex  cache 0 hit / 1 miss  replays 1",
            "  go_ai      cache 1 hit / 0 miss  replays 0",
        ]

    def test_reset_clears_cell_notes(self, tmp_path, capsys):
        # Two --verbose runs journal into one directory; the second
        # report counts only its own cells.
        argv = ["table1", "--scale", "0.02", "--trace-spans",
                str(tmp_path), "--verbose"]
        assert main(argv + ["db_vortex", "go_ai"]) == 0
        assert "Stage timing: 2 cells" in capsys.readouterr().err
        assert main(argv + ["db_vortex"]) == 0
        report = capsys.readouterr().err
        assert "Stage timing: 1 cells" in report
        assert "go_ai" not in report
