"""Chaos suite: experiments survive injected faults with identical output.

The load-bearing guarantee - worker crashes, cell failures, stalled
cells, and corrupted cache entries may cost retries and rebuilds, but
they must never change a rendered table or an exported metric.  Every
drill compares a recovered run byte-for-byte against an undisturbed
fault-free serial run (the ``resilience`` export section, which by
design reports what *this* run survived, is excluded).
"""

import json

import pytest

from repro import config, metrics
from repro.cli import main
from repro.eval import engine, figure4
from repro.eval.faults import RetryPolicy
from repro.metrics import export
from repro.testing import faults as fi
from repro.trace import cache as trace_cache
from repro.workloads import suite

SCALE = 0.2
NAMES = ("db_vortex", "go_ai")


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)
    monkeypatch.delenv(trace_cache.ENV_VAR, raising=False)
    engine.reset_fault_stats()
    engine.take_metrics()
    yield
    metrics.disable()
    engine.reset_fault_stats()
    engine.take_metrics()
    suite.clear_caches()


def _figure4_run(jobs, spec=None):
    """One metered figure4 run; returns (render, export-json, snap)."""
    suite.clear_caches()
    engine.reset_fault_stats()
    metrics.enable()
    try:
        with config.override(inject_fault=spec):
            result = figure4(SCALE, NAMES, jobs=jobs)
    finally:
        metrics.disable()
    document = export.experiment_document(
        "figure4", SCALE, result.metrics,
        resilience=engine.resilience_snapshot())
    snap = document.pop("resilience")
    return result.render(), export.to_json(document), snap


class TestCrashChaos:
    def test_crash_and_failure_recovery_byte_identical(self):
        baseline_render, baseline_json, baseline_snap = \
            _figure4_run(jobs=1)
        assert not any(baseline_snap.values())

        with config.override(
                retry=RetryPolicy(max_retries=2, backoff_base=0.0)):
            render, doc, snap = _figure4_run(
                jobs=4, spec="crash:index=1;fail:index=0")
            assert render == baseline_render
            assert doc == baseline_json
            assert snap["engine.pool_rebuilds"] >= 1
            assert snap["engine.retries"] >= 1

    @pytest.mark.slow
    def test_timeout_recovery_byte_identical(self):
        baseline_render, baseline_json, _ = _figure4_run(jobs=1)

        with config.override(
                retry=RetryPolicy(max_retries=2, backoff_base=0.0,
                                  cell_timeout=30.0)):
            render, doc, snap = _figure4_run(
                jobs=4, spec="stall:index=0,seconds=300")
            assert render == baseline_render
            assert doc == baseline_json
            assert snap["engine.timeouts"] == 1


class TestCacheChaos:
    def test_corrupt_cache_entry_regenerated_mid_run(self, tmp_path):
        """A bit-rotten archive is quarantined and re-simulated inside
        the run; tables match and the corruption is counted."""
        with config.override(trace_cache=tmp_path):
            baseline_render, _, _ = _figure4_run(jobs=1)   # warms the cache
            # Corrupt the entry of the cell that will also lose its worker:
            # the crash fires at cell start (before the fetch), so the
            # retry attempt is the one that detects and repairs the rot.
            (entry,) = tmp_path.glob("go_ai__*.npz")
            fi.corrupt_file(entry, "garbage", seed=5)

            with config.override(
                    retry=RetryPolicy(max_retries=2, backoff_base=0.0)):
                render, _, snap = _figure4_run(jobs=4, spec="crash:index=1")
                assert render == baseline_render
                assert snap["trace.cache.corrupt"] == 1
                assert snap["engine.pool_rebuilds"] >= 1
                quarantined = list(tmp_path.glob("go_ai__*.npz.quarantined"))
                assert len(quarantined) == 1
                # The regenerated archive is intact: a fresh run loads it warm.
                clean_render, _, clean_snap = _figure4_run(jobs=1)
                assert clean_render == baseline_render
                assert clean_snap["trace.cache.corrupt"] == 0


class TestCliChaos:
    def test_experiment_figure4_jobs4_drill(self, tmp_path, capsys):
        """The acceptance drill: ``repro experiment figure4 --jobs 4``
        under injected faults matches a fault-free serial run."""
        serial = tmp_path / "serial.json"
        chaos = tmp_path / "chaos.json"
        base = ["experiment", "figure4", "--scale", str(SCALE),
                "db_vortex", "go_ai", "--metrics-out"]
        assert main(base + [str(serial), "--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        suite.clear_caches()
        assert main(base + [str(chaos), "--jobs", "4", "--inject-fault",
                            "crash:index=0;fail:index=1"]) == 0
        chaos_out = capsys.readouterr().out
        assert chaos_out == serial_out

        serial_doc = json.loads(serial.read_text())
        chaos_doc = json.loads(chaos.read_text())
        assert set(serial_doc.pop("resilience").values()) == {0}
        resilience = chaos_doc.pop("resilience")
        assert serial_doc == chaos_doc
        assert resilience["engine.pool_rebuilds"] >= 1
        assert resilience["engine.retries"] >= 1
