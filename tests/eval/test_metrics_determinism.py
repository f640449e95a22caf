"""Metrics collection through the experiment engine.

Covers the ISSUE-2 guarantees: per-cell metric exports are
byte-identical at every ``--jobs`` level, the disabled registry keeps
driver results metric-free at near-zero cost, and every driver returns
the uniform :class:`ExperimentResult`.
"""

import time
import warnings

import pytest

from repro import metrics
from repro.eval import ExperimentResult, engine
from repro.eval.experiments import figure4, figure8, table1, table2
from repro.metrics import export
from repro.workloads import suite

SCALE = 0.2
NAMES = ("db_vortex", "go_ai")


@pytest.fixture(autouse=True)
def _clean():
    engine.take_metrics()
    yield
    metrics.disable()
    engine.take_metrics()
    suite.clear_caches()


def _figure4_export(jobs):
    metrics.enable()
    try:
        result = figure4(SCALE, NAMES, jobs=jobs)
    finally:
        metrics.disable()
    document = export.experiment_document("figure4", SCALE,
                                          result.metrics)
    return export.to_json(document)


class TestDeterminism:
    def test_jobs_1_and_2_byte_identical(self):
        assert _figure4_export(jobs=1) == _figure4_export(jobs=2)

    @pytest.mark.slow
    def test_jobs_4_byte_identical(self):
        assert _figure4_export(jobs=1) == _figure4_export(jobs=4)


class TestCollection:
    def test_cells_keyed_by_workload(self):
        metrics.enable()
        try:
            result = figure4(SCALE, NAMES, jobs=1)
        finally:
            metrics.disable()
        assert list(result.metrics) == list(NAMES)
        for snapshot in result.metrics.values():
            assert snapshot["cpu.instructions"]["value"] > 0
            assert "predictor.1bit-hybrid.references" in snapshot

    def test_figure8_builds_no_records(self):
        """The timing machine reads the columnar view: a Figure 8 cell
        materialises no TraceRecord objects."""
        metrics.enable()
        try:
            result = figure8(0.05, ("ccomp",), jobs=1)
        finally:
            metrics.disable()
        snapshot = result.metrics["ccomp"]
        assert snapshot["timing.(2+0).cycles"]["value"] > 0
        assert "trace.columnar.materializations" not in snapshot

    def test_table2_publishes_window_timeseries(self):
        metrics.enable()
        try:
            result = table2(SCALE, ("db_vortex",), jobs=1)
        finally:
            metrics.disable()
        snapshot = result.metrics["db_vortex"]
        entry = snapshot["trace.window32.stack"]
        assert entry["kind"] == "timeseries"
        assert entry["interval"] == 32
        assert entry["count"] > 0
        # The exact moments reproduce the rendered Table-2 mean.
        w32 = result.data.stats[0][0]
        assert entry["sum"] / entry["count"] \
            == pytest.approx(w32.stack.mean)

    def test_disabled_run_collects_nothing(self):
        assert not metrics.active().enabled
        result = figure4(SCALE, ("db_vortex",), jobs=1)
        assert result.metrics == {}
        assert engine.take_metrics() == {}

    def test_metric_totals_merges_cells(self):
        metrics.enable()
        try:
            result = table1(SCALE, NAMES, jobs=1)
        finally:
            metrics.disable()
        totals = result.metric_totals()
        per_cell = sum(s["cpu.instructions"]["value"]
                       for s in result.metrics.values())
        assert totals["cpu.instructions"]["value"] == per_cell


class TestExperimentResult:
    def test_all_drivers_return_experiment_result(self):
        result = table1(SCALE, ("db_vortex",), jobs=1)
        assert isinstance(result, ExperimentResult)
        assert result.experiment == "table1"
        assert result.headers[0] == "Benchmark"
        assert result.rows[0][0] == "db_vortex"
        assert result.data is not None

    def test_render_matches_payload_render(self):
        result = table1(SCALE, ("db_vortex",), jobs=1)
        assert result.render() == result.data.render()

    def test_payload_reached_only_through_data(self):
        """The PR 2 legacy-forwarding shim is retired: payload
        attributes are reached explicitly via ``.data``, and misses
        raise ``AttributeError`` without any deprecation detour."""
        result = table1(SCALE, ("db_vortex",), jobs=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert result.data.rows is result.data.rows
            with pytest.raises(AttributeError):
                result.table       # only .data.table() exists now
            with pytest.raises(AttributeError):
                result.no_such_attribute
        assert not caught

    def test_unknown_attribute_still_raises(self):
        result = table1(SCALE, ("db_vortex",), jobs=1)
        with pytest.raises(AttributeError):
            result.no_such_attribute


@pytest.mark.slow
class TestDisabledOverhead:
    def test_disabled_not_slower_than_enabled(self):
        """The null-registry fast path must cost (at most) noise.

        An enabled run does strictly more work than a disabled one, so
        a disabled run markedly slower than an enabled run would mean
        the fast path is broken.  Enabled and disabled repetitions are
        interleaved (ABAB...) so host-speed drift over the test hits both
        sides alike, and each side keeps its fastest of 5 to damp
        scheduler noise (cells are short since the columnar backbone, so
        relative jitter is larger); the bound is deliberately loose - the
        structural guarantees live in tests/metrics/test_registry.py.
        """
        def timed(enabled):
            suite.clear_caches()
            if enabled:
                metrics.enable()
            started = time.perf_counter()
            figure4(0.1, ("db_vortex",), jobs=1)
            elapsed = time.perf_counter() - started
            metrics.disable()
            engine.take_metrics()
            return elapsed

        timed(enabled=False)           # warm code paths and imports
        best = {True: float("inf"), False: float("inf")}
        for _ in range(5):
            for enabled in (True, False):
                best[enabled] = min(best[enabled], timed(enabled))
        enabled, disabled = best[True], best[False]
        assert disabled <= enabled * 1.25
