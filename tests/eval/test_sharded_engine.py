"""End-to-end (cell x shard) fan-out vs. monolithic experiment runs.

Runs real experiment drivers through the engine twice - sharding off,
and sharding on at awkward shard sizes / jobs levels - against
separate temp trace caches, and asserts the *user-visible contract*:
rendered tables, per-cell metric snapshots, and exported metric
documents are byte-identical.  Also covers the engine's one trace
accessor (``engine.open_trace``: sharded handles with manifest-derived
cpu.* metrics, in-RAM traces when sharding is off), the fan-out's
stage report, and the streaming CLI cells.
"""

import pytest

from repro import metrics
from repro.api import session as api_session
from repro.eval import engine, experiments
from repro.metrics import export
from repro.trace import cache as trace_cache
from repro.trace import shards
from repro.workloads import suite

#: Two real workloads kept cheap (~33k instructions each at this scale).
NAMES = ("db_vortex", "ccomp")
SCALE = 0.02

DRIVERS = (experiments.table1, experiments.figure2,
           experiments.table2, experiments.figure4)


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    trace_cache.configure(None)
    shards.set_shard_rows(None)
    engine.take_metrics()
    metrics.disable()
    suite.clear_caches()


def _run_drivers(cache_dir, shard_rows, jobs):
    """Tables + collected per-cell metrics for every driver."""
    trace_cache.configure(cache_dir)
    shards.set_shard_rows(shard_rows)
    engine.reset_stage_times()
    out = {}
    metrics.enable()
    try:
        for driver in DRIVERS:
            result = driver(scale=SCALE, names=NAMES, jobs=jobs)
            out[driver.__name__] = (result.headers, result.rows,
                                    result.metrics)
    finally:
        metrics.disable()
        trace_cache.configure(None)
        shards.set_shard_rows(None)
        suite.clear_caches()
    return out


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return _run_drivers(tmp_path_factory.mktemp("mono"), None, 1)


class TestShardedExperimentIdentity:
    @pytest.mark.parametrize("shard_rows,jobs",
                             ((1000, 1), (1000, 2), (7777, 2)))
    def test_tables_and_metrics_identical(self, baseline,
                                          tmp_path_factory,
                                          shard_rows, jobs):
        got = _run_drivers(tmp_path_factory.mktemp("shard"),
                           shard_rows, jobs)
        for driver in baseline:
            base_headers, base_rows, base_cells = baseline[driver]
            headers, rows, cells = got[driver]
            assert headers == base_headers, driver
            assert rows == base_rows, driver
            assert list(cells) == list(base_cells), driver
            for cell in base_cells:
                assert cells[cell] == base_cells[cell], \
                    f"{driver}/{cell}"

    def test_export_documents_identical(self, baseline,
                                        tmp_path_factory):
        got = _run_drivers(tmp_path_factory.mktemp("shardx"), 2048, 2)
        for driver in baseline:
            base_doc = export.experiment_document(
                driver, SCALE, baseline[driver][2])
            doc = export.experiment_document(
                driver, SCALE, got[driver][2])
            assert doc["cells"] == base_doc["cells"], driver
            assert doc["totals"] == base_doc["totals"], driver


class TestShardedTraceHandle:
    def test_handle_is_sharded_and_metrics_match_manifest(
            self, tmp_path):
        trace_cache.configure(tmp_path)
        shards.set_shard_rows(500)
        registry = metrics.enable()
        try:
            with engine.open_trace(NAMES[0], SCALE) as handle:
                assert isinstance(handle, shards.ShardedTrace)
                assert handle.num_shards > 1
            snapshot = registry.snapshot()
        finally:
            metrics.disable()
        assert snapshot["cpu.instructions"]["value"] == len(handle)
        assert snapshot["cpu.loads"]["value"] == handle.load_count
        assert snapshot["cpu.region.stack"]["value"] \
            == handle.counts()["region_stack"]

    def test_handle_falls_back_to_trace_when_sharding_off(
            self, tmp_path):
        trace_cache.configure(tmp_path)
        shards.set_shard_rows(0)
        with engine.open_trace(NAMES[0], SCALE) as handle:
            assert not isinstance(handle, shards.ShardedTrace)
            assert handle.materialize() is handle

    def test_handle_materializes_under_sharding(self, tmp_path):
        # Timing/LVC cells need real in-RAM traces even when sharding
        # is on; the handle materialises them on request.
        trace_cache.configure(tmp_path)
        shards.set_shard_rows(500)
        with engine.open_trace(NAMES[0], SCALE) as handle:
            assert isinstance(handle, shards.ShardedTrace)
            trace = handle.materialize()
        assert not isinstance(trace, shards.ShardedTrace)
        assert trace.has_columns and len(trace) == len(handle)

    def test_exit_evicts_only_its_own_entry(self):
        shards.set_shard_rows(0)
        suite.run(NAMES[1], SCALE)
        with engine.open_trace(NAMES[0], SCALE):
            pass
        assert not suite.evict(NAMES[0], SCALE)
        assert suite.evict(NAMES[1], SCALE)


class TestStreamingCliCells:
    @pytest.mark.parametrize("shard_rows", (400, 5000))
    def test_regions_and_predict_lines_identical(self, tmp_path,
                                                 shard_rows):
        name = NAMES[0]
        trace_cache.configure(tmp_path)
        shards.set_shard_rows(0)
        plain_regions = api_session.regions_cell(name, SCALE)
        plain_predict = api_session.predict_cell(
            name, SCALE, api_session.DEFAULT_SCHEME)
        shards.set_shard_rows(shard_rows)
        assert api_session.regions_cell(name, SCALE) == plain_regions
        assert api_session.predict_cell(
            name, SCALE, api_session.DEFAULT_SCHEME) == plain_predict


def _count_partial(name, scale, chunk, index):
    return index, len(chunk)


def _count_fold(name, scale, partials):
    return name, partials


class TestFanOutResilience:
    def test_run_cells_sharded_folds_without_fanout(self, tmp_path):
        # Without sharding, or without a disk cache for the workers to
        # read shards from, each workload is one cell folding the same
        # (partial, fold) pair over its handle's chunks in order.
        for shard_rows, cache in ((0, tmp_path), (500, None)):
            trace_cache.configure(cache)
            shards.set_shard_rows(shard_rows)
            engine.reset_stage_times()
            results = engine.run_cells_sharded(
                _count_partial, _count_fold, NAMES, SCALE, jobs=1)
            assert engine.stage_times().cells == len(NAMES)
            for (name, partials), expected in zip(results, NAMES):
                assert name == expected
                assert [index for index, _ in partials] \
                    == list(range(len(partials)))
                if shard_rows:
                    assert len(partials) > 1
                    assert all(rows <= shard_rows
                               for _, rows in partials)
                else:
                    assert len(partials) == 1

    def test_shard_counters_reported_in_resilience(self, tmp_path):
        trace_cache.configure(tmp_path)
        shards.set_shard_rows(1000)
        experiments.figure2(scale=SCALE, names=(NAMES[0],), jobs=1)
        snap = engine.resilience_snapshot()
        assert snap["trace.shards.produced"] > 0
        assert snap["trace.shards.loaded"] > 0
        assert snap["trace.shards.corrupt"] == 0
        assert "trace.cache.evictions" in snap


def _stage_report(cache_dir, shard_rows):
    """Warm-cache figure2 stage report: (title line, per-cell lines)."""
    trace_cache.configure(cache_dir)
    shards.set_shard_rows(shard_rows)
    experiments.figure2(scale=SCALE, names=NAMES, jobs=1)   # warm up
    engine.reset_stage_times()
    engine.reset_fault_stats()
    experiments.figure2(scale=SCALE, names=NAMES, jobs=1)
    lines = engine.render_stage_report().splitlines()
    per_cell = lines[lines.index("per-cell:") + 1:]
    per_cell = [line for line in per_cell
                if not line.startswith("resilience:")]
    return lines[0], per_cell


class TestFanOutStageReport:
    def test_sharded_report_matches_unsharded(self, tmp_path):
        # The shard and combine cells are parts of their workload's
        # cell: they must not add cells or count their manifest opens
        # as trace-cache hits.
        title, per_cell = _stage_report(tmp_path, 0)
        sharded_title, sharded_per_cell = _stage_report(tmp_path, 1000)
        assert f"{len(NAMES)} cells" in title
        assert f"({len(NAMES)} hits / 0 misses)" in title
        assert sharded_title == title
        assert sharded_per_cell == per_cell
        assert len(per_cell) == len(NAMES)
