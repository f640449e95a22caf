"""Tests for the span tracer (nesting, disabled mode, worker merge)."""

import json
import os

import pytest

from repro import metrics
from repro.obs import spans


@pytest.fixture(autouse=True)
def _disabled_after():
    yield
    spans.disable()
    metrics.disable()


def _journal(directory):
    path = directory / spans.JOURNAL
    return [json.loads(line)
            for line in path.read_text().splitlines() if line.strip()]


class TestDisabled:
    def test_span_returns_shared_null_singleton(self):
        assert spans.active() is None
        assert spans.span("a") is spans.span("b")
        assert spans.span("a") is spans.NULL_SPAN

    def test_null_span_is_inert(self, tmp_path):
        with spans.span("anything", workload="w") as sp:
            sp.set("key", "value")
        assert list(tmp_path.iterdir()) == []

    def test_traced_decorator_passthrough(self):
        @spans.traced("work")
        def add(a, b):
            "doc"
            return a + b

        assert add(2, 3) == 5
        assert add.__name__ == "add"
        assert add.__doc__ == "doc"


class TestNesting:
    def test_parent_child_ids_nest(self, tmp_path):
        spans.enable(tmp_path, run_id="r1")
        with spans.span("outer") as outer:
            with spans.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with spans.span("sibling") as sibling:
                pass
        spans.disable()

        entries = {e["name"]: e for e in _journal(tmp_path)}
        assert set(entries) == {"outer", "inner", "sibling"}
        assert entries["outer"]["parent"] is None
        assert entries["inner"]["parent"] == entries["outer"]["id"]
        assert entries["sibling"]["parent"] == entries["outer"]["id"]
        # Children close before the parent, so they journal first.
        names = [e["name"] for e in _journal(tmp_path)]
        assert names.index("inner") < names.index("outer")

    def test_ids_embed_pid_and_are_unique(self, tmp_path):
        tracer = spans.enable(tmp_path)
        first, second = tracer.next_id(), tracer.next_id()
        assert first != second
        assert first.startswith(f"{os.getpid():x}.")
        spans.disable()

    def test_attrs_and_error_recorded(self, tmp_path):
        spans.enable(tmp_path)
        with pytest.raises(ValueError):
            with spans.span("boom", workload="w") as sp:
                sp.set("attempt", 2)
                raise ValueError("no")
        spans.disable()
        (entry,) = _journal(tmp_path)
        assert entry["attrs"]["workload"] == "w"
        assert entry["attrs"]["attempt"] == 2
        assert entry["attrs"]["error"] == "ValueError"
        assert entry["dur"] >= 0.0

    def test_capture_metrics_records_counter_delta(self, tmp_path):
        metrics.enable()
        metrics.active().counter("cache.hits").inc(3)
        spans.enable(tmp_path)
        with spans.span("cell", capture_metrics=True):
            metrics.active().counter("cache.hits").inc(2)
            metrics.active().counter("cache.misses").inc(1)
        spans.disable()
        (entry,) = _journal(tmp_path)
        # Only what changed inside the span, as a delta.
        assert entry["attrs"]["metrics"] == {"cache.hits": 2,
                                             "cache.misses": 1}


class TestWorkerMerge:
    def test_worker_journal_merges_under_parent(self, tmp_path):
        tracer = spans.enable(tmp_path, run_id="run")
        with spans.span("engine:run_cells") as engine_span:
            state = spans.worker_state()
            assert state == (str(tmp_path), "run", engine_span.span_id,
                             None, None)
            # Simulate a pool worker: its own journal file, top-level
            # spans parented to the engine span that spawned it.
            worker = spans.SpanTracer(
                tmp_path, "run", journal_name=f"{spans.WORKER_PREFIX}"
                f"999.jsonl", default_parent=engine_span.span_id)
            cell = spans.Span(worker, "cell", {"workload": "w"})
            with cell:
                pass
            worker.close()
        assert (tmp_path / f"{spans.WORKER_PREFIX}999.jsonl").exists()
        spans.disable()          # parent merges worker journals

        assert not list(tmp_path.glob(spans.WORKER_PREFIX + "*.jsonl"))
        entries = {e["name"]: e for e in _journal(tmp_path)}
        assert entries["cell"]["parent"] \
            == entries["engine:run_cells"]["id"]
        assert tracer.pid == entries["engine:run_cells"]["pid"]

    def test_merge_drops_malformed_lines(self, tmp_path):
        spans.enable(tmp_path)
        broken = tmp_path / f"{spans.WORKER_PREFIX}7.jsonl"
        broken.write_text('{"name": "ok", "id": "7.1", "parent": null,'
                          ' "pid": 7, "tid": 1, "start": 1.0,'
                          ' "dur": 0.5, "attrs": {}}\n'
                          '{"truncated...\n')
        merged = spans.active().merge_worker_journals()
        spans.disable()
        assert merged == 1
        assert not broken.exists()

    def test_worker_state_none_when_disabled(self):
        assert spans.worker_state() is None


class TestRotation:
    def test_journal_rotates_at_size_bound(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPAN_MAX_BYTES", "2000")
        tracer = spans.enable(tmp_path)
        for index in range(60):
            with spans.span("work", index=index):
                pass
        spans.disable()
        main = tmp_path / spans.JOURNAL
        rotated = main.with_name(main.name + spans.ROTATED_SUFFIX)
        assert rotated.exists(), "overflow should rotate a segment aside"
        assert main.stat().st_size <= 2000 + 400   # one span of slack
        assert rotated.stat().st_size <= 2000 + 400
        # The newest spans survive in the live segment.
        newest = json.loads(main.read_text().splitlines()[-1])
        assert newest["attrs"]["index"] == 59
        assert tracer.max_bytes == 2000

    def test_unset_bound_never_rotates(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SPAN_MAX_BYTES", raising=False)
        spans.enable(tmp_path)
        for _ in range(50):
            with spans.span("work"):
                pass
        spans.disable()
        main = tmp_path / spans.JOURNAL
        assert not main.with_name(main.name
                                  + spans.ROTATED_SUFFIX).exists()

    def test_invalid_bound_treated_as_unbounded(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_SPAN_MAX_BYTES", "not-a-number")
        with pytest.warns(RuntimeWarning, match="REPRO_SPAN_MAX_BYTES"):
            tracer = spans.enable(tmp_path)
        spans.disable()
        assert tracer.max_bytes == 0


class TestShardSpanSampling:
    def test_sample_every_nth_shard_span(self, tmp_path, monkeypatch):
        from repro.trace import shards
        from repro.trace.records import OC_IALU, Trace, TraceRecord
        monkeypatch.setenv("REPRO_SPAN_SAMPLE", "4")
        trace = Trace("sampled", [TraceRecord(0x400000, OC_IALU)
                                  for _ in range(10)])
        writer_dir = tmp_path / "entry"
        writer = shards.ShardWriter(writer_dir, "sampled", 1)
        for chunk in shards.shard_trace(trace, 1).chunks():
            writer.append(chunk)
        writer.finish([], 0)
        spans.enable(tmp_path)
        list(shards.load_sharded(writer_dir).chunks())
        spans.disable()
        recorded = [entry for entry in _journal(tmp_path)
                    if entry["name"] == "trace:shard"]
        # Shards 0, 4, 8 of the 10 single-row shards are sampled.
        assert [entry["attrs"]["shard"] for entry in recorded] \
            == [0, 4, 8]

    def test_default_samples_every_shard(self, tmp_path, monkeypatch):
        from repro.trace import shards
        from repro.trace.records import OC_IALU, Trace, TraceRecord
        monkeypatch.delenv("REPRO_SPAN_SAMPLE", raising=False)
        trace = Trace("allspans", [TraceRecord(0x400000, OC_IALU)
                                   for _ in range(3)])
        writer_dir = tmp_path / "entry"
        writer = shards.ShardWriter(writer_dir, "allspans", 1)
        for chunk in shards.shard_trace(trace, 1).chunks():
            writer.append(chunk)
        writer.finish([], 0)
        spans.enable(tmp_path)
        list(shards.load_sharded(writer_dir).chunks())
        spans.disable()
        recorded = [entry for entry in _journal(tmp_path)
                    if entry["name"] == "trace:shard"]
        assert len(recorded) == 3
