"""Tests for span-journal aggregation and the ``repro profile`` CLI."""

import json

import pytest

from repro.cli import main
from repro.obs import manifest as run_manifest
from repro.obs import profile, spans


def _span(name, span_id, parent, start, dur, pid=100, **attrs):
    return {"name": name, "id": span_id, "parent": parent, "pid": pid,
            "tid": 1, "start": start, "dur": dur, "attrs": attrs}


def _write_run(directory, spans_list, experiment="figure2", scale=1.0):
    lines = [json.dumps(entry) for entry in spans_list]
    (directory / spans.JOURNAL).write_text("\n".join(lines) + "\n")
    document = run_manifest.build_manifest(
        "test-run", command="experiment", experiment=experiment,
        scale=scale, jobs=2)
    run_manifest.write_manifest(directory, document)


def _three_span_run(directory, **kwargs):
    _write_run(directory, [
        _span("cell", "100.3", "100.2", 1.1, 2.0, workload="db_vortex"),
        _span("engine:run_cells", "100.2", "100.1", 1.0, 4.0, cells=1),
        _span("cli:experiment", "100.1", None, 0.5, 5.0),
    ], **kwargs)


class TestLoadRun:
    def test_load_sorts_and_finds_roots(self, tmp_path):
        _three_span_run(tmp_path)
        run = profile.load_run(tmp_path)
        assert [s["name"] for s in run.spans] \
            == ["cli:experiment", "engine:run_cells", "cell"]
        assert [s["name"] for s in run.roots] == ["cli:experiment"]
        assert run.manifest["experiment"] == "figure2"
        assert run.origin == 0.5

    def test_load_skips_malformed_lines(self, tmp_path):
        (tmp_path / spans.JOURNAL).write_text(
            json.dumps(_span("ok", "1.1", None, 0.0, 1.0))
            + "\n{broken\n")
        run = profile.load_run(tmp_path)
        assert len(run.spans) == 1
        assert run.skipped == 1

    def test_load_folds_unmerged_worker_journals(self, tmp_path):
        _three_span_run(tmp_path)
        stray = tmp_path / f"{spans.WORKER_PREFIX}42.jsonl"
        stray.write_text(json.dumps(
            _span("cell", "2a.1", "100.2", 1.2, 1.5, pid=42)) + "\n")
        run = profile.load_run(tmp_path)
        assert len(run.spans) == 4
        assert {s["pid"] for s in run.spans} == {100, 42}

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            profile.load_run(tmp_path)


class TestRendering:
    def test_tree_nests_and_aggregates(self, tmp_path):
        _three_span_run(tmp_path)
        text = profile.render_tree(profile.load_run(tmp_path))
        assert "Span tree: figure2 @ scale 1" in text
        assert "cli:experiment" in text
        assert "    cell [workload=db_vortex]" in text
        assert "Aggregate by span name" in text

    def test_chrome_document_is_trace_event_json(self, tmp_path):
        _three_span_run(tmp_path)
        run = profile.load_run(tmp_path)
        document = profile.chrome_document(run)
        events = document["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
        # Timestamps are rebased to the earliest span, in microseconds.
        assert min(e["ts"] for e in events) == 0.0
        assert document["otherData"]["experiment"] == "figure2"
        out = profile.write_chrome(run, tmp_path / "out" / "trace.json")
        json.loads(out.read_text())


class TestProfileCommand:
    def test_renders_tree_and_exits_zero(self, tmp_path, capsys):
        _three_span_run(tmp_path)
        assert main(["profile", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Span tree" in out
        assert "engine:run_cells" in out

    def test_missing_run_exits_two(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nowhere")]) == 2
        assert "no span journal" in capsys.readouterr().err

    def test_chrome_export_flag(self, tmp_path, capsys):
        _three_span_run(tmp_path)
        trace = tmp_path / "perfetto.json"
        assert main(["profile", str(tmp_path),
                     "--chrome", str(trace)]) == 0
        document = json.loads(trace.read_text())
        assert {e["name"] for e in document["traceEvents"]} \
            == {"cli:experiment", "engine:run_cells", "cell"}


class TestRotatedSegments:
    def test_load_folds_rotated_main_and_worker_segments(self,
                                                         tmp_path):
        _three_span_run(tmp_path)
        (tmp_path / (spans.JOURNAL + spans.ROTATED_SUFFIX)).write_text(
            json.dumps(_span("old:root", "90.1", None, 0.1, 0.2))
            + "\n")
        (tmp_path / f"{spans.WORKER_PREFIX}7.jsonl"
         f"{spans.ROTATED_SUFFIX}").write_text(
            json.dumps(_span("old:cell", "7.1", "100.2", 1.05, 0.1,
                             pid=7)) + "\n")
        run = profile.load_run(tmp_path)
        names = [s["name"] for s in run.spans]
        assert "old:root" in names
        assert "old:cell" in names
        assert len(run.spans) == 5

    def test_bare_journal_file_folds_its_rotated_sibling(self,
                                                         tmp_path):
        journal = tmp_path / spans.JOURNAL
        journal.write_text(
            json.dumps(_span("new", "1.2", None, 2.0, 1.0)) + "\n")
        journal.with_name(journal.name + spans.ROTATED_SUFFIX)\
            .write_text(
                json.dumps(_span("old", "1.1", None, 1.0, 1.0)) + "\n")
        run = profile.load_run(journal)
        assert [s["name"] for s in run.spans] == ["old", "new"]


def _request_run(directory, incarnation, request_id, attempt,
                 completed, start=1.0, started_unix=1000.0):
    """A daemon-style run directory: one request's spans."""
    entries = [
        _span("serve:request:start", f"{attempt}00.1", None, start,
              0.0, op="regions", incarnation=incarnation,
              request=request_id, request_attempt=attempt),
    ]
    if completed:
        entries += [
            _span("serve:request", f"{attempt}00.2", None, start, 0.5,
                  op="regions", status=200, incarnation=incarnation,
                  request=request_id, request_attempt=attempt),
            # Inherits its incarnation down the parent chain.
            _span("api:trace", f"{attempt}00.3", f"{attempt}00.2",
                  start + 0.1, 0.3, request=request_id,
                  request_attempt=attempt),
        ]
    directory.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(entry) for entry in entries]
    (directory / spans.JOURNAL).write_text("\n".join(lines) + "\n")
    document = run_manifest.build_manifest("req-run", command="serve")
    document["started_unix"] = started_unix
    document["started_monotonic"] = 0.0
    document["incarnation_id"] = incarnation
    run_manifest.write_manifest(directory, document)


class TestRequestTimeline:
    def test_merges_two_incarnations_on_the_wall_clock(self, tmp_path):
        # Incarnation A started attempt 0 and died; B completed
        # attempt 1 from a *different* run directory with a different
        # clock anchor.
        _request_run(tmp_path / "a", "s1-1.0", "req-9", 0,
                     completed=False, start=5.0, started_unix=1000.0)
        _request_run(tmp_path / "b", "s1-1.1", "req-9", 1,
                     completed=True, start=2.0, started_unix=1010.0)
        runs = profile.load_runs([tmp_path / "a", tmp_path / "b"])
        timeline = profile.request_timeline(runs, "req-9")
        assert timeline.incarnations == ["s1-1.0", "s1-1.1"]
        # Wall-clock order: A's event at 1005, B's spans at 1012+.
        assert [e["t"] for e in timeline.entries] \
            == sorted(e["t"] for e in timeline.entries)
        attempts = timeline.attempts
        assert attempts[0]["outcome"] == "started, never completed"
        assert attempts[1]["outcome"] == "completed status 200"
        # The unstamped-by-attr child resolved via its parent chain.
        child = next(e for e in timeline.entries
                     if e["name"] == "api:trace")
        assert child["incarnation"] == "s1-1.1"
        text = profile.render_request_timeline(timeline)
        assert "2 attempt(s) across 2 incarnation(s)" in text
        assert "s1-1.0" in text and "s1-1.1" in text

    def test_other_requests_are_excluded(self, tmp_path):
        _request_run(tmp_path / "a", "i-1", "req-1", 0, completed=True)
        _request_run(tmp_path / "b", "i-1", "req-2", 0, completed=True)
        runs = profile.load_runs([tmp_path / "a", tmp_path / "b"])
        timeline = profile.request_timeline(runs, "req-1")
        assert timeline.entries
        assert all(e["attrs"]["request"] == "req-1"
                   for e in timeline.entries)
        assert timeline.sources == [(tmp_path / "a")]

    def test_profile_request_flag_renders_timeline(self, tmp_path,
                                                   capsys):
        _request_run(tmp_path / "a", "i-1", "req-1", 0, completed=True)
        code = main(["profile", str(tmp_path / "a"),
                     "--request", "req-1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Request req-1" in out
        assert "completed status 200" in out

    def test_profile_request_flag_exits_one_when_absent(self, tmp_path,
                                                        capsys):
        _request_run(tmp_path / "a", "i-1", "req-1", 0, completed=True)
        code = main(["profile", str(tmp_path / "a"),
                     "--request", "missing"])
        assert code == 1
        assert "no spans found" in capsys.readouterr().out

    def test_profile_renders_multiple_runs(self, tmp_path, capsys):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            _three_span_run(tmp_path / name)
        code = main(["profile", str(tmp_path / "a"),
                     str(tmp_path / "b")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("Span tree") == 2
