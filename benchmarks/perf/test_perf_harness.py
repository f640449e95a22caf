"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf -q

They shrink the workloads (fewer programs, one set-up, no measuring
time beyond one pass) so they finish in about half a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time

import pytest

from repro.obs.profile import load_run

from benchmarks.perf import batch, compare, measure, serve_mix, spec
from benchmarks.perf.tracing import SpanRecorder, self_times

ROOT = measure.ROOT


@pytest.fixture(scope="module")
def expected():
    return measure.load_expected()


@pytest.fixture
def tiny(monkeypatch):
    """Two programs, one set-up, one timing input."""
    monkeypatch.setattr(batch, "WORKLOADS", ("ccomp", "db_vortex"))
    monkeypatch.setattr(batch, "TIMING_WORKLOADS", ("ccomp",))
    monkeypatch.setattr(batch, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serve_mix, "WORKLOADS", ("ccomp", "db_vortex"))
    monkeypatch.setattr(serve_mix, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serve_mix, "PHASES",
                        (("low", 40.0, 0.5), ("high", 80.0, 0.5)))
    monkeypatch.setattr(serve_mix, "HOT_KEYS", 6)
    monkeypatch.setattr(serve_mix, "BURST_REQUESTS", 20)


@pytest.mark.parametrize("workload", sorted(batch.BATCH))
def test_batch_runner_runs_and_checks(tiny, expected, workload):
    recorder = SpanRecorder(enabled=True)
    result = batch.run(workload, seed=3, seconds=0.0, recorder=recorder,
                       expected=expected)
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert set(result["end_to_end"]) == set(spec.END_TO_END)
    assert set(result["per_layer"]) == set(spec.PER_LAYER)
    assert all(value > 0 for value in result["end_to_end"].values())
    assert result["per_layer"]["bench.coverage"] > 0.95


def test_serve_runner_runs_and_checks(tiny, expected):
    result = serve_mix.run(seed=3, seconds=1.0,
                           recorder=SpanRecorder(enabled=True),
                           expected=expected)
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert set(result["end_to_end"]) == set(spec.END_TO_END)
    assert result["per_layer"]["api.trace_misses"] == 0
    assert result["per_layer"]["api.memo_hit_ratio.high"] > 0


def test_corrupted_expected_value_counts_as_failure(tiny, expected):
    broken = copy.deepcopy(expected)
    broken["replay"]["ccomp"]["occupancy"]["none"] += 1
    result = batch.run("replay-warm", seed=0, seconds=0.0,
                       recorder=SpanRecorder(enabled=False),
                       expected=broken)
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "dur": 10.0},
        {"id": "a", "parent": "p", "start": 1.0, "dur": 2.0},
        {"id": "b", "parent": "p", "start": 2.0, "dur": 3.0},   # overlaps a
        {"id": "c", "parent": "p", "start": 8.0, "dur": 4.0},   # past p's end
        {"id": "d", "parent": "b", "start": 2.5, "dur": 1.0},
    ]
    own = self_times(spans)
    assert own["p"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own["b"] == pytest.approx(2.0)
    assert own["a"] == pytest.approx(2.0)


def test_spans_load_through_repro_profile(tmp_path):
    recorder = SpanRecorder(enabled=True)
    with recorder.span("bench.pass", index=0):
        with recorder.span("eval.run_cells", cells=1):
            with recorder.span("timing.simulate", workload="ccomp"):
                pass
    recorder.write(tmp_path, {"experiment": "timing-sweep", "scale": 0.05,
                              "started_unix": time.time(),
                              "started_monotonic": time.monotonic()})
    profile = load_run(tmp_path)
    assert [s["name"] for s in profile.spans] == [
        "bench.pass", "eval.run_cells", "timing.simulate"]
    by_name = {s["name"]: s for s in profile.spans}
    assert by_name["timing.simulate"]["parent"] == \
        by_name["eval.run_cells"]["id"]
    assert [s["name"] for s in profile.roots] == ["bench.pass"]
    assert profile.manifest["experiment"] == "timing-sweep"


class _SlowClient:
    """Answers every call after a fixed service time."""

    last_request_id = "test"

    def __init__(self, service_s: float) -> None:
        self.service_s = service_s

    def call(self, op, **params):
        time.sleep(self.service_s)
        return None


def test_open_loop_latency_counts_from_the_due_time():
    key = ("regions", ("ccomp",), None)
    items = [(0.0, key, "hit"), (0.01, key, "hit")]
    out = []
    serve_mix.send_due(_SlowClient(0.1), items, time.perf_counter(), {},
                       SpanRecorder(enabled=False), "low", out)
    (_, first, first_late, ok), (_, second, second_late, _) = out
    assert not ok                     # no response is a failure
    assert first == pytest.approx(100, abs=30)
    # Due at 10 ms but sent only after the first answer: waited ~90 ms.
    assert second_late >= 80
    assert second >= 180


@pytest.mark.parametrize("parent,change,outcome", [
    ([10.0] * 10, [8.0] * 10, "improved"),
    ([10.0] * 10, [12.0] * 10, "regressed"),
    ([8, 9, 10, 11, 12, 8, 9, 10, 11, 12], [10.0] * 10, "unresolved"),
    ([10.0, 10.1] * 5, [10.05] * 10, "unchanged"),
])
def test_compare_verdicts(parent, change, outcome):
    assert compare.verdict(parent, change, "lower", 0.1)[0] == outcome


def test_benchmark_json_matches_the_metric_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {e["name"]: e["unit"] for e in bench["end_to_end"]} \
        == spec.END_TO_END
    assert {e["name"]: e["unit"] for e in bench["per_layer"]} \
        == spec.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "perf",
                    tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "timing-sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
