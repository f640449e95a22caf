"""The telemetry ring buffer and its derived rates."""

import json

import pytest

from repro import config
from repro.serve import telemetry
from repro.serve.telemetry import TelemetryRecorder, derive_rates


def _source_factory(samples):
    """A source() yielding the given dicts in order (then the last)."""
    state = {"index": 0}

    def source():
        index = min(state["index"], len(samples) - 1)
        state["index"] += 1
        doc = samples[index]
        if isinstance(doc, Exception):
            raise doc
        return dict(doc)

    return source


class TestDeriveRates:
    def test_rates_from_counter_deltas(self):
        previous = {"ts": 100.0, "requests": 10, "errors": 1, "shed": 0}
        current = {"ts": 102.0, "requests": 30, "errors": 1, "shed": 4}
        doc = derive_rates(current, previous)
        assert doc["qps"] == 10.0
        assert doc["errors_per_s"] == 0.0
        assert doc["shed_per_s"] == 2.0

    def test_first_sample_has_no_rates(self):
        doc = derive_rates({"ts": 1.0, "requests": 5}, None)
        assert "qps" not in doc

    def test_restart_counter_regression_clamps_to_zero(self):
        previous = {"ts": 100.0, "requests": 500, "errors": 0,
                    "shed": 0}
        current = {"ts": 105.0, "requests": 3, "errors": 0, "shed": 0}
        assert derive_rates(current, previous)["qps"] == 0.0

    def test_non_positive_dt_yields_no_rates(self):
        doc = derive_rates({"ts": 1.0, "requests": 2},
                           {"ts": 1.0, "requests": 1})
        assert "qps" not in doc


class TestRecorder:
    def test_samples_append_jsonl_with_rates(self, tmp_path):
        path = tmp_path / telemetry.FILENAME
        recorder = TelemetryRecorder(_source_factory([
            {"ts": 10.0, "requests": 0, "errors": 0, "shed": 0},
            {"ts": 11.0, "requests": 8, "errors": 0, "shed": 0},
        ]), path, interval_s=60.0)
        recorder.sample()
        recorder.sample()
        samples = telemetry.read_telemetry(path)
        assert len(samples) == 2
        assert "qps" not in samples[0]
        assert samples[1]["qps"] == 8.0
        assert recorder.samples == 2

    def test_source_failure_is_counted_not_raised(self, tmp_path):
        recorder = TelemetryRecorder(
            _source_factory([RuntimeError("boom")]),
            tmp_path / "t.jsonl", interval_s=60.0)
        assert recorder.sample() is None
        assert recorder.write_errors == 1
        assert recorder.samples == 0

    def test_rotation_bounds_the_segment(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = TelemetryRecorder(
            _source_factory([{"ts": float(i), "requests": i}
                             for i in range(200)]),
            path, interval_s=60.0, max_bytes=512)
        for _ in range(50):
            recorder.sample()
        rotated = path.with_name(path.name + telemetry.ROTATED_SUFFIX)
        assert rotated.exists()
        if path.exists():       # absent right after a rotation
            assert path.stat().st_size <= 512 + 256  # one line of slack
        # Reader folds .old before the live segment, oldest first.
        samples = telemetry.read_telemetry(path)
        timestamps = [s["ts"] for s in samples]
        assert timestamps == sorted(timestamps)

    def test_reader_drops_malformed_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"ts": 1.0}) + "\n"
                        + "{broken...\n"
                        + json.dumps({"ts": 2.0}) + "\n")
        assert [s["ts"] for s in telemetry.read_telemetry(path)] \
            == [1.0, 2.0]

    def test_thread_lifecycle_and_final_sample(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = TelemetryRecorder(
            _source_factory([{"ts": 1.0, "requests": 1}]),
            path, interval_s=30.0)
        recorder.start()
        recorder.start()            # idempotent
        recorder.stop(final_sample=True)
        # Interval far beyond the test, so the only guaranteed sample
        # is the final flush on stop().
        assert telemetry.read_telemetry(path)
        assert recorder.samples >= 1

    def test_env_bound_is_used_when_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_MAX_BYTES", "1234")
        recorder = TelemetryRecorder(lambda: {}, tmp_path / "t.jsonl",
                                     interval_s=1.0)
        assert recorder.max_bytes == 1234
        monkeypatch.setenv("REPRO_TELEMETRY_MAX_BYTES", "banana")
        config.install(None)
        with pytest.warns(RuntimeWarning, match="'banana'"):
            recorder = TelemetryRecorder(lambda: {}, tmp_path / "t.jsonl",
                                         interval_s=1.0)
        assert recorder.max_bytes == config.Config().telemetry_max_bytes
