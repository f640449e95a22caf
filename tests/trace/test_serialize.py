"""Tests for trace persistence: the one column codec.

The integrity and sentinel cases run on both entry layouts of the
codec - a whole trace in one file (``save_trace``/``load_trace``) and
a :class:`~repro.trace.shards.ShardWriter` set of at least three
shards - through the ``Test*`` classes' layout attributes, which the
``TestShard*`` subclasses override.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import run_source
from repro.predictor import evaluate_scheme
from repro.trace.records import (OC_BRANCH, OC_IALU, OC_LOAD, Trace,
                                 TraceRecord)
from repro.trace.serialize import (_NO_VALUE, TraceIntegrityError,
                                   load_trace, save_trace)
from repro.trace.shards import ShardWriter, load_sharded, shard_trace

_FIELDS = ("pc", "op_class", "dst", "src1", "src2", "addr", "mode",
           "region", "taken", "ra", "value")


def _assert_same_trace(before, after):
    assert after.name == before.name
    assert after.output == before.output
    assert after.exit_code == before.exit_code
    assert len(after) == len(before)
    for b, a in zip(before.records, after.records):
        for field in _FIELDS:
            assert getattr(b, field) == getattr(a, field), field


def _save_whole(trace, directory):
    """Save ``trace`` as one whole-trace file; returns its codec files."""
    path = directory / "trace.npz"
    save_trace(trace, path)
    return [path]


def _load_whole(directory):
    return load_trace(directory / "trace.npz")


def _save_sharded(trace, directory):
    """Save ``trace`` as a shard set of at least three shards; returns
    its codec files in shard order."""
    rows = max(1, -(-len(trace) // 3))
    writer = ShardWriter(directory / "entry", trace.name, rows)
    for chunk in shard_trace(trace, rows).chunks():
        writer.append(chunk)
    view = writer.finish(trace.output, trace.exit_code)
    assert view.num_shards >= min(3, len(trace))
    return [directory / "entry" / view.shard_meta(i)["file"]
            for i in range(view.num_shards)]


def _load_sharded(directory):
    return load_sharded(directory / "entry").materialize()


class _WholeLayout:
    """Layout attributes: one whole-trace file, identity in its meta."""

    save = staticmethod(_save_whole)
    load = staticmethod(_load_whole)
    tamper_identity = staticmethod(
        lambda meta: meta.__setitem__("name", "impostor"))


class _ShardedLayout:
    """Layout attributes: a shard set, identity = each shard's index."""

    save = staticmethod(_save_sharded)
    load = staticmethod(_load_sharded)
    tamper_identity = staticmethod(
        lambda meta: meta.__setitem__("index", meta["index"] + 1))


@pytest.fixture(scope="module")
def trace():
    return run_source("""
        int g[16];
        int main() {
          int* h = (int*) malloc(8);
          float f = 1.5;
          int t = 0;
          for (int i = 0; i < 16; i += 1) {
            g[i] = i;
            if (i < 8) h[i] = i * 2;
            t += g[i];
          }
          print_int(t);
          print_float(f);
          free(h);
          return 0;
        }
    """, "serialize-me")


class TestRoundTrip:
    def test_records_identical(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        for before, after in zip(trace.records, loaded.records):
            for field in ("pc", "op_class", "dst", "src1", "src2",
                          "addr", "mode", "region", "taken", "ra",
                          "value"):
                assert getattr(before, field) == getattr(after, field), \
                    field

    def test_metadata_preserved(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.output == trace.output
        assert loaded.exit_code == trace.exit_code

    def test_loaded_trace_usable_by_predictor(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        original = evaluate_scheme(trace, "1bit-hybrid")
        replayed = evaluate_scheme(loaded, "1bit-hybrid")
        assert original.accuracy == replayed.accuracy
        assert original.occupancy == replayed.occupancy

    def test_compression_is_effective(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        # ~50 bytes of columns per record before compression; the file
        # should be far smaller than that.
        assert path.stat().st_size < len(trace) * 25

    def test_unsuffixed_path_round_trips(self, trace, tmp_path):
        """Regression: ``np.savez_compressed`` used to append ``.npz``
        to suffixless names, so loading the caller's exact path raised
        FileNotFoundError."""
        path = tmp_path / "trace-without-extension"
        save_trace(trace, path)
        assert path.exists()
        assert not (tmp_path / "trace-without-extension.npz").exists()
        _assert_same_trace(trace, load_trace(path))

    def test_unusual_suffix_round_trips(self, trace, tmp_path):
        path = tmp_path / "trace.bin"
        save_trace(trace, path)
        assert path.exists()
        _assert_same_trace(trace, load_trace(path))

    def test_version_check(self, trace, tmp_path):
        import json

        import numpy as np
        path = tmp_path / "bad.npz"
        meta = json.dumps({"version": 99, "name": "x", "output": [],
                           "exit_code": 0})
        np.savez_compressed(
            str(path),
            meta=np.frombuffer(meta.encode(), dtype=np.uint8))
        with pytest.raises(TraceIntegrityError):
            load_trace(path)


def _rewrite(path, mutate):
    """Round-trip the raw npz payload through ``mutate`` - simulating
    on-disk corruption that still unzips cleanly."""
    import json

    import numpy as np
    with np.load(str(path)) as data:
        payload = {key: data[key] for key in data.files}
    meta = json.loads(bytes(payload.pop("meta")).decode("utf-8"))
    mutate(meta, payload)
    payload["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(str(path), **payload)


class TestIntegrity(_WholeLayout):
    """The embedded CRC-32 catches corruption that still deserialises."""

    def _victim(self, trace, tmp_path):
        """Save ``trace``; return the file to corrupt (a middle shard
        of a shard set)."""
        files = self.save(trace, tmp_path)
        return files[len(files) // 2]

    def test_integrity_error_is_a_value_error(self):
        assert issubclass(TraceIntegrityError, ValueError)

    def test_intact_file_loads(self, trace, tmp_path):
        _rewrite(self._victim(trace, tmp_path),
                 lambda meta, payload: None)   # no-op rewrite
        _assert_same_trace(trace, self.load(tmp_path))

    def test_tampered_column_detected(self, trace, tmp_path):
        def flip(meta, payload):
            payload["addr"] = payload["addr"].copy()
            payload["addr"][0] ^= 1

        _rewrite(self._victim(trace, tmp_path), flip)
        with pytest.raises(TraceIntegrityError, match="checksum"):
            self.load(tmp_path)

    def test_tampered_identity_detected(self, trace, tmp_path):
        _rewrite(self._victim(trace, tmp_path),
                 lambda meta, payload: self.tamper_identity(meta))
        with pytest.raises(TraceIntegrityError, match="checksum"):
            self.load(tmp_path)

    def test_missing_checksum_detected(self, trace, tmp_path):
        _rewrite(self._victim(trace, tmp_path),
                 lambda meta, payload: meta.pop("checksum"))
        with pytest.raises(TraceIntegrityError, match="checksum"):
            self.load(tmp_path)

    def test_wrong_version_detected(self, trace, tmp_path):
        _rewrite(self._victim(trace, tmp_path),
                 lambda meta, payload: meta.__setitem__("version", 99))
        with pytest.raises(TraceIntegrityError, match="version 99"):
            self.load(tmp_path)

    def test_truncated_file_detected(self, trace, tmp_path):
        victim = self._victim(trace, tmp_path)
        victim.write_bytes(victim.read_bytes()[:victim.stat().st_size
                                                // 2])
        with pytest.raises(TraceIntegrityError, match="unreadable"):
            self.load(tmp_path)


class TestShardIntegrity(_ShardedLayout, TestIntegrity):
    """Every integrity case again, on one shard of a shard set."""


def _record(value=None, **overrides):
    defaults = dict(pc=0x400100, op_class=OC_IALU, dst=3, src1=4,
                    src2=5, addr=0, mode=-1, region=-1, taken=False,
                    ra=0, value=value)
    defaults.update(overrides)
    return TraceRecord(**defaults)


class TestSentinelHandling(_WholeLayout):
    """Regression: result values near the None sentinel must survive a
    round-trip, and None must stay None."""

    def test_values_near_sentinel_round_trip(self, tmp_path):
        sentinel = int(_NO_VALUE)
        values = [sentinel + 1, sentinel + 2, -1, 0, 1, None,
                  -(2 ** 63), 2 ** 63 - 1]
        trace = Trace("near-sentinel", [_record(value=v) for v in values])
        self.save(trace, tmp_path)
        loaded = self.load(tmp_path)
        assert [r.value for r in loaded.records] == values

    def test_none_round_trips_as_none(self, tmp_path):
        trace = Trace("none", [_record(value=None), _record(value=7)])
        self.save(trace, tmp_path)
        loaded = self.load(tmp_path)
        assert loaded.records[0].value is None
        assert loaded.records[1].value == 7

    def test_sentinel_valued_record_rejected_at_save(self, tmp_path):
        values = [1, 2, 3, 4, 5, int(_NO_VALUE)]
        trace = Trace("collide", [_record(value=v) for v in values])
        with pytest.raises(ValueError, match="sentinel"):
            self.save(trace, tmp_path)

    def test_empty_trace_round_trips(self, tmp_path):
        trace = Trace("empty", [], output=[1, 2.5, 3], exit_code=9)
        self.save(trace, tmp_path)
        loaded = self.load(tmp_path)
        assert len(loaded) == 0
        assert loaded.name == "empty"
        assert loaded.output == [1, 2.5, 3]
        assert loaded.exit_code == 9


class TestShardSentinelHandling(_ShardedLayout, TestSentinelHandling):
    """Every sentinel case again, on a shard set."""


_INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_RECORDS = st.builds(
    TraceRecord,
    pc=st.integers(min_value=0, max_value=2 ** 62),
    op_class=st.sampled_from((OC_IALU, OC_LOAD, OC_BRANCH)),
    dst=st.integers(min_value=-1, max_value=63),
    src1=st.integers(min_value=-1, max_value=63),
    src2=st.integers(min_value=-1, max_value=63),
    addr=st.integers(min_value=0, max_value=2 ** 62),
    mode=st.integers(min_value=-1, max_value=3),
    region=st.integers(min_value=-1, max_value=2),
    taken=st.booleans(),
    ra=st.integers(min_value=0, max_value=2 ** 62),
    value=st.one_of(
        st.none(),
        _INT64.filter(lambda v: v != int(_NO_VALUE))),
)


class TestRoundTripProperty:
    @settings(max_examples=30, deadline=None)
    @given(records=st.lists(_RECORDS, max_size=40),
           exit_code=st.integers(min_value=0, max_value=255))
    def test_random_traces_round_trip(self, records, exit_code,
                                      tmp_path_factory):
        trace = Trace("prop", records, output=[len(records)],
                      exit_code=exit_code)
        path = tmp_path_factory.mktemp("ser") / "prop.npz"
        save_trace(trace, path)
        _assert_same_trace(trace, load_trace(path))
