"""Tests for the columnar trace backbone (ColumnarTrace <-> Trace)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import metrics
from repro.cpu import run_source
from repro.trace.columns import COLUMN_DTYPES, ColumnarTrace
from repro.trace.records import (OC_BRANCH, OC_IALU, OC_LOAD, OC_STORE,
                                 Trace, TraceRecord)

_FIELDS = ("pc", "op_class", "dst", "src1", "src2", "addr", "mode",
           "region", "taken", "ra", "value")


def _assert_same_records(before, after):
    assert len(before) == len(after)
    for b, a in zip(before, after):
        for field in _FIELDS:
            assert getattr(b, field) == getattr(a, field), field


def _record(value=None, **overrides):
    defaults = dict(pc=0x400100, op_class=OC_IALU, dst=3, src1=4,
                    src2=5, addr=0, mode=-1, region=-1, taken=False,
                    ra=0, value=value)
    defaults.update(overrides)
    return TraceRecord(**defaults)


_RECORDS = st.builds(
    TraceRecord,
    pc=st.integers(min_value=0, max_value=2 ** 62),
    op_class=st.sampled_from((OC_IALU, OC_LOAD, OC_STORE, OC_BRANCH)),
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
        st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)),
)


@pytest.fixture(scope="module")
def real_trace():
    return run_source("""
        int g[16];
        int main() {
          int* h = (int*) malloc(8);
          int t = 0;
          for (int i = 0; i < 16; i += 1) {
            g[i] = i;
            if (i < 8) h[i] = i * 2;
            t += g[i];
          }
          print_int(t);
          free(h);
          return 0;
        }
    """, "columns-real")


class TestRoundTrip:
    def test_records_columns_records_lossless(self):
        records = [
            _record(value=None),
            _record(value=-(2 ** 63)),
            _record(value=2 ** 63 - 1),
            _record(op_class=OC_LOAD, addr=0x7FFFFFF8, mode=1, region=2,
                    ra=0x400008, value=0),
            _record(op_class=OC_BRANCH, taken=True),
        ]
        columns = ColumnarTrace.from_records(records)
        _assert_same_records(records, columns.to_records())

    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(_RECORDS, max_size=50))
    def test_random_records_round_trip(self, records):
        columns = ColumnarTrace.from_records(records)
        _assert_same_records(records, columns.to_records())

    def test_real_trace_round_trips(self, real_trace):
        records = real_trace.records
        _assert_same_records(
            records, ColumnarTrace.from_records(records).to_records())

    def test_empty(self):
        columns = ColumnarTrace.empty()
        assert len(columns) == 0
        assert columns.to_records() == []

    def test_from_rows_matches_from_records(self):
        records = [_record(value=v) for v in (None, 0, -1, 7)]
        rows = [tuple(getattr(r, f) for f in _FIELDS) for r in records]
        by_rows = ColumnarTrace.from_rows(rows)
        _assert_same_records(records, by_rows.to_records())

    def test_mismatched_column_lengths_rejected(self):
        good = ColumnarTrace.from_records([_record()])
        args = [getattr(good, name) for name, _ in COLUMN_DTYPES]
        with pytest.raises(ValueError):
            ColumnarTrace(*args, np.zeros(2, dtype=np.int64),
                          np.zeros(2, dtype=np.bool_))


class TestLazyTrace:
    def test_column_backed_trace_defers_record_objects(self, real_trace,
                                                        monkeypatch):
        trace = Trace("lazy", columns=real_trace.columns)
        materialized = []
        original = ColumnarTrace.to_records

        def counting_to_records(columns):
            materialized.append(columns)
            return original(columns)

        monkeypatch.setattr(ColumnarTrace, "to_records",
                            counting_to_records)
        assert len(trace) == len(real_trace)
        # Counting loads/stores must not materialise records.
        assert trace.load_count == real_trace.load_count
        assert trace.store_count == real_trace.store_count
        assert not materialized
        # Records are a derived view: built once, on first access.
        assert len(trace.records) == len(real_trace)
        assert trace.records is trace.records
        assert materialized == [trace.columns]

    def test_records_argument_is_converted_once(self):
        records = [_record(op_class=OC_LOAD, region=2, mode=1)]
        trace = Trace("t", records)
        assert isinstance(trace.columns, ColumnarTrace)
        _assert_same_records(records, trace.columns.to_records())
        assert trace.load_count == 1
        # The input list is the cached record view: no second copy.
        assert trace.records is records

    def test_conversions_cached(self, real_trace):
        trace = Trace("cached", columns=real_trace.columns)
        assert trace.records is trace.records
        assert trace.columns is trace.columns

    def test_iteration_matches_records(self):
        records = [_record(), _record(op_class=OC_BRANCH, taken=True)]
        trace = Trace("t", columns=ColumnarTrace.from_records(records))
        _assert_same_records(records, list(trace))


class TestConversionMetrics:
    def test_counters_published_when_enabled(self):
        records = [_record(), _record()]
        registry = metrics.MetricsRegistry()
        previous = metrics.swap(registry)
        try:
            columns = ColumnarTrace.from_records(records)
            columns.to_records()
        finally:
            metrics.swap(previous)
        snapshot = registry.snapshot()
        assert snapshot["trace.columnar.builds"]["value"] == 1
        assert snapshot["trace.columnar.materializations"]["value"] == 1
        assert snapshot["trace.columnar.records"]["value"] == 4  # 2+2

    def test_disabled_registry_publishes_nothing(self):
        ColumnarTrace.from_records([_record()])  # must not raise
        assert not metrics.active().enabled
