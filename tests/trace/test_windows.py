"""Tests for the sliding-window bandwidth profiler (Table 2)."""

import math

from hypothesis import given, strategies as st

from repro.trace.records import (OC_IALU, OC_LOAD, REGION_DATA, REGION_HEAP,
                                 REGION_STACK, Trace, TraceRecord)
from repro.trace.windows import window_stats

from tests.oracles.scalar import SlidingWindowProfiler


def mem(region):
    return TraceRecord(0, OC_LOAD, addr=0x10000000, region=region)


def alu():
    return TraceRecord(0, OC_IALU)


def brute_force(records, window, region):
    """Reference implementation: recount every window from scratch."""
    counts = []
    for end in range(window, len(records) + 1):
        chunk = records[end - window:end]
        counts.append(sum(1 for r in chunk
                          if r.is_mem and r.region == region))
    if not counts:
        return 0.0, 0.0
    mean = sum(counts) / len(counts)
    var = sum((c - mean) ** 2 for c in counts) / len(counts)
    return mean, math.sqrt(var)


class TestSlidingWindow:
    def test_all_memory_single_region(self):
        records = [mem(REGION_DATA) for _ in range(64)]
        stats = window_stats(Trace("t", records), 32)
        assert stats.data.mean == 32.0
        assert stats.data.std == 0.0
        assert stats.heap.mean == 0.0

    def test_no_samples_before_window_fills(self):
        records = [mem(REGION_DATA) for _ in range(10)]
        stats = window_stats(Trace("t", records), 32)
        assert stats.data.samples == 0
        assert stats.data.mean == 0.0

    def test_alternating_pattern(self):
        records = []
        for _ in range(50):
            records.append(mem(REGION_STACK))
            records.append(alu())
        stats = window_stats(Trace("t", records), 10)
        assert abs(stats.stack.mean - 5.0) < 1e-9

    def test_strictly_bursty_criterion(self):
        # A long quiet stretch followed by a dense burst -> std > mean.
        records = [alu()] * 300 + [mem(REGION_HEAP)] * 20 + [alu()] * 300
        stats = window_stats(Trace("t", records), 32)
        assert stats.heap.strictly_bursty

    def test_steady_stream_not_bursty(self):
        records = [mem(REGION_DATA), alu()] * 200
        stats = window_stats(Trace("t", records), 32)
        assert not stats.data.strictly_bursty

    def test_window_must_be_positive(self):
        import pytest
        with pytest.raises(ValueError):
            SlidingWindowProfiler(0)

    @given(st.lists(st.sampled_from([REGION_DATA, REGION_HEAP,
                                     REGION_STACK, -1]),
                    min_size=0, max_size=200),
           st.sampled_from([4, 8, 32]))
    def test_matches_brute_force(self, pattern, window):
        records = [mem(code) if code >= 0 else alu() for code in pattern]
        stats = window_stats(Trace("t", records), window)
        for region, got in ((REGION_DATA, stats.data),
                            (REGION_HEAP, stats.heap),
                            (REGION_STACK, stats.stack)):
            mean, std = brute_force(records, window, region)
            assert abs(got.mean - mean) < 1e-9
            assert abs(got.std - std) < 1e-9
