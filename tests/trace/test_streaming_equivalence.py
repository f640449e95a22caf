"""Chunk-folded reductions at every shard size.

Every analysis is one fold over the trace's chunks (an in-RAM trace is
a single chunk) - the Figure 2 region breakdown, single-region PC
hints, Table 2 window statistics, and the full predictor replay - and
must produce results *identical* at any shard size, including shard
boundaries that split a region run, a sliding window, or an ARPT
entry's counter history.  :class:`TestScalarOracles` pins every shard
size against the independent record-at-a-time references
(:class:`RegionClassifier`, :class:`SlidingWindowProfiler`,
``evaluate_scheme_scalar``); the other classes compare shard sizes
with the single-chunk fold.  Fixed seeds pin the carry-state
contracts; hypothesis hunts boundary cases (empty traces, shards
smaller than the window, single-element shards).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictor.evaluate import evaluate_scheme, occupancy_by_context
from repro.predictor.hints import hints_from_trace
from repro.predictor.schemes import ALL_SCHEMES
from repro.trace.records import (OC_BRANCH, OC_IALU, OC_LOAD, OC_STORE,
                                 REGION_DATA, REGION_HEAP, REGION_STACK,
                                 Trace, TraceRecord)
from repro.trace.regions import region_breakdown, single_region_pcs
from repro.trace.shards import shard_trace
from repro.trace.windows import window_stats

from tests.oracles.scalar import (RegionClassifier, SlidingWindowProfiler,
                                  evaluate_scheme_scalar)

_REGIONS = (REGION_DATA, REGION_HEAP, REGION_STACK)

#: Shard sizes chosen to split runs/windows every way: single-element
#: shards, a prime, one bigger than most test traces.
SHARD_SIZES = (1, 7, 100, 10_000)


def _random_trace(seed: int, n: int = 600) -> Trace:
    """Mixed trace with few PCs and clustered regions, so region runs
    and ARPT entries actually straddle shard boundaries."""
    rng = random.Random(seed)
    records = []
    region = rng.choice(_REGIONS)
    for _ in range(n):
        draw = rng.random()
        if draw < 0.12:
            records.append(TraceRecord(0x400800 + 8 * rng.randrange(4),
                                       OC_BRANCH,
                                       taken=rng.random() < 0.5))
        elif draw < 0.24:
            records.append(TraceRecord(0x400000 + 8 * rng.randrange(8),
                                       OC_IALU, dst=rng.randrange(32),
                                       value=rng.randrange(-50, 50)))
        else:
            if rng.random() < 0.1:   # sticky region -> long runs
                region = rng.choice(_REGIONS)
            records.append(TraceRecord(
                0x400100 + 8 * rng.randrange(6),
                OC_LOAD if rng.random() < 0.7 else OC_STORE,
                addr=0x10000000 + 8 * rng.randrange(64),
                mode=rng.choice((0, 1, 2, 3, 3)),
                region=region,
                ra=0x400008 + 8 * rng.randrange(3)))
    return Trace(f"stream{seed}", records)


class TestScalarOracles:
    """Each shard size - and the in-RAM single chunk (``None``) -
    against the scalar references, not against another chunking."""

    @staticmethod
    def _chunked(trace, shard_rows):
        return trace if shard_rows is None \
            else shard_trace(trace, shard_rows)

    @pytest.mark.parametrize("shard_rows", (None,) + SHARD_SIZES)
    def test_regions_match_classifier(self, shard_rows):
        trace = _random_trace(41)
        classifier = RegionClassifier()
        classifier.observe_trace(trace.records)
        chunked = self._chunked(trace, shard_rows)
        assert region_breakdown(chunked) \
            == classifier.breakdown(trace.name)
        assert single_region_pcs(chunked) \
            == classifier.single_region_pcs()

    @pytest.mark.parametrize("shard_rows", (None,) + SHARD_SIZES)
    @pytest.mark.parametrize("window", (1, 5, 32))
    def test_windows_match_profiler(self, shard_rows, window):
        trace = _random_trace(42)
        profiler = SlidingWindowProfiler(window)
        profiler.observe_trace(trace.records)
        assert window_stats(self._chunked(trace, shard_rows), window) \
            == profiler.result(trace.name)

    @pytest.mark.parametrize("shard_rows", (None,) + SHARD_SIZES)
    @pytest.mark.parametrize("scheme",
                             sorted(s.name for s in ALL_SCHEMES))
    def test_replay_matches_scalar(self, shard_rows, scheme):
        trace = _random_trace(43)
        chunked = self._chunked(trace, shard_rows)
        hints = hints_from_trace(trace)
        for kwargs in ({}, {"table_size": 8}, {"hints": hints},
                       {"gbh_bits": 3, "cid_bits": 4}):
            assert evaluate_scheme(chunked, scheme, **kwargs) \
                == evaluate_scheme_scalar(trace, scheme, **kwargs), \
                kwargs


class TestRegionStreaming:
    @pytest.mark.parametrize("shard_rows", SHARD_SIZES)
    @pytest.mark.parametrize("seed", range(3))
    def test_breakdown_identical(self, seed, shard_rows):
        trace = _random_trace(seed)
        assert region_breakdown(shard_trace(trace, shard_rows)) \
            == region_breakdown(trace)

    @pytest.mark.parametrize("shard_rows", SHARD_SIZES)
    def test_single_region_pcs_identical(self, shard_rows):
        trace = _random_trace(11)
        assert single_region_pcs(shard_trace(trace, shard_rows)) \
            == single_region_pcs(trace)

    @settings(max_examples=20, deadline=None)
    @given(regions=st.lists(st.sampled_from((-1,) + _REGIONS),
                            max_size=60),
           shard_rows=st.integers(min_value=1, max_value=20))
    def test_property_breakdown(self, regions, shard_rows):
        records = [
            TraceRecord(0x400000, OC_IALU) if region < 0
            else TraceRecord(0x400100, OC_LOAD, addr=0x10000000,
                             mode=3, region=region)
            for region in regions]
        trace = Trace("prop", records)
        sharded = shard_trace(trace, shard_rows)
        assert region_breakdown(sharded) == region_breakdown(trace)
        assert single_region_pcs(sharded) == single_region_pcs(trace)


class TestWindowStreaming:
    @pytest.mark.parametrize("shard_rows", SHARD_SIZES)
    @pytest.mark.parametrize("window", (1, 4, 32, 64))
    def test_window_stats_identical(self, shard_rows, window):
        trace = _random_trace(21)
        assert window_stats(shard_trace(trace, shard_rows), window) \
            == window_stats(trace, window)

    def test_shards_smaller_than_window(self):
        # Every shard (1 row) is smaller than the window: all windows
        # straddle boundaries and come from carry reconstruction.
        trace = _random_trace(22, n=200)
        assert window_stats(shard_trace(trace, 1), 64) \
            == window_stats(trace, 64)

    @settings(max_examples=20, deadline=None)
    @given(regions=st.lists(st.sampled_from((-1,) + _REGIONS),
                            max_size=50),
           window=st.integers(min_value=1, max_value=12),
           shard_rows=st.integers(min_value=1, max_value=15))
    def test_property_windows(self, regions, window, shard_rows):
        records = [
            TraceRecord(0x400000, OC_IALU) if region < 0
            else TraceRecord(0x400100, OC_LOAD, addr=0x10000000,
                             mode=1, region=region)
            for region in regions]
        trace = Trace("prop", records)
        assert window_stats(shard_trace(trace, shard_rows), window) \
            == window_stats(trace, window)


class TestPredictorStreaming:
    @pytest.mark.parametrize("shard_rows", SHARD_SIZES)
    @pytest.mark.parametrize("scheme",
                             sorted(s.name for s in ALL_SCHEMES))
    def test_every_scheme_identical(self, scheme, shard_rows):
        trace = _random_trace(31)
        assert evaluate_scheme(shard_trace(trace, shard_rows), scheme) \
            == evaluate_scheme(trace, scheme)

    @pytest.mark.parametrize("shard_rows", (1, 7, 100))
    def test_finite_table_identical(self, shard_rows):
        # Finite capacity makes entry evictions interact with the
        # cross-shard ARPT state handoff.
        trace = _random_trace(32)
        for scheme in ("1bit-hybrid", "2bit-hybrid"):
            assert evaluate_scheme(shard_trace(trace, shard_rows),
                                   scheme, table_size=16) \
                == evaluate_scheme(trace, scheme, table_size=16)

    @pytest.mark.parametrize("shard_rows", (1, 13, 500))
    def test_hints_and_occupancy_identical(self, shard_rows):
        trace = _random_trace(33)
        sharded = shard_trace(trace, shard_rows)
        hints = hints_from_trace(trace)
        assert evaluate_scheme(sharded, "1bit-hybrid", hints=hints) \
            == evaluate_scheme(trace, "1bit-hybrid", hints=hints)
        assert occupancy_by_context(sharded) \
            == occupancy_by_context(trace)

    @pytest.mark.parametrize("gbh_bits,cid_bits",
                             ((0, 0), (3, 4), (8, 24)))
    def test_context_splits_identical(self, gbh_bits, cid_bits):
        # GBH carry handoff: shards with zero in-chunk branches must
        # still thread the outcome history forward.
        trace = _random_trace(34)
        for shard_rows in (1, 7, 997):
            assert evaluate_scheme(shard_trace(trace, shard_rows),
                                   "1bit-hybrid", gbh_bits=gbh_bits,
                                   cid_bits=cid_bits) \
                == evaluate_scheme(trace, "1bit-hybrid",
                                   gbh_bits=gbh_bits,
                                   cid_bits=cid_bits)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           shard_rows=st.integers(min_value=1, max_value=25))
    def test_property_replay(self, seed, shard_rows):
        trace = _random_trace(seed, n=120)
        sharded = shard_trace(trace, shard_rows)
        for scheme in ("2bit-hybrid", "1bit-gbh"):
            assert evaluate_scheme(sharded, scheme) \
                == evaluate_scheme(trace, scheme)
