"""Vectorised profiler paths vs. the retained scalar references.

The Figure 2 breakdown and Table 2 window statistics are computed with
NumPy reductions over the columnar view; ``RegionClassifier`` and
``SlidingWindowProfiler`` (``tests/oracles/scalar.py``) remain the
record-at-a-time ground truth.
These tests pin the fast paths to the references on random traces
(hypothesis plus fixed seeds) and on a real compiled workload.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import run_source
from repro.trace.records import (MODE_OTHER, MODE_STACK, OC_BRANCH,
                                 OC_IALU, OC_LOAD, OC_STORE, REGION_DATA,
                                 REGION_HEAP, REGION_STACK, Trace,
                                 TraceRecord)
from repro.trace.regions import region_breakdown, single_region_pcs
from repro.trace.windows import window_stats

from tests.oracles.scalar import RegionClassifier, SlidingWindowProfiler

_REGIONS = (REGION_DATA, REGION_HEAP, REGION_STACK)


def _random_trace(seed: int, n: int = 300) -> Trace:
    """A mixed trace with deliberately few distinct PCs, so multiple
    region classes and PC collisions actually occur."""
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        draw = rng.random()
        if draw < 0.15:
            records.append(TraceRecord(0x400800 + 8 * rng.randrange(4),
                                       OC_BRANCH,
                                       taken=rng.random() < 0.5))
        elif draw < 0.3:
            records.append(TraceRecord(0x400000 + 8 * rng.randrange(8),
                                       OC_IALU, dst=rng.randrange(32),
                                       value=rng.randrange(-50, 50)))
        else:
            records.append(TraceRecord(
                0x400100 + 8 * rng.randrange(6),
                OC_LOAD if rng.random() < 0.7 else OC_STORE,
                addr=0x10000000 + 8 * rng.randrange(64),
                mode=rng.choice((0, 1, 2, 3, 3)),
                region=rng.choice(_REGIONS),
                ra=0x400008 + 8 * rng.randrange(3)))
    return Trace(f"rand{seed}", records)


@pytest.fixture(scope="module")
def real_trace():
    return run_source("""
        int g[32];
        int helper(int* p, int i) { return p[i] + i; }
        int main() {
          int* h = (int*) malloc(16);
          int local[4];
          int t = 0;
          for (int i = 0; i < 32; i += 1) {
            g[i] = i;
            if (i < 16) h[i] = i * 3;
            local[i % 4] = i;
            t += helper(g, i) + local[i % 4];
          }
          print_int(t);
          free(h);
          return 0;
        }
    """, "vec-equiv-real")


def _reference_breakdown(trace):
    classifier = RegionClassifier()
    classifier.observe_trace(trace.records)
    return classifier


class TestRegionBreakdownEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_fixed_seed_traces(self, seed):
        trace = _random_trace(seed)
        reference = _reference_breakdown(trace).breakdown(trace.name)
        assert region_breakdown(trace) == reference

    def test_real_trace(self, real_trace):
        reference = _reference_breakdown(real_trace)\
            .breakdown(real_trace.name)
        assert region_breakdown(real_trace) == reference

    def test_empty_trace(self):
        assert region_breakdown(Trace("empty")).total_dynamic == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_single_region_pcs(self, seed):
        trace = _random_trace(seed)
        assert single_region_pcs(trace) \
            == _reference_breakdown(trace).single_region_pcs()

    def test_single_region_pcs_real(self, real_trace):
        assert single_region_pcs(real_trace) \
            == _reference_breakdown(real_trace).single_region_pcs()

    @settings(max_examples=25, deadline=None)
    @given(choices=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5),
                  st.sampled_from(_REGIONS),
                  st.booleans()), max_size=60))
    def test_property_random_mem_traces(self, choices):
        records = [TraceRecord(0x400100 + 8 * pc_slot,
                               OC_LOAD if is_load else OC_STORE,
                               addr=0x10000000, mode=MODE_OTHER,
                               region=region)
                   for pc_slot, region, is_load in choices]
        trace = Trace("prop", records)
        reference = _reference_breakdown(trace)
        assert region_breakdown(trace) == reference.breakdown("prop")
        assert single_region_pcs(trace) == reference.single_region_pcs()


def _reference_windows(trace, window):
    profiler = SlidingWindowProfiler(window)
    profiler.observe_trace(trace.records)
    return profiler.result(trace.name)


class TestWindowStatsEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("window", (1, 4, 32))
    def test_fixed_seed_traces(self, seed, window):
        trace = _random_trace(seed)
        assert window_stats(trace, window) \
            == _reference_windows(trace, window)

    @pytest.mark.parametrize("window", (1, 16, 64, 128))
    def test_real_trace(self, real_trace, window):
        assert window_stats(real_trace, window) \
            == _reference_windows(real_trace, window)

    def test_window_larger_than_trace(self):
        trace = _random_trace(0, n=10)
        result = window_stats(trace, 64)
        assert result == _reference_windows(trace, 64)
        assert result.data.samples == 0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            window_stats(_random_trace(0, n=4), 0)

    @settings(max_examples=25, deadline=None)
    @given(regions=st.lists(st.sampled_from((-1,) + _REGIONS),
                            max_size=80),
           window=st.integers(min_value=1, max_value=12))
    def test_property_random_sequences(self, regions, window):
        records = []
        for region in regions:
            if region < 0:
                records.append(TraceRecord(0x400000, OC_IALU))
            else:
                records.append(TraceRecord(0x400100, OC_LOAD,
                                           addr=0x10000000,
                                           mode=MODE_STACK,
                                           region=region))
        trace = Trace("prop", records)
        assert window_stats(trace, window) \
            == _reference_windows(trace, window)
