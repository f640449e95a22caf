"""Vectorised predictor replay vs. the scalar reference implementation.

``evaluate_scheme`` replays traces through NumPy array operations
(definitive-rule scoring, convolution-derived branch history, grouped
1-bit table replay); ``evaluate_scheme_scalar``
(``tests/oracles/scalar.py``) walks records through the live
ARPT/ContextTracker structures.  Every scheme, table size, and
hint configuration must produce identical PredictionResults on random
traces (hypothesis plus fixed seeds) and real compiled workloads.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import run_source
from repro.predictor.evaluate import evaluate_scheme, occupancy_by_context
from repro.predictor.hints import hints_from_trace
from repro.predictor.schemes import ALL_SCHEMES, Scheme
from repro.trace.records import (OC_BRANCH, OC_IALU, OC_LOAD, OC_STORE,
                                 REGION_DATA, REGION_HEAP, REGION_STACK,
                                 Trace, TraceRecord)

from tests.oracles.scalar import evaluate_scheme_scalar

_REGIONS = (REGION_DATA, REGION_HEAP, REGION_STACK)
_SCHEME_NAMES = tuple(s.name for s in ALL_SCHEMES)


def _random_trace(seed: int, n: int = 400) -> Trace:
    """Branches, ALU ops, and memory references over small PC/RA pools
    so table aliasing, context separation, and multi-region PCs all
    occur."""
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        draw = rng.random()
        if draw < 0.2:
            records.append(TraceRecord(0x400800 + 8 * rng.randrange(4),
                                       OC_BRANCH,
                                       taken=rng.random() < 0.5))
        elif draw < 0.3:
            records.append(TraceRecord(0x400000, OC_IALU, dst=3,
                                       value=rng.randrange(100)))
        else:
            records.append(TraceRecord(
                0x400100 + 8 * rng.randrange(8),
                OC_LOAD if rng.random() < 0.7 else OC_STORE,
                addr=0x10000000 + 8 * rng.randrange(32),
                mode=rng.choice((0, 1, 2, 3, 3, 3)),
                region=rng.choice(_REGIONS),
                ra=0x400008 + 8 * rng.randrange(4)))
    return Trace(f"rand{seed}", records)


@pytest.fixture(scope="module")
def real_trace():
    return run_source("""
        int g[24];
        int sum(int* p, int n) {
          int t = 0;
          for (int i = 0; i < n; i += 1) t += p[i];
          return t;
        }
        int main() {
          int* h = (int*) malloc(24);
          int local[24];
          for (int i = 0; i < 24; i += 1) {
            g[i] = i; h[i] = 2 * i; local[i] = 3 * i;
          }
          print_int(sum(g, 24) + sum(h, 24) + sum(local, 24));
          free(h);
          return 0;
        }
    """, "eval-equiv-real")


def _assert_equivalent(trace, scheme, table_size=None, hints=None,
                       gbh_bits=8, cid_bits=24):
    fast = evaluate_scheme(trace, scheme, table_size=table_size,
                           hints=hints, gbh_bits=gbh_bits,
                           cid_bits=cid_bits)
    reference = evaluate_scheme_scalar(trace, scheme,
                                       table_size=table_size,
                                       hints=hints, gbh_bits=gbh_bits,
                                       cid_bits=cid_bits)
    assert fast == reference


class TestSchemeEquivalence:
    @pytest.mark.parametrize("scheme", _SCHEME_NAMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_unlimited_table(self, scheme, seed):
        _assert_equivalent(_random_trace(seed), scheme)

    @pytest.mark.parametrize("scheme", _SCHEME_NAMES)
    @pytest.mark.parametrize("table_size", (1, 16, 256))
    def test_limited_table(self, scheme, table_size):
        _assert_equivalent(_random_trace(7), scheme,
                           table_size=table_size)

    @pytest.mark.parametrize("scheme", ("static", "1bit", "1bit-hybrid",
                                        "2bit-hybrid"))
    def test_with_hints(self, scheme):
        trace = _random_trace(11)
        _assert_equivalent(trace, scheme,
                           hints=hints_from_trace(trace))
        _assert_equivalent(trace, scheme, table_size=16,
                           hints=hints_from_trace(trace))

    @pytest.mark.parametrize("gbh_bits,cid_bits",
                             ((0, 24), (8, 0), (4, 12), (0, 0)))
    def test_context_width_ablation(self, gbh_bits, cid_bits):
        trace = _random_trace(13)
        for scheme in ("1bit-gbh", "1bit-cid", "1bit-hybrid"):
            _assert_equivalent(trace, scheme, gbh_bits=gbh_bits,
                               cid_bits=cid_bits)

    @pytest.mark.parametrize("scheme", _SCHEME_NAMES)
    def test_real_trace(self, real_trace, scheme):
        _assert_equivalent(real_trace, scheme)
        _assert_equivalent(real_trace, scheme, table_size=64)
        _assert_equivalent(real_trace, scheme,
                           hints=hints_from_trace(real_trace))

    def test_empty_and_memoryless_traces(self):
        for trace in (Trace("empty"),
                      Trace("branches", [TraceRecord(0x400800, OC_BRANCH,
                                                     taken=True)])):
            for scheme in ("static", "1bit-hybrid"):
                _assert_equivalent(trace, scheme)

    @settings(max_examples=20, deadline=None)
    @given(choices=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=3),
                  st.sampled_from(_REGIONS),
                  st.integers(min_value=0, max_value=2),
                  st.booleans()), max_size=80),
        scheme=st.sampled_from(("1bit", "1bit-gbh", "1bit-cid",
                                "1bit-hybrid", "2bit-hybrid")))
    def test_property_random_traces(self, choices, scheme):
        records = []
        for pc_slot, mode, region, ra_slot, is_branch in choices:
            if is_branch:
                records.append(TraceRecord(0x400800, OC_BRANCH,
                                           taken=mode % 2 == 0))
            else:
                records.append(TraceRecord(
                    0x400100 + 8 * pc_slot, OC_LOAD, addr=0x10000000,
                    mode=mode, region=region,
                    ra=0x400008 + 8 * ra_slot))
        _assert_equivalent(Trace("prop", records), scheme)
        _assert_equivalent(Trace("prop", records), scheme, table_size=4)


_TWO_BIT_SCHEMES = tuple(s.name for s in ALL_SCHEMES if s.bits == 2)


class TestTwoBitEquivalence:
    """The grouped freeze-scan 2-bit replay vs. live saturating
    counters: correct/total counts, occupancy, the works."""

    @pytest.mark.parametrize("scheme", _TWO_BIT_SCHEMES)
    @pytest.mark.parametrize("seed", (0, 1, 2, 19, 23))
    def test_fixed_seeds(self, scheme, seed):
        _assert_equivalent(_random_trace(seed, n=600), scheme)

    @pytest.mark.parametrize("scheme", _TWO_BIT_SCHEMES)
    @pytest.mark.parametrize("table_size", (1, 4, 64, 256))
    def test_limited_table(self, scheme, table_size):
        _assert_equivalent(_random_trace(17), scheme,
                           table_size=table_size)

    @pytest.mark.parametrize("scheme", _TWO_BIT_SCHEMES)
    def test_real_trace(self, real_trace, scheme):
        _assert_equivalent(real_trace, scheme)
        _assert_equivalent(real_trace, scheme, table_size=128)
        _assert_equivalent(real_trace, scheme,
                           hints=hints_from_trace(real_trace))

    def test_long_biased_runs_saturate(self):
        """Long same-direction runs pin counters at 0/3 - the freeze
        fast path - with direction flips at run boundaries."""
        records = []
        for block in range(8):
            stack = block % 2 == 0
            for _ in range(50):
                records.append(TraceRecord(
                    0x400100 + 8 * (block % 3), OC_LOAD,
                    addr=0x10000000, mode=3,
                    region=REGION_STACK if stack else REGION_HEAP,
                    ra=0x400008))
        trace = Trace("biased", records)
        for scheme in _TWO_BIT_SCHEMES:
            _assert_equivalent(trace, scheme)
            _assert_equivalent(trace, scheme, table_size=2)

    @settings(max_examples=25, deadline=None)
    @given(choices=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=3),
                  st.sampled_from(_REGIONS),
                  st.integers(min_value=0, max_value=2),
                  st.booleans()), max_size=120),
        scheme=st.sampled_from(_TWO_BIT_SCHEMES))
    def test_property_random_traces(self, choices, scheme):
        records = []
        for pc_slot, mode, region, ra_slot, is_branch in choices:
            if is_branch:
                records.append(TraceRecord(0x400800, OC_BRANCH,
                                           taken=mode % 2 == 0))
            else:
                records.append(TraceRecord(
                    0x400100 + 8 * pc_slot, OC_LOAD, addr=0x10000000,
                    mode=mode, region=region,
                    ra=0x400008 + 8 * ra_slot))
        trace = Trace("prop2bit", records)
        _assert_equivalent(trace, scheme)
        _assert_equivalent(trace, scheme, table_size=8)


class TestTableSizeValidation:
    """Non-power-of-two sizes would silently alias under the index
    mask; both replay paths must reject them up front."""

    @pytest.mark.parametrize("table_size", (100, 3, 12, 0, -16))
    @pytest.mark.parametrize("scheme", ("1bit", "2bit-hybrid"))
    def test_rejects_invalid_sizes(self, scheme, table_size):
        trace = _random_trace(5, n=40)
        with pytest.raises(ValueError, match="power of two"):
            evaluate_scheme(trace, scheme, table_size=table_size)
        with pytest.raises(ValueError, match="power of two"):
            evaluate_scheme_scalar(trace, scheme,
                                   table_size=table_size)

    def test_accepts_powers_of_two_and_unlimited(self):
        trace = _random_trace(5, n=40)
        for table_size in (None, 1, 2, 64, 1024):
            evaluate_scheme(trace, "2bit", table_size=table_size)


class TestOccupancyByContext:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_probes(self, seed):
        trace = _random_trace(seed)
        fast = occupancy_by_context(trace)
        for context, occupancy in fast.items():
            scheme = Scheme(f"probe-{context}", uses_table=True, bits=1,
                            context=context)
            reference = evaluate_scheme_scalar(trace, scheme)
            assert occupancy == reference.occupancy, context

    def test_real_trace(self, real_trace):
        fast = occupancy_by_context(real_trace)
        for context, occupancy in fast.items():
            scheme = Scheme(f"probe-{context}", uses_table=True, bits=1,
                            context=context)
            assert occupancy \
                == evaluate_scheme_scalar(real_trace, scheme).occupancy
