"""Differential tests: the columnar timing machine against the oracle.

``tests/oracles/timing_machine.py`` is the object-per-instruction
machine the columnar one replaced.  On random traces, on a middle
window of every workload and (``slow``) on whole traces, both must
return an equal :class:`TimingResult` and publish an equal ``timing.*``
metrics snapshot, for every configuration family the experiments use.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import metrics
from repro.predictor.hints import CompilerHints, hints_from_trace
from repro.timing.config import (conventional_config, decoupled_config,
                                 figure8_configs)
from repro.timing.machine import simulate
from repro.trace.columns import COLUMN_DTYPES, ColumnarTrace
from repro.trace.records import (MODE_CONSTANT, MODE_GLOBAL, MODE_OTHER,
                                 MODE_STACK, OC_BRANCH, OC_CALL, OC_FALU,
                                 OC_FDIV, OC_FMUL, OC_IALU, OC_IDIV,
                                 OC_IMUL, OC_JUMP, OC_LOAD, OC_RET,
                                 OC_STORE, REGION_DATA, REGION_HEAP,
                                 REGION_STACK, Trace, TraceRecord)
from repro.workloads import suite
from tests.oracles.timing_machine import simulate as oracle_simulate

DATA = 0x10000000
HEAP = 0x20000000
STACK = 0x7FFF0000

_DC = decoupled_config(2, 2)
_TIGHT = dict(rob_size=12, lsq_size=3, lvaq_size=3, decode_width=4,
              issue_width=3, commit_width=2,
              fu_counts=(("ialu", 2), ("falu", 1), ("imuldiv", 1),
                         ("fmuldiv", 1)))

#: ``(id, config, hint mode)``; hint mode None = no hints, "trace" =
#: profile-derived hints, "partial" = the tags of every other PC.
FAMILIES = (
    [(f"figure8 {c.name}", c, None) for c in figure8_configs()]
    + [
        ("gshare conventional",
         replace(conventional_config(2), branch_predictor="gshare",
                 bpred_entries=16, bpred_history_bits=3), None),
        ("gshare decoupled",
         replace(decoupled_config(3, 3), branch_predictor="gshare"),
         None),
        ("banked (2b+0)", conventional_config(2, port_policy="banks"),
         None),
        ("banked (4b+0)", conventional_config(4, port_policy="banks"),
         None),
        ("oracle", decoupled_config(2, 2, steering="oracle"), None),
        ("oracle-heap", decoupled_config(2, 2, steering="oracle-heap"),
         None),
        ("hints", decoupled_config(3, 3), "trace"),
        ("partial hints", decoupled_config(2, 2), "partial"),
        ("no value prediction", replace(_DC, value_predict=False), None),
        ("eager value prediction", replace(_DC, vp_confidence=0,
                                           vp_entries=8), None),
        ("arpt none", replace(_DC, arpt_context="none"), None),
        ("arpt gbh", replace(_DC, arpt_context="gbh"), None),
        ("arpt cid", replace(_DC, arpt_context="cid", arpt_cid_bits=4),
         None),
        ("tiny arpt", replace(_DC, arpt_size=4, arpt_gbh_bits=2), None),
        ("unlimited arpt", replace(_DC, arpt_size=None), None),
        ("perfect tlb", replace(_DC, tlb_entries=0), None),
        ("tiny tlb", replace(conventional_config(2), tlb_entries=2,
                             tlb_page_size=256), None),
        ("conservative lvaq", replace(_DC, lvaq_fast_forwarding=False),
         None),
        ("tight conventional", replace(conventional_config(2), **_TIGHT),
         None),
        ("tight decoupled", replace(_DC, **_TIGHT), None),
        ("tight decoupled gshare",
         replace(_DC, branch_predictor="gshare", bpred_entries=8,
                 bpred_history_bits=2, **_TIGHT), None),
    ]
)


def _hints_for(trace: Trace, mode):
    if mode is None:
        return None
    tags = hints_from_trace(trace).tags
    if mode == "partial":
        tags = {pc: tag for pc, tag in tags.items() if (pc >> 3) % 2}
    return CompilerHints(tags=tags)


def _timing_metrics(snapshot: dict) -> dict:
    return {name: value for name, value in snapshot.items()
            if name.startswith("timing.")}


def assert_matches_oracle(trace: Trace, config, hints=None) -> None:
    """Equal TimingResult and equal ``timing.*`` metrics."""
    # The oracle walks record objects; give it its own Trace so the
    # shipped machine never sees a materialised one.
    records = Trace(trace.name, columns=trace.columns).records
    with metrics.collecting() as registry:
        expected = oracle_simulate(Trace(trace.name, records), config,
                                   hints=hints)
    oracle_metrics = _timing_metrics(registry.snapshot())
    with metrics.collecting() as registry:
        got = simulate(trace, config, hints=hints)
    assert got == expected
    assert _timing_metrics(registry.snapshot()) == oracle_metrics


# -- random traces ------------------------------------------------------

_REGIONS = [
    (REGION_DATA, DATA, MODE_GLOBAL),
    (REGION_DATA, DATA, MODE_CONSTANT),
    (REGION_DATA, DATA, MODE_OTHER),
    (REGION_HEAP, HEAP, MODE_OTHER),
    (REGION_STACK, STACK, MODE_STACK),
    (REGION_STACK, STACK, MODE_OTHER),
]

_ALU_CLASSES = (OC_IALU, OC_IALU, OC_IALU, OC_IMUL, OC_IDIV, OC_FALU,
                OC_FMUL, OC_FDIV, OC_JUMP, OC_CALL, OC_RET)


@st.composite
def random_traces(draw, max_size=90):
    """Instruction streams mixing every op class, register reuse,
    strided and random values, aliased PCs, branch outcomes, region
    and mode combinations, shared words and pages."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    regs = st.integers(min_value=-1, max_value=12)
    counters = {}
    records = []
    for _ in range(n):
        pc = 0x400000 + draw(st.integers(min_value=0, max_value=11)) * 8
        kind = draw(st.integers(min_value=0, max_value=5))
        if kind == 0:
            records.append(TraceRecord(
                pc, OC_BRANCH, src1=draw(regs), src2=draw(regs),
                taken=draw(st.booleans())))
            continue
        value_kind = draw(st.integers(min_value=0, max_value=2))
        if value_kind == 0:
            value = None
        elif value_kind == 1:
            step = counters.get(pc, 0) + 1
            counters[pc] = step
            value = step * (pc % 7 + 1)      # a per-PC stride
        else:
            value = draw(st.integers(min_value=0, max_value=5))
        if kind <= 2:
            records.append(TraceRecord(
                pc, draw(st.sampled_from(_ALU_CLASSES)), dst=draw(regs),
                src1=draw(regs), src2=draw(regs), value=value))
            continue
        region, base, mode = draw(st.sampled_from(_REGIONS))
        addr = base + draw(st.integers(min_value=0, max_value=7)) * 8 \
            + draw(st.sampled_from([0, 0, 0, 32, 4096, 3 * 4096]))
        ra = 0x400000 + draw(st.integers(min_value=0, max_value=3)) * 8
        if kind <= 4:
            records.append(TraceRecord(
                pc, OC_LOAD, dst=draw(regs), src1=draw(regs), addr=addr,
                mode=mode, region=region, ra=ra, value=value))
        else:
            records.append(TraceRecord(
                pc, OC_STORE, src1=draw(regs), src2=draw(regs),
                addr=addr, mode=mode, region=region, ra=ra))
    return records


@pytest.mark.parametrize("family", FAMILIES, ids=[f[0] for f in FAMILIES])
@settings(max_examples=20, deadline=None)
@given(records=random_traces())
def test_random_traces_match_oracle(family, records):
    _, config, hint_mode = family
    trace = Trace("random", records)
    assert_matches_oracle(trace, config, _hints_for(trace, hint_mode))


def test_empty_trace_matches_oracle():
    for _, config, _ in FAMILIES:
        assert_matches_oracle(Trace("empty", []), config)


def test_huge_values_match_oracle():
    """Values near the int64 limits, whose strides do not fit in an
    int64, still give the value predictor's exact verdicts."""
    top = (1 << 63) - 1
    values = [top - 3 * i for i in range(40)] + [-top + 5 * i
                                                 for i in range(40)]
    records = [TraceRecord(0x400000, OC_IALU, dst=5, src1=5, value=v)
               for v in values]
    trace = Trace("huge", records)
    assert_matches_oracle(trace, conventional_config(2))
    assert simulate(trace, conventional_config(2)).vp_bypasses > 60


# -- workloads ----------------------------------------------------------

WINDOW = 4000


def _middle_window(trace: Trace, rows: int) -> Trace:
    columns = trace.columns
    start = max(0, (len(columns) - rows) // 2)
    stop = min(len(columns), start + rows)
    window = ColumnarTrace(
        *(getattr(columns, name)[start:stop] for name, _ in COLUMN_DTYPES),
        columns.value[start:stop], columns.value_valid[start:stop])
    return Trace(name=trace.name, columns=window)


@pytest.mark.parametrize("name", suite.ALL_WORKLOADS)
def test_workload_window_matches_oracle(name):
    """A 4,000-instruction middle window of each workload at scale
    0.05, on the 8 Figure-8 configurations (one shared precompute)."""
    try:
        window = _middle_window(suite.run(name, 0.05), WINDOW)
    finally:
        suite.evict(name, 0.05)
    for config in figure8_configs():
        assert_matches_oracle(window, config)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["ccomp", "db_vortex"])
def test_whole_trace_matches_oracle(name):
    """Whole scale-0.05 traces of the two smallest workloads (~33k
    instructions each) on the 8 Figure-8 configurations."""
    try:
        trace = suite.run(name, 0.05)
    finally:
        suite.evict(name, 0.05)
    for config in figure8_configs():
        assert_matches_oracle(trace, config)
