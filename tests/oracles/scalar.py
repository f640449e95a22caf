"""Record-at-a-time reference implementations of the shipped reductions.

The package computes Figure 2 (:func:`repro.trace.regions.region_breakdown`),
Table 2 (:func:`repro.trace.windows.window_stats`) and the predictor
replay (:func:`repro.predictor.evaluate.evaluate_scheme`) vectorised
over trace columns.  These are the straightforward scalar versions
they replaced - one :class:`~repro.trace.records.TraceRecord` at a
time through dicts, a ring buffer and the live
:class:`~repro.predictor.arpt.ARPT` - kept here as test oracles: the
equivalence and hypothesis suites pin the shipped code against them.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

from repro.predictor.arpt import ARPT
from repro.predictor.contexts import ContextTracker, context_function
from repro.predictor.evaluate import PredictionResult, _validate_table_size
from repro.predictor.hints import CompilerHints
from repro.predictor.schemes import scheme_by_name
from repro.predictor.static_rules import mode_is_definitive, \
    static_predicts_stack
from repro.trace.records import (REGION_DATA, REGION_HEAP, REGION_STACK,
                                 Trace, TraceRecord)
from repro.trace.regions import (_CLASS_OF_MASK, REGION_CLASSES,
                                 RegionBreakdown)
from repro.trace.windows import RegionWindowStats, WindowStats

_BIT_OF_REGION = {REGION_DATA: 0b001, REGION_HEAP: 0b010, REGION_STACK: 0b100}


class RegionClassifier:
    """Streams trace records and accumulates the per-PC region sets."""

    def __init__(self) -> None:
        self._region_mask: Dict[int, int] = {}   # pc -> region bit mask
        self._dynamic: Dict[int, int] = {}       # pc -> dynamic ref count

    def observe(self, record: TraceRecord) -> None:
        if record.region < 0:
            return
        bit = _BIT_OF_REGION[record.region]
        pc = record.pc
        self._region_mask[pc] = self._region_mask.get(pc, 0) | bit
        self._dynamic[pc] = self._dynamic.get(pc, 0) + 1

    def observe_trace(self, trace: Iterable[TraceRecord]) -> None:
        masks = self._region_mask
        dyn = self._dynamic
        for record in trace:
            if record.region < 0:
                continue
            bit = _BIT_OF_REGION[record.region]
            pc = record.pc
            masks[pc] = masks.get(pc, 0) | bit
            dyn[pc] = dyn.get(pc, 0) + 1

    def class_of_pc(self, pc: int) -> str:
        return _CLASS_OF_MASK[self._region_mask[pc]]

    def breakdown(self, name: str = "") -> RegionBreakdown:
        static_counts = {cls: 0 for cls in REGION_CLASSES}
        dynamic_counts = {cls: 0 for cls in REGION_CLASSES}
        for pc, mask in self._region_mask.items():
            cls = _CLASS_OF_MASK[mask]
            static_counts[cls] += 1
            dynamic_counts[cls] += self._dynamic[pc]
        return RegionBreakdown(name=name, static_counts=static_counts,
                               dynamic_counts=dynamic_counts)

    def single_region_pcs(self) -> Dict[int, bool]:
        """PC -> is_stack for instructions that touch exactly one region.

        This is the paper's idealised *compiler hint* information
        (Section 3.5.2): an instruction the profile shows to access a
        single region is assumed classifiable by the compiler.
        """
        result: Dict[int, bool] = {}
        for pc, mask in self._region_mask.items():
            if mask in (0b001, 0b010):
                result[pc] = False
            elif mask == 0b100:
                result[pc] = True
        return result


class SlidingWindowProfiler:
    """O(N) streaming computation of the per-region window statistics."""

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ValueError("window size must be positive")
        self.window = window
        # Ring buffer of region codes (-1 for non-memory instructions).
        self._ring = [-1] * window
        self._fill = 0
        self._pos = 0
        self._counts = {REGION_DATA: 0, REGION_HEAP: 0, REGION_STACK: 0}
        self._sums = {REGION_DATA: 0, REGION_HEAP: 0, REGION_STACK: 0}
        self._sumsq = {REGION_DATA: 0, REGION_HEAP: 0, REGION_STACK: 0}
        self._samples = 0

    def observe(self, record: TraceRecord) -> None:
        ring = self._ring
        window = self.window
        counts = self._counts
        if self._fill == window:
            old = ring[self._pos]
            if old >= 0:
                counts[old] -= 1
        else:
            self._fill += 1
        region = record.region if record.is_mem else -1
        ring[self._pos] = region
        if region >= 0:
            counts[region] += 1
        self._pos = (self._pos + 1) % window
        if self._fill == window:
            self._samples += 1
            for code in (REGION_DATA, REGION_HEAP, REGION_STACK):
                count = counts[code]
                self._sums[code] += count
                self._sumsq[code] += count * count

    def observe_trace(self, records: Iterable[TraceRecord]) -> None:
        for record in records:
            self.observe(record)

    def _stats(self, code: int) -> WindowStats:
        n = self._samples
        if n == 0:
            return WindowStats(mean=0.0, std=0.0, samples=0)
        mean = self._sums[code] / n
        variance = max(0.0, self._sumsq[code] / n - mean * mean)
        return WindowStats(mean=mean, std=math.sqrt(variance), samples=n)

    def result(self, name: str = "") -> RegionWindowStats:
        return RegionWindowStats(
            name=name, window=self.window,
            data=self._stats(REGION_DATA),
            heap=self._stats(REGION_HEAP),
            stack=self._stats(REGION_STACK),
        )


def evaluate_scheme_scalar(trace: Trace, scheme,
                           table_size: Optional[int] = None,
                           hints: Optional[CompilerHints] = None,
                           gbh_bits: int = 8,
                           cid_bits: int = 24) -> PredictionResult:
    """Record-at-a-time reference implementation of
    :func:`repro.predictor.evaluate.evaluate_scheme`.

    Walks :class:`TraceRecord` objects through the live
    :class:`ARPT`/:class:`ContextTracker` structures exactly as the
    hardware would.  Publishes no metrics.
    """
    if isinstance(scheme, str):
        scheme = scheme_by_name(scheme)
    _validate_table_size(table_size)
    tracker = ContextTracker(gbh_bits=gbh_bits, cid_bits=cid_bits)
    table = ARPT(size=table_size, bits=scheme.bits) if scheme.uses_table \
        else None
    get_context = (context_function(tracker, scheme.context)
                   if scheme.uses_table else None)
    hint_tags = hints.tags if hints is not None else {}

    total = correct = 0
    definitive = definitive_correct = 0
    table_predictions = table_correct = 0
    hinted = 0

    for record in trace.records:
        if record.is_branch:
            tracker.observe_branch(record.taken)
            continue
        if not record.is_mem:
            continue
        total += 1
        actual = record.is_stack
        mode = record.mode
        if mode_is_definitive(mode):
            prediction = static_predicts_stack(mode)
            definitive += 1
            if prediction == actual:
                definitive_correct += 1
                correct += 1
            continue
        # Rule-4 (unknown-mode) reference.
        tag = hint_tags.get(record.pc)
        if tag is not None:
            hinted += 1
            if tag == actual:
                correct += 1
            continue
        if table is None:
            prediction = False  # static heuristic #4: predict non-stack
        else:
            context = get_context(record)
            prediction = table.predict_and_update(record.pc, context,
                                                  actual)
            table_predictions += 1
            if prediction == actual:
                table_correct += 1
        if prediction == actual:
            correct += 1

    return PredictionResult(
        scheme=scheme.name,
        trace_name=trace.name,
        total=total,
        correct=correct,
        definitive=definitive,
        definitive_correct=definitive_correct,
        table_predictions=table_predictions,
        table_correct=table_correct,
        hinted=hinted,
        occupancy=table.occupancy if table is not None else 0,
        table_size=table_size,
    )
