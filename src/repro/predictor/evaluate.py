"""Trace-driven evaluation of region-prediction schemes.

Replays a dynamic trace through a scheme exactly as the hardware would
see it: branch outcomes update the global history, each memory reference
is predicted *before* its address is known (static rules first, then the
ARPT for unknown-mode instructions), and the table is trained with the
verified region afterwards.  Produces the numbers behind the paper's
Figure 4 (accuracy per scheme), Table 3 (table occupancy per context),
and Figure 5 (accuracy vs. table size, with and without compiler hints).

The replay runs on the columnar trace view.  References covered by the
definitive addressing-mode rules 1-3 - the overwhelming majority - are
scored entirely in NumPy; per-reference context values (global branch
history via a convolution over the branch-outcome array, caller id from
the link-register column) are likewise precomputed vectorised.  For
rule-4 references, the 1-bit ARPT replay is exact in NumPy too (a
tagless 1-bit entry predicts the *previous* outcome observed at its
index, which one stable sort per table exposes as a grouped shift).
The 2-bit hysteresis ablation is vectorised as well: a saturating
counter is the composition of clamp-add steps, and such compositions
form a closed monoid (``f(x) = min(hi, max(lo, x + a))``), so one
segmented Hillis-Steele scan over per-index groups replays every
counter in ``O(n log L)`` array operations (L = longest per-index run;
see :func:`_counter_states`).

Every replay is one loop over the trace's chunks - a single chunk for
an in-RAM :class:`Trace`, one per shard for a
:class:`~repro.trace.shards.ShardedTrace` - carrying the branch-outcome
history and the ARPT entry state across chunk boundaries, so the
result does not depend on how the trace is chunked.
``evaluate_scheme_scalar`` is the retained record-at-a-time reference
implementation the equivalence tests pin the fast path against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro import metrics
from repro.obs import spans
from repro.predictor.arpt import ARPT, PC_SHIFT
from repro.predictor.contexts import CONTEXT_KINDS, ContextTracker, \
    context_function
from repro.predictor.hints import CompilerHints
from repro.predictor.schemes import Scheme, scheme_by_name
from repro.predictor.static_rules import mode_is_definitive, \
    static_predicts_stack
from repro.trace.records import (MODE_CONSTANT, MODE_GLOBAL, MODE_STACK,
                                 OC_BRANCH, REGION_STACK, Trace)
from repro.trace.shards import iter_chunks

_CID_SHIFT = 3  # drop always-zero alignment bits of the return address


@dataclass
class PredictionResult:
    """Outcome of replaying one trace through one scheme."""

    scheme: str
    trace_name: str
    total: int                 # dynamic memory references
    correct: int
    definitive: int            # covered by addressing-mode rules 1-3
    definitive_correct: int
    table_predictions: int     # rule-4 references that consulted the ARPT
    table_correct: int
    hinted: int                # references answered by compiler hints
    occupancy: int             # distinct ARPT entries written
    table_size: Optional[int]  # None = unlimited

    @property
    def accuracy(self) -> float:
        """Overall fraction of correctly classified dynamic references."""
        return self.correct / max(1, self.total)

    @property
    def definitive_fraction(self) -> float:
        """Fraction of references whose mode manifests the region."""
        return self.definitive / max(1, self.total)

    @property
    def table_accuracy(self) -> float:
        return self.table_correct / max(1, self.table_predictions)


class _ReplayPrepass:
    """Context-independent arrays shared by every scheme replay.

    Built once per (trace, gbh_bits, cid_bits): the memory-reference
    subsequence with its actual regions, the rules-1-3 definitive
    tallies, and the per-reference GBH/CID context values.  Evaluating
    several schemes - or `occupancy_by_context`'s four probes - on the
    same trace only repeats the (cheap) rule-4 table replay.

    The replay builds one prepass per chunk, threading the
    *branch-outcome carry* through: ``gbh_carry`` holds the last
    ``min(gbh_bits, branches so far)`` outcomes, which fully determine
    the global-history register at the chunk boundary, and
    ``branch_tail`` is the carry to hand to the next chunk.
    """

    __slots__ = ("pc", "actual", "mode_unknown", "gbh", "cid",
                 "gbh_bits", "total", "definitive", "definitive_correct",
                 "branch_tail")

    def __init__(self, columns, gbh_bits: int, cid_bits: int,
                 gbh_carry: Optional[np.ndarray] = None) -> None:
        if gbh_bits < 0 or cid_bits < 0:
            raise ValueError("context bit widths must be non-negative")
        self.gbh_bits = gbh_bits
        op = columns.op_class
        mem = columns.memory_mask()
        mem_idx = np.flatnonzero(mem)
        self.pc = columns.pc[mem_idx]
        mode = columns.mode[mem_idx]
        self.actual = columns.region[mem_idx] == REGION_STACK
        self.total = len(mem_idx)

        # Rules 1-3: the addressing mode manifests the region.
        definitive = (mode == MODE_CONSTANT) | (mode == MODE_STACK) \
            | (mode == MODE_GLOBAL)
        self.mode_unknown = ~definitive
        self.definitive = int(np.count_nonzero(definitive))
        self.definitive_correct = int(np.count_nonzero(
            definitive & ((mode == MODE_STACK) == self.actual)))

        # GBH at each memory reference: the history register after the
        # j-th branch is the convolution of branch outcomes with
        # [1, 2, 4, ...] truncated to gbh_bits taps; a searchsorted
        # maps each reference to the number of branches retired before
        # it.  Matches ContextTracker's shift register bit for bit.
        # With a carry, the carried outcomes are prepended so windows
        # straddling the chunk boundary see the real history; the
        # register after k branches only depends on the last
        # min(gbh_bits, k) outcomes, so the carry is always enough.
        branch_idx = np.flatnonzero(op == OC_BRANCH)
        carry = gbh_carry if gbh_carry is not None \
            else np.zeros(0, dtype=np.int64)
        if gbh_bits and (len(branch_idx) or len(carry)):
            outcomes = np.concatenate(
                (carry, columns.taken[branch_idx].astype(np.int64)))
            kernel = np.left_shift(1, np.arange(gbh_bits, dtype=np.int64))
            history = np.concatenate(
                ([0], np.convolve(outcomes, kernel)[:len(outcomes)]))
            self.gbh = history[len(carry)
                               + np.searchsorted(branch_idx, mem_idx)]
            self.branch_tail = outcomes[max(0, len(outcomes)
                                            - gbh_bits):]
        else:
            self.gbh = np.zeros(self.total, dtype=np.int64)
            self.branch_tail = carry

        cid_mask = (1 << cid_bits) - 1 if cid_bits else 0
        self.cid = (columns.ra[mem_idx] >> _CID_SHIFT) & cid_mask

    def context(self, kind: str) -> np.ndarray:
        """Per-memory-reference context values for a scheme's indexing."""
        if kind == "none":
            return np.zeros(self.total, dtype=np.int64)
        if kind == "gbh":
            return self.gbh
        if kind == "cid":
            return self.cid
        if kind == "hybrid":
            return self.gbh | (self.cid << self.gbh_bits)
        raise ValueError(f"unknown context kind {kind!r}; "
                         f"expected one of {CONTEXT_KINDS}")


def _hint_tags_for(pc: np.ndarray, hints: Optional[CompilerHints])\
        -> np.ndarray:
    """Per-reference hint tag (-1 untagged, 0 non-stack, 1 stack)."""
    if hints is None or not hints.tags:
        return np.full(len(pc), -1, dtype=np.int64)
    unique, inverse = np.unique(pc, return_inverse=True)
    lookup = hints.tags.get
    per_unique = np.fromiter(
        ((-1 if tag is None else int(tag))
         for tag in map(lookup, unique.tolist())),
        dtype=np.int64, count=len(unique))
    return per_unique[inverse]


def _validate_table_size(table_size: Optional[int]) -> None:
    """Reject table sizes the direct-mapped model cannot index.

    The replay masks indices with ``table_size - 1``, which only
    equals ``index % table_size`` for powers of two; a non-power-of-two
    size would silently alias references onto wrong entries.  The live
    :class:`ARPT` enforces the same rule in its constructor.
    """
    if table_size is None:
        return
    if table_size <= 0 or table_size & (table_size - 1):
        raise ValueError("ARPT size must be a power of two")


def _counter_states(first: np.ndarray, d: np.ndarray,
                    seed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Saturating-counter states around each access, per sorted group.

    Returns ``(before, after)``: the counter value each access read and
    the value it left behind.  ``first`` flags group starts in an
    index-sorted reference stream; ``d`` is the per-access counter
    increment (+1 stack, -1 non-stack).  Each group replays
    ``c = clip(c + d, 0, 3)`` from its ``seed`` entry (one value per
    group in start order: the entry state carried from earlier chunks,
    0 for a cold entry).  A clamp-add step is
    ``f(x) = min(hi, max(lo, x + a))`` and the
    composition of two such functions is again one (apply ``f`` then
    ``g``: ``a' = a_f + a_g``, ``lo' = clip(lo_f + a_g, lo_g, hi_g)``,
    ``hi' = clip(hi_f + a_g, lo_g, hi_g)``), so the per-group inclusive
    prefix compositions fall out of a segmented Hillis-Steele doubling
    scan - ``O(n log L)`` array ops for a longest group run of L.

    The shift term ``a`` of every window composite is just a
    difference of the global cumulative sum of ``d`` (windows never
    straddle a group boundary), so only the ``lo``/``hi`` bound arrays
    are actually scanned.  A window whose composite has saturated
    (``lo == hi``) is a constant function - no wider window can change
    it - so such references *freeze* and drop out of the scan.  Real
    reference streams are heavily biased per index and freeze almost
    entirely by window 4, leaving a couple of dense doubling passes
    plus a shrinking gather/scatter over the unfrozen stragglers.
    """
    n = len(d)
    starts = np.flatnonzero(first)
    runs = np.diff(np.append(starts, n))
    # Position of each reference within its group (int32: n < 2^31).
    pos = np.arange(n, dtype=np.int32)
    pos -= np.repeat(starts.astype(np.int32), runs)
    cum = np.cumsum(d, dtype=np.int32)
    lo = np.zeros(n, dtype=np.int32)
    hi = np.full(n, 3, dtype=np.int32)
    offset = 1
    max_run = int(runs.max()) if n else 0
    active = None           # compacted unfrozen targets, once sparse
    while offset < max_run:
        if active is None:
            # Dense: whole-tail slice arithmetic, masked write-back.
            tail = slice(offset, None)
            mask = pos[tail] >= offset
            gain = cum[tail] - cum[:-offset]
            lo_t, hi_t = lo[tail], hi[tail]
            new_lo = np.clip(lo[:-offset] + gain, lo_t, hi_t)
            new_hi = np.clip(hi[:-offset] + gain, lo_t, hi_t)
            np.copyto(lo_t, new_lo, where=mask)
            np.copyto(hi_t, new_hi, where=mask)
            offset *= 2
            # Still-live references sit deep enough in their group to
            # keep combining AND have not saturated yet; compact to an
            # index set once they are the minority.
            live = (pos >= offset) & (lo != hi)
            if int(np.count_nonzero(live)) * 4 < n:
                active = np.flatnonzero(live)
        else:
            if not len(active):
                break
            source = active - offset
            gain = cum[active] - cum[source]
            lo_t, hi_t = lo[active], hi[active]
            lo[active] = np.clip(lo[source] + gain, lo_t, hi_t)
            hi[active] = np.clip(hi[source] + gain, lo_t, hi_t)
            offset *= 2
            active = active[pos[active] >= offset]
            active = active[lo[active] != hi[active]]
    # Inclusive composite applied to the group's seed = state *after*
    # each access (its shift term is the within-group prefix sum, and
    # the scanned lo/hi bounds are seed-independent); the predicting
    # state is the previous access's, and group firsts read the seed.
    within = cum - np.repeat(cum[starts] - d[starts], runs)
    seeds = np.asarray(seed, dtype=np.int32)
    after = np.clip(np.repeat(seeds, runs) + within, lo, hi)
    before = np.empty(n, dtype=np.int32)
    if n:
        before[0] = 0
        before[1:] = after[:-1]
        before[starts] = seeds
    return before, after


class _TableReplayState:
    """Tagless-ARPT replay state, carried across chunks.

    Holds one entry state per table index written so far (the 1-bit
    last outcome or the 2-bit counter value), as sorted ``keys`` with
    parallel ``values`` - the *entire* hardware state of the table, so
    feeding chunks through :meth:`observe` in trace order replays
    exactly the whole-trace sequence.  Each chunk replays vectorised
    after one stable sort by table index: the 1-bit table predicts the
    previous actual within each group (a grouped shift), and the 2-bit
    saturating-counter ablation replays through the segmented
    clamp-add scan in :func:`_counter_states`; each group's first
    access reads its carried entry (cold "non-stack" when the index
    was never written).
    """

    __slots__ = ("bits", "table_size", "keys", "values", "correct")

    def __init__(self, bits: int, table_size: Optional[int]) -> None:
        _validate_table_size(table_size)
        self.bits = bits
        self.table_size = table_size
        self.keys = np.zeros(0, dtype=np.int64)
        self.values = np.zeros(0, dtype=np.int32)
        self.correct = 0

    def observe(self, index: np.ndarray, actual: np.ndarray) -> None:
        if self.table_size is not None:
            index = index & (self.table_size - 1)
        n = len(index)
        if n == 0:
            return
        order = np.argsort(index, kind="stable")
        sorted_index = index[order]
        sorted_actual = actual[order]
        first = np.empty(n, dtype=np.bool_)
        first[0] = True
        np.not_equal(sorted_index[1:], sorted_index[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], n) - 1
        # Look each group's index up in the carried entries.
        keys = sorted_index[starts]
        slot = np.searchsorted(self.keys, keys)
        known = slot < len(self.keys)
        known[known] = self.keys[slot[known]] == keys[known]
        seeds = np.zeros(len(keys), dtype=np.int32)
        seeds[known] = self.values[slot[known]]
        if self.bits == 1:
            prediction = np.empty(n, dtype=np.bool_)
            prediction[0] = False
            prediction[1:] = sorted_actual[:-1]
            prediction[starts] = seeds == 1
            final = sorted_actual[ends].astype(np.int32)
        else:
            d = np.where(sorted_actual, np.int32(1), np.int32(-1))
            before, after = _counter_states(first, d, seeds)
            prediction = before >= 2
            final = after[ends]
        self.correct += int(np.count_nonzero(
            prediction == sorted_actual))
        # Update the written entries, then insert the new indices in
        # order (their slots are ascending, so keys stay sorted).
        self.values[slot[known]] = final[known]
        fresh = ~known
        self.keys = np.insert(self.keys, slot[fresh], keys[fresh])
        self.values = np.insert(self.values, slot[fresh], final[fresh])

    @property
    def occupancy(self) -> int:
        return len(self.keys)


class _SchemeReplay:
    """One scheme's evaluation, folded chunk by chunk.

    Scalar tallies (definitive, hinted, static rule-4) are plain sums;
    the only genuine cross-chunk state is the ARPT contents, carried in
    :class:`_TableReplayState`.  After the last chunk, :meth:`result`
    holds the whole trace's tallies.
    """

    __slots__ = ("scheme", "table_size", "hints", "total", "definitive",
                 "definitive_correct", "hinted", "hinted_correct",
                 "table_predictions", "rule4_static_correct", "table")

    def __init__(self, scheme: Scheme, table_size: Optional[int],
                 hints: Optional[CompilerHints]) -> None:
        self.scheme = scheme
        self.table_size = table_size
        self.hints = hints
        self.total = self.definitive = self.definitive_correct = 0
        self.hinted = self.hinted_correct = 0
        self.table_predictions = self.rule4_static_correct = 0
        self.table = _TableReplayState(scheme.bits, table_size) \
            if scheme.uses_table else None

    def observe(self, prepass: "_ReplayPrepass") -> None:
        self.total += prepass.total
        self.definitive += prepass.definitive
        self.definitive_correct += prepass.definitive_correct
        unknown = prepass.mode_unknown
        pc = prepass.pc[unknown]
        actual = prepass.actual[unknown]
        tags = _hint_tags_for(pc, self.hints)
        hinted_mask = tags >= 0
        self.hinted += int(np.count_nonzero(hinted_mask))
        self.hinted_correct += int(np.count_nonzero(
            hinted_mask & ((tags == 1) == actual)))
        remaining = ~hinted_mask
        if self.table is not None:
            context = prepass.context(
                self.scheme.context)[unknown][remaining]
            index = (pc[remaining] >> PC_SHIFT) ^ context
            self.table.observe(index, actual[remaining])
            self.table_predictions += int(np.count_nonzero(remaining))
        else:
            self.rule4_static_correct += int(np.count_nonzero(
                remaining & ~actual))

    def result(self, trace_name: str) -> PredictionResult:
        table_correct = self.table.correct if self.table is not None \
            else 0
        rule4_correct = table_correct if self.table is not None \
            else self.rule4_static_correct
        return PredictionResult(
            scheme=self.scheme.name,
            trace_name=trace_name,
            total=self.total,
            correct=(self.definitive_correct + self.hinted_correct
                     + rule4_correct),
            definitive=self.definitive,
            definitive_correct=self.definitive_correct,
            table_predictions=self.table_predictions,
            table_correct=table_correct,
            hinted=self.hinted,
            occupancy=(self.table.occupancy
                       if self.table is not None else 0),
            table_size=self.table_size,
        )


def _replay_chunks(trace, replays, gbh_bits: int,
                   cid_bits: int) -> None:
    """Stream a trace's chunks once through several scheme replays."""
    carry: Optional[np.ndarray] = None
    for chunk in iter_chunks(trace):
        prepass = _ReplayPrepass(chunk, gbh_bits, cid_bits,
                                 gbh_carry=carry)
        carry = prepass.branch_tail
        for replay in replays:
            replay.observe(prepass)


def evaluate_scheme(trace: Trace, scheme,
                    table_size: Optional[int] = None,
                    hints: Optional[CompilerHints] = None,
                    gbh_bits: int = 8,
                    cid_bits: int = 24) -> PredictionResult:
    """Replay ``trace`` through ``scheme`` and score it.

    ``scheme`` may be a :class:`Scheme` or its name.  ``table_size`` of
    None models the unlimited ARPT.  When ``hints`` are provided, tagged
    instructions bypass the predictor (and are correct by construction,
    matching the paper's idealised-compiler methodology).

    ``trace`` may also be a :class:`~repro.trace.shards.ShardedTrace`;
    its shards stream through the same chunk loop and score
    byte-identically at any shard size.
    """
    if isinstance(scheme, str):
        scheme = scheme_by_name(scheme)
    _validate_table_size(table_size)
    with spans.span("predict:replay", scheme=scheme.name,
                    workload=trace.name) as sp:
        replay = _SchemeReplay(scheme, table_size, hints)
        _replay_chunks(trace, (replay,), gbh_bits, cid_bits)
        result = replay.result(trace.name)
        _publish_metrics(result, hints is not None, gbh_bits, cid_bits)
        sp.set("references", result.total)
        return result


def evaluate_scheme_scalar(trace: Trace, scheme,
                           table_size: Optional[int] = None,
                           hints: Optional[CompilerHints] = None,
                           gbh_bits: int = 8,
                           cid_bits: int = 24) -> PredictionResult:
    """Record-at-a-time reference implementation of
    :func:`evaluate_scheme`.

    Kept as the ground truth the vectorised replay is tested against
    (it walks :class:`TraceRecord` objects through the live
    :class:`ARPT`/:class:`ContextTracker` structures exactly as the
    hardware would).  Does not publish metrics - use
    :func:`evaluate_scheme` outside tests.
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


def _publish_metrics(result: PredictionResult, hinted_run: bool,
                     gbh_bits: int, cid_bits: int) -> None:
    """End-of-run metrics publication (no-op when collection is off).

    Labels are qualified by table size, hint usage, and non-default
    context splits, so sweeps that evaluate the same scheme repeatedly
    within one cell (Figure 5, ablation A2) publish distinct names.
    """
    registry = metrics.active()
    if not registry.enabled:
        return
    label = result.scheme
    if result.table_size is not None:
        label += f"@{result.table_size}"
    if hinted_run:
        label += "+hints"
    if (gbh_bits, cid_bits) != (8, 24):
        label += f"+{gbh_bits}g{cid_bits}c"
    ns = registry.scoped("predictor").scoped(label)
    ns.counter("references").inc(result.total)
    ns.counter("correct").inc(result.correct)
    ns.counter("definitive").inc(result.definitive)
    ns.counter("definitive_correct").inc(result.definitive_correct)
    ns.counter("table_predictions").inc(result.table_predictions)
    ns.counter("table_correct").inc(result.table_correct)
    ns.counter("hinted").inc(result.hinted)
    ns.gauge("occupancy").set(result.occupancy)


def occupancy_by_context(trace: Trace,
                         gbh_bits: int = 8,
                         cid_bits: int = 24) -> Dict[str, int]:
    """Entries occupied in an unlimited ARPT per indexing context.

    Reproduces the paper's Table 3: columns are PC-only indexing
    ("static" in the table's header), PC^GBH, PC^CID, and PC^hybrid.
    The trace's chunks stream through once, all four probes folding
    each chunk's shared prepass (memory subsequence, definitive
    tallies, context arrays); each probe publishes the same
    ``predictor.probe-<context>`` metrics a standalone
    :func:`evaluate_scheme` call would.
    """
    replays = {context: _SchemeReplay(
        Scheme(f"probe-{context}", uses_table=True, bits=1,
               context=context), None, None)
        for context in ("none", "gbh", "cid", "hybrid")}
    _replay_chunks(trace, tuple(replays.values()), gbh_bits, cid_bits)
    results = {}
    for context, replay in replays.items():
        outcome = replay.result(trace.name)
        _publish_metrics(outcome, False, gbh_bits, cid_bits)
        results[context] = outcome.occupancy
    return results
