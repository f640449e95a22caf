"""Trace-driven out-of-order timing simulator.

Models the paper's base machine (Section 4.3): a 16-wide RUU-style core
with a 256-entry ROB, perfect I-cache and branch prediction (so the trace
path *is* the fetch path, making trace-driven simulation exact for the
front end), a stride value predictor, and a memory system that is either

* conventional - one LSQ feeding a multi-ported L1 data cache - or
* data-decoupled - an LSQ + L1 pair and an LVAQ + LVC pair, with memory
  instructions steered at dispatch by the ARPT (or an oracle), verified
  at address translation, and repaired on misprediction.

The LVAQ implements the paper's *fast forwarding*: because stack
addresses are $sp/$fp-relative, its loads do not wait for earlier
unknown store addresses the way conservative LSQ scheduling does.

The machine is columnar.  Everything about a dynamic instruction that
no machine state can change - its register producers, load/store kind,
address, functional unit, the stride value predictor's verdict,
the gshare verdict, the ARPT context - is derived once per trace with
NumPy (:class:`TimingPrepass`) and shared by every configuration
simulated on that trace.  The cycle loop then keeps its dynamic state
(ROB, ready list, queues, fences, forwarding index, ARPT table, events)
in flat per-row lists indexed by the instruction's trace position and
in integer-keyed event lists; it never builds a per-instruction object.
"""

from __future__ import annotations

import bisect
import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import metrics
from repro.obs import spans
from repro.cache.cache import Cache, CacheConfig
from repro.predictor.arpt import PC_SHIFT
from repro.predictor.evaluate import _hint_tags_for, _ReplayPrepass
from repro.timing.branch_pred import GsharePredictor
from repro.timing.config import FU_CLASS, MachineConfig
from repro.timing.tlb import DataTLB
from repro.timing.value_pred import StrideValuePredictor
from repro.trace.records import (MODE_OTHER, MODE_STACK, OC_BRANCH,
                                 OC_LOAD, OC_STORE, REGION_HEAP,
                                 REGION_STACK, Trace)

_LSQ = 0
_LVAQ = 1

#: Functional-unit classes; a row's FU is an index into this tuple.
_FU_NAMES: Tuple[str, ...] = tuple(sorted(set(FU_CLASS.values())))

#: Per-row memory kinds (``TimingPrepass.kind``).
_NOT_MEM, _LOAD, _STORE = 0, 1, 2

#: Per-row steering codes (see ``_steering``): a fixed queue
#: (``_LSQ``/``_LVAQ``), or ``_ARPT`` for a rule-4 row with no compiler
#: hint, which the ARPT predicts at dispatch and which trains the table
#: at verification.
_ARPT = 2

#: Event kinds, packed with the row as ``row << 2 | kind``.
_EV_COMPLETE = 0
_EV_TRANSLATE = 1     # address generated: TLB lookup, then verify
_EV_REPAIR = 2
_EV_TRANSLATED = 3    # page walk done: verify without a TLB lookup


@dataclass
class TimingResult:
    """Summary statistics of one timing-simulation run.

    ``lvc_hit_rate`` is ``None`` on a conventional (non-decoupled)
    machine - there is no LVC, so reporting ``0.0`` would misread as
    "an LVC that never hit".
    """

    config_name: str
    trace_name: str
    instructions: int
    cycles: int
    l1_hit_rate: float
    lvc_hit_rate: Optional[float]
    l2_hit_rate: float
    store_forwards: int
    port_stalls: int
    arpt_predictions: int
    arpt_mispredictions: int
    vp_bypasses: int
    lvaq_occupancy_peak: int
    lsq_occupancy_peak: int
    tlb_miss_rate: float = 0.0
    issue_stalls: int = 0
    repairs: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / max(1, self.cycles)

    @property
    def arpt_accuracy(self) -> float:
        if self.arpt_predictions == 0:
            return 1.0
        return 1.0 - self.arpt_mispredictions / self.arpt_predictions


# -- per-trace precompute ------------------------------------------------

def _last_writer(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Row of the youngest earlier writer of each row's ``src`` register
    (-1 when none): the in-order rename map's answer at dispatch.

    Writers are rows with ``dst > 0`` (register 0 is hardwired).  Each
    writer and each query becomes the key ``register * n + row``; a
    query's producer is the largest writer key below its own, if that
    key names the same register.
    """
    n = len(dst)
    rows = np.arange(n, dtype=np.int64)
    writers = np.flatnonzero(dst > 0)
    keys = np.sort(dst[writers].astype(np.int64) * n + writers)
    producer = np.full(n, -1, dtype=np.int64)
    asks = np.flatnonzero(src >= 0)
    if len(keys) == 0 or len(asks) == 0:
        return producer
    reg = src[asks].astype(np.int64)
    slot = np.searchsorted(keys, reg * n + rows[asks]) - 1
    found = keys[np.maximum(slot, 0)]
    hit = (slot >= 0) & (found // n == reg)
    producer[asks[hit]] = found[hit] % n
    return producer


def _value_bypass(columns, entries: int, confidence: int) -> np.ndarray:
    """Rows whose result the stride value predictor supplies early: every
    valued row, in trace order, through
    :meth:`StrideValuePredictor.observe`."""
    rows = np.flatnonzero(columns.value_valid)
    hit = np.zeros(len(columns), dtype=np.bool_)
    observe = StrideValuePredictor(entries, confidence).observe
    hit[rows] = [observe(pc, value) for pc, value in
                 zip(columns.pc[rows].tolist(), columns.value[rows].tolist())]
    return hit


def _gshare_mispredicts(columns, entries: int,
                        history_bits: int) -> np.ndarray:
    """Branch rows the gshare front end mispredicts (trace order)."""
    n = len(columns)
    branches = np.flatnonzero(columns.op_class == OC_BRANCH)
    wrong = np.zeros(n, dtype=np.bool_)
    bpred = GsharePredictor(entries, history_bits)
    predict = bpred.predict_and_update
    wrong[branches] = [not predict(pc, taken) for pc, taken in
                       zip(columns.pc[branches].tolist(),
                           columns.taken[branches].tolist())]
    return wrong


class TimingPrepass:
    """Everything about a trace's rows that no machine state changes.

    Built once per :class:`~repro.trace.records.Trace` object (see
    :func:`prepass_of`) and shared by every configuration simulated on
    it.  The config-independent columns are plain Python lists indexed
    by row, ready for the cycle loop; the parts that depend on a few
    config fields are derived on first request and memoised here, keyed
    by exactly those fields:

    * ``value_bypass(vp_entries, vp_confidence)``
    * ``mispredicts(bpred_entries, bpred_history_bits)``
    * ``contexts(arpt_context, arpt_gbh_bits, arpt_cid_bits)``
    * ``latencies(latencies)``
    """

    __slots__ = ("columns", "n", "kind", "fu", "addr", "src1_producer",
                 "src2_producer", "mem_rows", "is_stack", "_memo")

    def __init__(self, columns) -> None:
        self.columns = columns
        n = self.n = len(columns)
        op = columns.op_class
        kind = np.zeros(n, dtype=np.int8)
        kind[op == OC_LOAD] = _LOAD
        kind[op == OC_STORE] = _STORE
        self.kind = bytearray(kind.tobytes())
        fu_lut = np.full(256, -1, dtype=np.int64)
        for op_class, name in FU_CLASS.items():
            fu_lut[op_class] = _FU_NAMES.index(name)
        fu = fu_lut[op.astype(np.int64) & 0xFF]
        if n and int(fu.min()) < 0:
            raise KeyError(int(op[fu < 0][0]))
        self.fu = bytearray(fu.astype(np.uint8).tobytes())
        self.addr = columns.addr.tolist()
        # For a store, src1 is the address base (a true dependence) and
        # src2 the data register, which only gates its memory access.
        self.src1_producer = _last_writer(columns.dst, columns.src1).tolist()
        self.src2_producer = _last_writer(columns.dst, columns.src2).tolist()
        self.mem_rows = np.flatnonzero(kind != _NOT_MEM)
        self.is_stack = bytearray(
            (columns.region == REGION_STACK).astype(np.uint8).tobytes())
        self._memo: Dict[tuple, object] = {}

    def _memoised(self, key: tuple, build):
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def value_bypass(self, entries: int, confidence: int) -> bytearray:
        """Per-row 1 where the value predictor bypasses the result."""
        return self._memoised(
            ("vp", entries, confidence),
            lambda: bytearray(_value_bypass(self.columns, entries,
                                            confidence).tobytes()))

    def mispredicts(self, entries: int, history_bits: int) -> bytearray:
        """Per-row 1 on the branches gshare mispredicts."""
        return self._memoised(
            ("gshare", entries, history_bits),
            lambda: bytearray(_gshare_mispredicts(
                self.columns, entries, history_bits).tobytes()))

    def contexts(self, kind: str, gbh_bits: int,
                 cid_bits: int) -> np.ndarray:
        """ARPT context of each memory row (``mem_rows`` order)."""
        def build():
            replay = self._memoised(
                ("replay", gbh_bits, cid_bits),
                lambda: _ReplayPrepass(self.columns, gbh_bits, cid_bits))
            return replay.context(kind)
        return self._memoised(("context", kind, gbh_bits, cid_bits), build)

    def latencies(self, table: Tuple[Tuple[int, int], ...]) -> List[int]:
        """Per-row execution latency of the non-memory rows."""
        def build():
            lut = np.full(256, -1, dtype=np.int64)
            for op_class, latency in table:
                lut[op_class] = latency
            per_row = lut[self.columns.op_class.astype(np.int64) & 0xFF]
            missing = per_row < 0
            missing[self.mem_rows] = False
            if missing.any():
                raise KeyError(f"no latency for op class "
                               f"{int(self.columns.op_class[missing][0])}")
            return per_row.tolist()
        return self._memoised(("latency", table), build)


def prepass_of(trace: Trace) -> TimingPrepass:
    """The trace's :class:`TimingPrepass`, built on first use.

    It lives in the ``Trace`` object's ``timing_prepass`` slot and so
    dies with it; it is never stored on the (possibly shared) columnar
    view or in a module-level memo.
    """
    prepass = trace.timing_prepass
    if prepass is None:
        with spans.span("timing:prepass", workload=trace.name):
            prepass = trace.timing_prepass = TimingPrepass(trace.columns)
    return prepass


# -- per-config steering -------------------------------------------------

def _steering(prepass: TimingPrepass, config: MachineConfig, hints)\
        -> Tuple[bytearray, bytearray, List[int]]:
    """Per-row steering of one (trace, config, hints) run: the steering
    code (a queue, or ``_ARPT``), the queue the verified region belongs
    in, and the ARPT table index."""
    n = prepass.n
    mem = prepass.mem_rows
    columns = prepass.columns
    steer = np.zeros(n, dtype=np.uint8)
    correct = np.zeros(n, dtype=np.uint8)
    index = np.zeros(n, dtype=np.int64)
    if config.decoupled:
        region = columns.region[mem]
        stack = region == REGION_STACK
        if config.steering == "oracle-heap":
            correct[mem] = region == REGION_HEAP
        else:
            correct[mem] = stack
        if config.steering == "oracle":
            steer[mem] = stack
        elif config.steering == "oracle-heap":
            steer[mem] = region == REGION_HEAP
        else:
            # Rules 1-3 fix the region; a rule-4 (MODE_OTHER) row takes
            # its compiler hint when it has one, else the ARPT's call.
            mode = columns.mode[mem]
            pc = columns.pc[mem]
            tag = _hint_tags_for(pc, hints)
            steer[mem] = np.where(mode != MODE_OTHER, mode == MODE_STACK,
                                  np.where(tag >= 0, tag == 1, _ARPT))
            context = prepass.contexts(config.arpt_context,
                                       config.arpt_gbh_bits,
                                       config.arpt_cid_bits)
            raw = (pc >> PC_SHIFT) ^ context
            if config.arpt_size is not None:
                raw &= config.arpt_size - 1
            index[mem] = raw
    return bytearray(steer.tobytes()), bytearray(correct.tobytes()), \
        index.tolist()


# -- the cycle loop -------------------------------------------------------

def _run(trace: Trace, config: MachineConfig, hints) -> TimingResult:
    config.validate()
    pre = prepass_of(trace)
    n = pre.n
    kind = pre.kind
    fu = pre.fu
    addr = pre.addr
    src1_producer = pre.src1_producer
    src2_producer = pre.src2_producer
    is_stack = pre.is_stack
    latency = pre.latencies(config.latencies)
    steer, correct, arpt_index = _steering(pre, config, hints)
    decoupled = config.decoupled
    # The 1-bit ARPT: 1 = stack.  Tagless and direct-mapped, so a sized
    # table is a flat byte array; the unlimited one is a sparse map.
    if config.arpt_size is not None:
        arpt_table = bytearray(config.arpt_size)
    else:
        arpt_table = defaultdict(int)

    line = config.line_size
    l1 = Cache(CacheConfig("L1D", config.l1_size, config.l1_assoc,
                           line, config.l1_latency))
    l2 = Cache(CacheConfig("L2", config.l2_size, config.l2_assoc,
                           line, config.l2_latency))
    lvc = (Cache(CacheConfig("LVC", config.lvc_size, 1, line,
                             config.lvc_latency)) if decoupled else None)
    tlb = (DataTLB(config.tlb_entries, config.tlb_page_size)
           if config.tlb_entries else None)
    tlb_access = tlb.access if tlb is not None else None
    l2_access = l2.access
    l2_latency = config.l2_latency
    memory_latency = config.memory_latency
    bank_shift = line.bit_length() - 1
    # Conservative queues fence loads behind unresolved stores and only
    # forward from stores whose address has resolved; a fast-forwarding
    # LVAQ compares $sp/$fp offsets at dispatch and does neither.
    conservative = (True, not config.lvaq_fast_forwarding)
    queue_cap = (config.lsq_size, config.lvaq_size)
    fu_counts = dict(config.fu_counts)
    fu_template = [fu_counts.get(name, 0) for name in _FU_NAMES]
    issue_width = config.issue_width
    decode_width = config.decode_width
    commit_width = config.commit_width
    rob_size = config.rob_size
    forward_latency = config.forward_latency
    tlb_penalty = config.tlb_miss_penalty
    region_penalty = config.region_mispredict_penalty
    redirect_penalty = config.branch_redirect_penalty
    redirect = (pre.mispredicts(config.bpred_entries,
                                config.bpred_history_bits)
                if config.branch_predictor == "gshare" else None)

    # Per-row dynamic state.  A value-bypassed result is available to
    # consumers from dispatch on; every row is dispatched exactly once,
    # in order, so marking those rows available up front is the same.
    if config.value_predict:
        bypass = pre.value_bypass(config.vp_entries, config.vp_confidence)
        available = bytearray(bypass)
        vp_bypasses = bypass.count(1)
    else:
        available = bytearray(n)
        vp_bypasses = 0
    completed = bytearray(n)
    addr_known = bytearray(n)
    waiting = [0] * n                 # unresolved source operands
    consumers: List[Optional[List[int]]] = [None] * n
    queue_of = [-1] * n
    # Per-queue state: occupancy, issuable candidates (seq-sorted),
    # unresolved-store fence heap, mis-steered stores awaiting repair,
    # and the store-forwarding index keyed by aligned word.
    occupancy = [0, 0]
    peak = [0, 0]
    pending: Tuple[List[int], List[int]] = ([], [])
    unresolved: Tuple[List[int], List[int]] = ([], [])
    wrong_stores: Tuple[List[int], List[int]] = ([], [])
    stores_by_word: Tuple[Dict[int, List[int]], Dict[int, List[int]]] = \
        ({}, {})
    grants = [0, 0]
    conflicts = [0, 0]
    # What the memory scheduler needs per queue: its candidates, fence
    # sources and forwarding index, then its first-level cache with the
    # hit latency, port count and bank count (0 = true multi-porting).
    schedulers = [(_LSQ, pending[_LSQ], conservative[_LSQ],
                   unresolved[_LSQ], wrong_stores[_LSQ],
                   stores_by_word[_LSQ], l1.access, config.l1_latency,
                   config.l1_ports,
                   config.l1_ports if config.l1_port_policy == "banks"
                   else 0)]
    if decoupled:
        schedulers.append((_LVAQ, pending[_LVAQ], conservative[_LVAQ],
                           unresolved[_LVAQ], wrong_stores[_LVAQ],
                           stores_by_word[_LVAQ], lvc.access,
                           config.lvc_latency, config.lvc_ports, 0))
    events: Dict[int, List[int]] = defaultdict(list)
    ready: List[int] = []     # seq-sorted rows with operands ready
    insort = bisect.insort
    heappush = heapq.heappush
    heappop = heapq.heappop

    store_forwards = 0
    arpt_predictions = 0
    arpt_mispredictions = 0
    issue_stalls = 0
    repairs = 0
    head = 0              # oldest uncommitted row (the ROB is [head, ptr))
    ptr = 0               # next row to dispatch
    blocked = -1          # mispredicted branch holding the front end
    resume = 0
    cycle = 0
    max_cycles = 200 * n + 100_000

    while head < n:
        if cycle > max_cycles:
            raise RuntimeError(
                f"timing simulation wedged at cycle {cycle} "
                f"({head}/{n} committed)")
        # 1. Writeback / address-ready / repair events.
        fired = events.pop(cycle, None)
        if fired is not None:
            for event in fired:
                row = event >> 2
                event_kind = event & 3
                if event_kind == _EV_COMPLETE:
                    completed[row] = 1
                    available[row] = 1
                    woken = consumers[row]
                    if woken is not None:
                        consumers[row] = None
                        for consumer in woken:
                            left = waiting[consumer] - 1
                            waiting[consumer] = left
                            if not left:
                                insort(ready, consumer)
                    if row == blocked:
                        resume = cycle + redirect_penalty
                elif event_kind == _EV_REPAIR:
                    # Move a mis-steered op to its correct queue.  A
                    # reserved repair slot lets the move succeed even
                    # when the target queue is architecturally full;
                    # this avoids a (rare) deadlock the real machine
                    # resolves by squashing, which the trace-driven
                    # model does not replay.
                    repairs += 1
                    previous = queue_of[row]
                    target = correct[row]
                    occupancy[previous] -= 1
                    if kind[row] == _STORE:
                        wrong_stores[previous].remove(row)
                        key = addr[row] >> 3
                        old_words = stores_by_word[previous]
                        entries = old_words[key]
                        entries.remove(row)
                        if not entries:
                            del old_words[key]
                        entries = stores_by_word[target].get(key)
                        if entries is None:
                            stores_by_word[target][key] = [row]
                        else:
                            insort(entries, row)
                    queue_of[row] = target
                    occupancy[target] += 1
                    # A repaired op arrives with a resolved, unissued
                    # address: it is immediately a scheduling candidate.
                    insort(pending[target], row)
                else:
                    if event_kind == _EV_TRANSLATE \
                            and tlb_access is not None \
                            and not tlb_access(addr[row]):
                        # Page walk: translation (and hence region
                        # verification) completes after the penalty.
                        events[cycle + tlb_penalty].append(
                            row << 2 | _EV_TRANSLATED)
                        continue
                    addr_known[row] = 1
                    # TLB-time region check: train the ARPT, detect and
                    # schedule queue repair.
                    code = steer[row]
                    if code == _ARPT:
                        arpt_table[arpt_index[row]] = is_stack[row]
                    queue = queue_of[row]
                    if decoupled and queue != correct[row]:
                        if code == _ARPT:
                            arpt_mispredictions += 1
                        events[cycle + region_penalty].append(
                            row << 2 | _EV_REPAIR)
                        # A mis-steered store fences its queue until
                        # repaired; a mis-steered load just waits.
                        if kind[row] == _STORE:
                            wrong_stores[queue].append(row)
                    else:
                        insort(pending[queue], row)

        # 2. Commit (frees ROB and queue slots for this cycle's
        #    dispatch).
        first = head
        stop = head + commit_width
        if stop > ptr:
            stop = ptr
        while head < stop and completed[head]:
            queue = queue_of[head]
            if queue >= 0:
                occupancy[queue] -= 1
                if kind[head] == _STORE:
                    words = stores_by_word[queue]
                    key = addr[head] >> 3
                    entries = words[key]
                    entries.remove(head)
                    if not entries:
                        del words[key]
            head += 1
        committed_now = head - first

        # 3. Memory scheduling.  Only the seq-sorted issuable candidates
        #    are walked; each port (or bank) grant is per access.  A
        #    queue that neither issued nor port-stalled cannot act until
        #    an event fires, which is what makes idle skipping exact.
        mem_active = False
        for (queue, candidates, blocking, heap, wrong, words, access,
             hit_latency, free_ports, banks) in schedulers:
            if not candidates:
                continue
            # The ordering fence: the oldest store whose address is
            # still unresolved (conservative queues only) or that
            # awaits repair; ``n`` when there is none.
            fence = n
            if blocking:
                while heap and addr_known[heap[0]]:
                    heappop(heap)
                if heap:
                    fence = heap[0]
            for store in wrong:
                if store < fence:
                    fence = store
            busy = set() if banks else None
            granted = 0
            stalled = 0
            kept = []
            for row in candidates:
                if kind[row] == _STORE:
                    data = src2_producer[row]
                    if data >= 0 and not available[data]:
                        kept.append(row)
                        continue
                else:
                    if row > fence:
                        kept.append(row)
                        continue
                    # Forward from the youngest earlier store to the
                    # same word.  Wrong-queue and already-issued stores
                    # still forward.
                    entries = words.get(addr[row] >> 3)
                    if entries:
                        source = -1
                        for other in entries:
                            if other >= row:
                                break
                            if not blocking or addr_known[other]:
                                source = other
                        if source >= 0:
                            data = src2_producer[source]
                            if data < 0 or available[data]:
                                mem_active = True
                                store_forwards += 1
                                events[cycle + forward_latency].append(
                                    row << 2)
                            else:
                                kept.append(row)  # wait for the data
                            continue
                mem_active = True
                if busy is None:
                    granted_now = free_ports > 0
                    if granted_now:
                        free_ports -= 1
                else:
                    bank = (addr[row] >> bank_shift) % banks
                    granted_now = bank not in busy
                    if granted_now:
                        busy.add(bank)
                if not granted_now:
                    stalled += 1
                    kept.append(row)
                    continue
                granted += 1
                if kind[row] == _STORE:
                    if not access(addr[row], True):
                        l2_access(addr[row], True)
                    events[cycle + 1].append(row << 2)
                elif access(addr[row], False):
                    events[cycle + hit_latency].append(row << 2)
                elif l2_access(addr[row], False):
                    events[cycle + hit_latency + l2_latency].append(
                        row << 2)
                else:
                    events[cycle + hit_latency + l2_latency
                           + memory_latency].append(row << 2)
            candidates[:] = kept
            grants[queue] += granted
            conflicts[queue] += stalled

        # 4. Issue: walk the seq-sorted ready list once.  FU-starved
        #    rows are deferred; rows past the issue-width cut are
        #    untouched, and every deferred row precedes them.
        if ready:
            free = fu_template[:]
            slots = issue_width
            deferred = []
            taken = 0
            for row in ready:
                if not slots:
                    break
                taken += 1
                unit = fu[row]
                if free[unit] <= 0:
                    deferred.append(row)
                    continue
                free[unit] -= 1
                slots -= 1
                if kind[row]:
                    # Address generation; region verified when it
                    # resolves.
                    events[cycle + 1].append(row << 2 | _EV_TRANSLATE)
                else:
                    events[cycle + latency[row]].append(row << 2)
            if deferred:
                issue_stalls += len(deferred)
                ready = deferred + ready[taken:]
            else:
                del ready[:taken]

        # 5. Dispatch, in order.  A mispredicted branch blocks the front
        #    end until it resolves plus the redirect penalty (gshare
        #    front end only).
        dispatched_from = ptr
        if blocked >= 0 and completed[blocked] and cycle >= resume:
            blocked = -1
        if blocked < 0:
            stop = ptr + decode_width
            if stop > head + rob_size:
                stop = head + rob_size
            if stop > n:
                stop = n
            while ptr < stop:
                row = ptr
                mem_kind = kind[row]
                if mem_kind:
                    code = steer[row]
                    if code == _ARPT:
                        queue = 1 if arpt_table[arpt_index[row]] else 0
                    else:
                        queue = code
                    if occupancy[queue] >= queue_cap[queue]:
                        break   # in-order dispatch stalls on a full queue
                    if code == _ARPT:
                        arpt_predictions += 1
                    queue_of[row] = queue
                    size = occupancy[queue] + 1
                    occupancy[queue] = size
                    if size > peak[queue]:
                        peak[queue] = size
                    if mem_kind == _STORE:
                        # Address unresolved until address generation
                        # runs; only conservative queues keep the fence.
                        if conservative[queue]:
                            heappush(unresolved[queue], row)
                        words = stores_by_word[queue]
                        key = addr[row] >> 3
                        entries = words.get(key)
                        if entries is None:
                            words[key] = [row]
                        else:
                            entries.append(row)
                # Register dependences.  A store's data register is not
                # one: its address can issue before the data is ready.
                unresolved_sources = 0
                producer = src1_producer[row]
                if producer >= 0 and not available[producer]:
                    unresolved_sources = 1
                    woken = consumers[producer]
                    if woken is None:
                        consumers[producer] = [row]
                    else:
                        woken.append(row)
                if mem_kind != _STORE:
                    producer = src2_producer[row]
                    if producer >= 0 and not available[producer]:
                        unresolved_sources += 1
                        woken = consumers[producer]
                        if woken is None:
                            consumers[producer] = [row]
                        else:
                            woken.append(row)
                if unresolved_sources:
                    waiting[row] = unresolved_sources
                else:
                    ready.append(row)
                ptr += 1
                if redirect is not None and redirect[row]:
                    # Everything after this branch came down the wrong
                    # path; fetch resumes once the branch executes.
                    blocked = row
                    break

        # 6. Idle-cycle skip.  A cycle with no events, no commit, no
        #    memory activity (issued OR port-stalled), an empty ready
        #    list, and no dispatch progress changes nothing; every state
        #    transition except the fetch-redirect timer is event-driven,
        #    so jump straight to the next event (or the fetch resume
        #    point).  Counters only move on non-idle cycles, so results
        #    equal the cycle-by-cycle walk's.
        if fired is None and not committed_now and not mem_active \
                and ptr == dispatched_from and not ready and head < n:
            target = min(events) if events else None
            if blocked >= 0 and completed[blocked]:
                if target is None or resume < target:
                    target = resume
            cycle = target if target is not None and target > cycle \
                else cycle + 1
        else:
            cycle += 1

    result = TimingResult(
        config_name=config.name,
        trace_name=trace.name,
        instructions=n,
        cycles=cycle,
        l1_hit_rate=l1.stats.hit_rate,
        lvc_hit_rate=lvc.stats.hit_rate if lvc is not None else None,
        l2_hit_rate=l2.stats.hit_rate,
        store_forwards=store_forwards,
        port_stalls=conflicts[_LSQ] + conflicts[_LVAQ],
        arpt_predictions=arpt_predictions,
        arpt_mispredictions=arpt_mispredictions,
        vp_bypasses=vp_bypasses,
        lvaq_occupancy_peak=peak[_LVAQ],
        lsq_occupancy_peak=peak[_LSQ],
        tlb_miss_rate=tlb.miss_rate if tlb is not None else 0.0,
        issue_stalls=issue_stalls,
        repairs=repairs,
    )
    _publish_metrics(config, result, l1, l2, lvc, tlb, grants, conflicts)
    return result


def _publish_metrics(config: MachineConfig, result: TimingResult,
                     l1: Cache, l2: Cache, lvc: Optional[Cache],
                     tlb: Optional[DataTLB], grants: List[int],
                     conflicts: List[int]) -> None:
    """End-of-run metrics publication.

    Costs one ``enabled`` check per simulation when collection is off;
    the cycle loop only keeps plain integers.  Names are qualified by
    config (and non-perfect front end) so sweeps that simulate several
    configurations per cell never collide.
    """
    registry = metrics.active()
    if not registry.enabled:
        return
    label = config.name
    if config.branch_predictor != "perfect":
        label = f"{label}@{config.branch_predictor}"
    ns = registry.scoped("timing").scoped(label)
    ns.counter("cycles").inc(result.cycles)
    ns.counter("instructions").inc(result.instructions)
    ns.counter("issue_stalls").inc(result.issue_stalls)
    ns.counter("port_stalls").inc(result.port_stalls)
    ns.counter("store_forwards").inc(result.store_forwards)
    ns.counter("repairs").inc(result.repairs)
    ns.scoped("vp").counter("bypasses").inc(result.vp_bypasses)
    arpt_ns = ns.scoped("arpt")
    arpt_ns.counter("predictions").inc(result.arpt_predictions)
    arpt_ns.counter("mispredictions").inc(result.arpt_mispredictions)
    ns.scoped("lsq").gauge("occupancy_peak").set(result.lsq_occupancy_peak)
    ns.scoped("lvaq").gauge("occupancy_peak").set(
        result.lvaq_occupancy_peak)
    l1_ns = ns.scoped("l1")
    l1.stats.publish(l1_ns)
    ports_ns = l1_ns.scoped("ports")
    ports_ns.counter("grants").inc(grants[_LSQ])
    ports_ns.counter("conflicts").inc(conflicts[_LSQ])
    l2.stats.publish(ns.scoped("l2"))
    if lvc is not None:
        lvc_ns = ns.scoped("lvc")
        lvc.stats.publish(lvc_ns)
        lvc_ports = lvc_ns.scoped("ports")
        lvc_ports.counter("grants").inc(grants[_LVAQ])
        lvc_ports.counter("conflicts").inc(conflicts[_LVAQ])
    if tlb is not None:
        tlb_ns = ns.scoped("tlb")
        tlb_ns.counter("hits").inc(tlb.hits)
        tlb_ns.counter("misses").inc(tlb.misses)


def simulate(trace: Trace, config: MachineConfig,
             hints=None) -> TimingResult:
    """Run one trace through one machine configuration.

    ``hints`` optionally provides Figure-6 compiler tags that steer
    tagged instructions directly and bypass the ARPT (Section 3.5.2's
    compiler-assisted decoupling).  The trace's columnar view is read
    directly; no record objects are built.
    """
    with spans.span("timing:simulate", config=config.name,
                    workload=trace.name) as sp:
        result = _run(trace, config, hints)
        sp.set("cycles", result.cycles)
        sp.set("instructions", result.instructions)
        return result
