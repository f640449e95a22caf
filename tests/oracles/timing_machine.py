"""The object-per-instruction timing machine, kept as a test oracle.

This is the cycle-level machine ``repro.timing.machine`` shipped before
the columnar rewrite, moved here verbatim: one :class:`InflightOp`
object per dynamic instruction, a ``TraceRecord`` walk, and an
``idle_skip`` switch that can turn event-driven idle-cycle skipping
off.  It is built from the oracle components beside it - the
set/tag/dirty-list :class:`~tests.oracles.cache.Cache` and the
:mod:`tests.oracles.hierarchy` port, bank and latency objects - so a
change to the shipped cache model shows too.  The differential tests
run it next to the shipped :func:`repro.timing.machine.simulate` and
require equal :class:`~repro.timing.machine.TimingResult` values and
equal ``timing.*`` metrics.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Dict, List, Optional

from repro import metrics
from repro.cache.cache import CacheConfig
from repro.predictor.arpt import ARPT
from repro.predictor.contexts import ContextTracker, context_function
from repro.predictor.static_rules import mode_is_definitive, \
    static_predicts_stack
from repro.timing.branch_pred import GsharePredictor
from repro.timing.config import FU_CLASS, MachineConfig
from repro.timing.machine import TimingResult
from repro.timing.tlb import DataTLB
from repro.timing.value_pred import StrideValuePredictor
from repro.trace.records import (MODE_OTHER, OC_BRANCH, OC_LOAD, OC_STORE,
                                 REGION_HEAP, REGION_STACK, Trace,
                                 TraceRecord)
from tests.oracles.cache import Cache
from tests.oracles.hierarchy import BankManager, Hierarchy, PortManager

_LSQ = 0
_LVAQ = 1


class InflightOp:
    """One dynamic instruction in the machine."""

    __slots__ = ("rec", "seq", "deps_remaining", "consumers", "completed",
                 "value_bypassed", "queue", "addr_known", "mem_issued",
                 "data_producer", "context", "predicted_stack",
                 "wrong_queue", "retry_at", "is_load", "is_store",
                 "tlb_done")

    def __init__(self, rec: TraceRecord, seq: int) -> None:
        self.rec = rec
        self.seq = seq
        self.deps_remaining = 0
        self.consumers: List["InflightOp"] = []
        self.completed = False
        self.value_bypassed = False
        self.queue: Optional[int] = None
        self.addr_known = False
        self.mem_issued = False
        self.data_producer: Optional["InflightOp"] = None
        self.context = 0
        self.predicted_stack = False
        self.wrong_queue = False
        self.retry_at = 0
        self.is_load = rec.op_class == OC_LOAD
        self.is_store = rec.op_class == OC_STORE
        self.tlb_done = False

    @property
    def data_ready(self) -> bool:
        producer = self.data_producer
        return (producer is None or producer.completed
                or producer.value_bypassed)

    def __lt__(self, other: "InflightOp") -> bool:
        return self.seq < other.seq


class TimingSimulator:
    """Runs one trace through one machine configuration.

    ``hints`` (optional) are per-PC stack/non-stack tags from the
    Figure-6 compiler analysis: tagged instructions steer by their tag
    and bypass the ARPT, the paper's Section 3.5.2 scenario of
    compiler-assisted decoupling.
    """

    def __init__(self, config: MachineConfig, hints=None,
                 idle_skip: bool = True) -> None:
        config.validate()
        self.config = config
        self.idle_skip = idle_skip
        line = config.line_size
        self._l1 = Cache(CacheConfig("L1D", config.l1_size, config.l1_assoc,
                                     line, config.l1_latency))
        self._l2 = Cache(CacheConfig("L2", config.l2_size, config.l2_assoc,
                                     line, config.l2_latency))
        self._l1_hier = Hierarchy(self._l1, self._l2, config.memory_latency)
        if config.l1_port_policy == "banks":
            self._l1_ports = BankManager(config.l1_ports, line)
        else:
            self._l1_ports = PortManager(config.l1_ports)
        if config.decoupled:
            self._lvc = Cache(CacheConfig("LVC", config.lvc_size, 1, line,
                                          config.lvc_latency))
            self._lvc_hier = Hierarchy(self._lvc, self._l2,
                                       config.memory_latency)
            self._lvc_ports = PortManager(config.lvc_ports)
        else:
            self._lvc = None
            self._lvc_hier = None
            self._lvc_ports = None
        self._arpt = (ARPT(size=config.arpt_size, bits=1)
                      if config.steering == "arpt" else None)
        self._hint_tags = dict(hints.tags) if hints is not None else {}
        self._tracker = ContextTracker(gbh_bits=config.arpt_gbh_bits,
                                       cid_bits=config.arpt_cid_bits)
        self._context_fn = context_function(self._tracker,
                                            config.arpt_context)
        self._vp = (StrideValuePredictor(config.vp_entries,
                                         config.vp_confidence)
                    if config.value_predict else None)
        self._bpred = (GsharePredictor(config.bpred_entries,
                                       config.bpred_history_bits)
                       if config.branch_predictor == "gshare" else None)
        self._tlb = (DataTLB(config.tlb_entries, config.tlb_page_size)
                     if config.tlb_entries else None)
        self._fetch_blocked_by: Optional[InflightOp] = None
        self._fetch_resume_cycle = 0
        # O(1) issue-latency lookup (config.latency_of walks a tuple).
        self._latency = dict(config.latencies)
        # Run state.
        self._queues: List[List[InflightOp]] = [[], []]
        self._rob: List[InflightOp] = []
        self._rob_head = 0
        self._ready: List[InflightOp] = []   # ops with deps satisfied
        self._events: Dict[int, List] = {}
        # Incremental memory-scheduler state (one slot per queue), so
        # each cycle touches only the entries that could actually act
        # instead of rescanning whole queues:
        #   _mem_pending   seq-sorted issuable candidates (address
        #                  resolved, not yet issued, correctly steered)
        #   _unknown_stores  lazy min-heap of stores whose address is
        #                  still unresolved (ordering fences)
        #   _wrong_stores  mis-steered stores awaiting repair (these
        #                  fence like unknown-address stores)
        #   _stores_by_word  queue stores keyed by aligned word, the
        #                  forwarding index (trace-driven: a record's
        #                  address is known to the model up front)
        self._mem_pending: List[List[InflightOp]] = [[], []]
        self._unknown_stores: List[List[InflightOp]] = [[], []]
        self._wrong_stores: List[List[InflightOp]] = [[], []]
        self._stores_by_word: List[Dict[int, List[InflightOp]]] = \
            [{}, {}]
        self._reg_producer: List[Optional[InflightOp]] = [None] * 64
        # Statistics.
        self.store_forwards = 0
        self.port_stalls = 0
        self.arpt_predictions = 0
        self.arpt_mispredictions = 0
        self.vp_bypasses = 0
        self.issue_stalls = 0
        self.repairs = 0
        self._peak = [0, 0]

    # ------------------------------------------------------------------

    def run(self, trace: Trace) -> TimingResult:
        config = self.config
        records = trace.records
        total = len(records)
        dispatch_ptr = 0
        committed = 0
        cycle = 0
        max_cycles = 200 * total + 100_000

        idle_skip = self.idle_skip
        while committed < total:
            if cycle > max_cycles:
                raise RuntimeError(
                    f"timing simulation wedged at cycle {cycle} "
                    f"({committed}/{total} committed)")
            # 1. Writeback / address-ready / repair events.
            events = self._events.pop(cycle, ())
            for kind, op in events:
                if kind == 0:       # completion
                    self._complete(op)
                    if op is self._fetch_blocked_by:
                        self._fetch_resume_cycle = cycle \
                            + config.branch_redirect_penalty
                elif kind == 1:     # translate -> verify region
                    if self._tlb is not None and not op.tlb_done:
                        op.tlb_done = True
                        if not self._tlb.access(op.rec.addr):
                            # Page walk: translation (and hence region
                            # verification) completes after the penalty.
                            self._post(
                                cycle + config.tlb_miss_penalty, 1, op)
                            continue
                    op.addr_known = True
                    self._verify_region(op, cycle)
                    if op.wrong_queue:
                        # Fences its queue until repaired (stores only;
                        # a mis-steered load just waits).
                        if op.is_store:
                            self._wrong_stores[op.queue].append(op)
                    else:
                        bisect.insort(self._mem_pending[op.queue], op)
                else:               # repair: move to the correct queue
                    self._repair(op)
            # 2. Commit (frees ROB and queue slots for this cycle's
            #    dispatch).
            commit_count = self._commit()
            committed += commit_count
            # 3. Memory scheduling.
            mem_active = self._schedule_memory(_LSQ, cycle)
            if config.decoupled:
                mem_active |= self._schedule_memory(_LVAQ, cycle)
            # 4. Issue.
            self._issue(cycle)
            # 5. Dispatch.
            new_ptr = self._dispatch(records, dispatch_ptr, cycle)
            # 6. Idle-cycle skip.  A cycle with no events, no commit, no
            #    memory activity (issued OR port-stalled), an empty ready
            #    list, and no dispatch progress changes nothing; every
            #    machine state transition except the fetch-redirect timer
            #    is event-driven, so jump straight to the next event (or
            #    the fetch resume point) instead of spinning.  Skipped
            #    cycles replay as exact no-ops: counters (issue/port
            #    stalls) only move on non-idle cycles, keeping results
            #    byte-identical to the cycle-by-cycle walk.
            if idle_skip and not events and not commit_count \
                    and not mem_active and new_ptr == dispatch_ptr \
                    and not self._ready and committed < total:
                target = None
                if self._events:
                    target = min(self._events)
                blocker = self._fetch_blocked_by
                if blocker is not None and blocker.completed:
                    resume = self._fetch_resume_cycle
                    if target is None or resume < target:
                        target = resume
                cycle = target if target is not None \
                    and target > cycle else cycle + 1
            else:
                cycle += 1
            dispatch_ptr = new_ptr

        self._publish_metrics(total, cycle)
        lvc_stats = self._lvc.stats if self._lvc is not None else None
        return TimingResult(
            config_name=config.name,
            trace_name=trace.name,
            instructions=total,
            cycles=cycle,
            l1_hit_rate=self._l1.stats.hit_rate,
            lvc_hit_rate=(lvc_stats.hit_rate if lvc_stats is not None
                          else None),
            l2_hit_rate=self._l2.stats.hit_rate,
            store_forwards=self.store_forwards,
            port_stalls=self.port_stalls,
            arpt_predictions=self.arpt_predictions,
            arpt_mispredictions=self.arpt_mispredictions,
            vp_bypasses=self.vp_bypasses,
            lvaq_occupancy_peak=self._peak[_LVAQ],
            lsq_occupancy_peak=self._peak[_LSQ],
            tlb_miss_rate=(self._tlb.miss_rate
                           if self._tlb is not None else 0.0),
            issue_stalls=self.issue_stalls,
            repairs=self.repairs,
        )

    def _publish_metrics(self, total: int, cycles: int) -> None:
        """End-of-run metrics publication.

        Costs one ``enabled`` check per simulation when collection is
        off; all hot-loop accounting uses the plain integer attributes
        above.  Names are qualified by config (and non-perfect front
        end) so sweeps that simulate several configurations per cell
        never collide.
        """
        registry = metrics.active()
        if not registry.enabled:
            return
        config = self.config
        label = config.name
        if config.branch_predictor != "perfect":
            label = f"{label}@{config.branch_predictor}"
        ns = registry.scoped("timing").scoped(label)
        ns.counter("cycles").inc(cycles)
        ns.counter("instructions").inc(total)
        ns.counter("issue_stalls").inc(self.issue_stalls)
        ns.counter("port_stalls").inc(self.port_stalls)
        ns.counter("store_forwards").inc(self.store_forwards)
        ns.counter("repairs").inc(self.repairs)
        ns.scoped("vp").counter("bypasses").inc(self.vp_bypasses)
        arpt_ns = ns.scoped("arpt")
        arpt_ns.counter("predictions").inc(self.arpt_predictions)
        arpt_ns.counter("mispredictions").inc(self.arpt_mispredictions)
        ns.scoped("lsq").gauge("occupancy_peak").set(self._peak[_LSQ])
        ns.scoped("lvaq").gauge("occupancy_peak").set(self._peak[_LVAQ])
        l1_ns = ns.scoped("l1")
        self._l1.stats.publish(l1_ns)
        ports_ns = l1_ns.scoped("ports")
        ports_ns.counter("grants").inc(self._l1_ports.grants)
        ports_ns.counter("conflicts").inc(self._l1_ports.conflicts)
        self._l2.stats.publish(ns.scoped("l2"))
        if self._lvc is not None:
            lvc_ns = ns.scoped("lvc")
            self._lvc.stats.publish(lvc_ns)
            lvc_ports = lvc_ns.scoped("ports")
            lvc_ports.counter("grants").inc(self._lvc_ports.grants)
            lvc_ports.counter("conflicts").inc(self._lvc_ports.conflicts)
        if self._tlb is not None:
            tlb_ns = ns.scoped("tlb")
            tlb_ns.counter("hits").inc(self._tlb.hits)
            tlb_ns.counter("misses").inc(self._tlb.misses)

    # -- dispatch -------------------------------------------------------

    def _steer(self, rec: TraceRecord, op: InflightOp) -> int:
        """Pick the queue for a memory instruction at dispatch time."""
        config = self.config
        if not config.decoupled:
            return _LSQ
        if config.steering == "oracle":
            return _LVAQ if rec.region == REGION_STACK else _LSQ
        if config.steering == "oracle-heap":
            return _LVAQ if rec.region == REGION_HEAP else _LSQ
        mode = rec.mode
        if mode_is_definitive(mode):
            predicted = static_predicts_stack(mode)
        else:
            tag = self._hint_tags.get(rec.pc)
            if tag is not None:
                predicted = tag          # compiler hint: bypass the ARPT
            else:
                op.context = self._context_fn(rec)
                predicted = self._arpt.predict(rec.pc, op.context)
        op.predicted_stack = predicted
        return _LVAQ if predicted else _LSQ

    def _dispatch(self, records: List[TraceRecord], ptr: int,
                  cycle: int) -> int:
        config = self.config
        # A mispredicted branch blocks the front end until it resolves
        # plus the redirect penalty (gshare front end only).
        blocker = self._fetch_blocked_by
        if blocker is not None:
            if not blocker.completed or cycle < self._fetch_resume_cycle:
                return ptr
            self._fetch_blocked_by = None
        rob_free = config.rob_size - (len(self._rob) - self._rob_head)
        width = min(config.decode_width, rob_free)
        queue_limit = (config.lsq_size, config.lvaq_size)
        total = len(records)
        reg_producer = self._reg_producer
        rob_append = self._rob.append
        # Dispatch order is seq order and every in-flight op is older,
        # so a freshly ready op always belongs at the tail of the
        # (seq-sorted) ready list: plain append, no insort.
        ready_append = self._ready.append
        tracker = self._tracker
        bpred = self._bpred
        vp = self._vp
        arpt = self._arpt
        hint_tags = self._hint_tags
        queues = self._queues
        count = 0
        while count < width and ptr < total:
            rec = records[ptr]
            op = InflightOp(rec, ptr)
            mispredicted_branch = False
            if rec.op_class == OC_BRANCH:
                tracker.observe_branch(rec.taken)
                if bpred is not None:
                    mispredicted_branch = not bpred                         .predict_and_update(rec.pc, rec.taken)
            is_store = op.is_store
            if op.is_load or is_store:
                queue = self._steer(rec, op)
                if len(queues[queue]) >= queue_limit[queue]:
                    break   # in-order dispatch stalls on a full queue
                if arpt is not None and rec.mode == MODE_OTHER \
                        and rec.pc not in hint_tags:
                    self.arpt_predictions += 1
                op.queue = queue
                queues[queue].append(op)
                self._peak[queue] = max(self._peak[queue],
                                        len(queues[queue]))
                if is_store:
                    # Address unresolved until address generation runs;
                    # only conservatively ordered queues consult the
                    # fence heap, so fast-forwarding LVAQs skip it.
                    if queue == _LSQ or not config.lvaq_fast_forwarding:
                        heapq.heappush(self._unknown_stores[queue], op)
                    self._stores_by_word[queue].setdefault(
                        rec.addr >> 3, []).append(op)
            # Register dependences.  For stores the data register is
            # tracked separately: the address can issue before the data
            # is ready.
            if rec.src1 >= 0:
                producer = reg_producer[rec.src1]
                if producer is not None and not producer.completed \
                        and not producer.value_bypassed:
                    op.deps_remaining += 1
                    producer.consumers.append(op)
            if rec.src2 >= 0:
                if is_store:
                    producer = reg_producer[rec.src2]
                    if producer is not None and not producer.completed:
                        op.data_producer = producer
                else:
                    producer = reg_producer[rec.src2]
                    if producer is not None and not producer.completed \
                            and not producer.value_bypassed:
                        op.deps_remaining += 1
                        producer.consumers.append(op)
            # Value prediction: a confidently correct prediction makes
            # the result available to consumers immediately.
            if vp is not None and rec.value is not None:
                if vp.observe(rec.pc, rec.value):
                    op.value_bypassed = True
                    self.vp_bypasses += 1
            if rec.dst > 0:
                reg_producer[rec.dst] = op
            rob_append(op)
            if op.deps_remaining == 0:
                ready_append(op)
            count += 1
            ptr += 1
            if mispredicted_branch:
                # Everything after this branch came down the wrong path;
                # fetch resumes once the branch executes.
                self._fetch_blocked_by = op
                break
        return ptr

    # -- issue ----------------------------------------------------------

    def _issue(self, cycle: int) -> None:
        ready = self._ready
        if not ready:
            return
        config = self.config
        fu_free = dict(config.fu_counts)
        slots = config.issue_width
        deferred: List[InflightOp] = []
        latency_of = self._latency
        fu_class = FU_CLASS
        post = self._post
        # Batched selection: walk the (seq-sorted) ready list once
        # instead of pop(0)/insort churn.  Ops visited but FU-starved
        # go to `deferred`; ops past the issue-width cut are untouched.
        # Both sublists stay seq-ordered and every deferred seq precedes
        # every unvisited seq, so concatenation preserves sortedness.
        taken = 0
        for op in ready:
            if not slots:
                break
            taken += 1
            op_class = op.rec.op_class
            fu = fu_class[op_class]
            if fu is not None:
                if fu_free.get(fu, 0) <= 0:
                    deferred.append(op)
                    continue
                fu_free[fu] -= 1
            slots -= 1
            if op.is_load or op.is_store:
                # Address generation; region verified when it resolves.
                post(cycle + 1, 1, op)
            else:
                post(cycle + latency_of[op_class], 0, op)
        self.issue_stalls += len(deferred)
        self._ready = deferred + ready[taken:]

    def _post(self, cycle: int, kind: int, op: InflightOp) -> None:
        self._events.setdefault(cycle, []).append((kind, op))

    def _complete(self, op: InflightOp) -> None:
        op.completed = True
        for consumer in op.consumers:
            consumer.deps_remaining -= 1
            if consumer.deps_remaining == 0:
                bisect.insort(self._ready, consumer)
        op.consumers = []

    # -- region verification / repair ------------------------------------

    def _verify_region(self, op: InflightOp, cycle: int) -> None:
        """TLB-time region check: detect and schedule queue repair."""
        config = self.config
        rec = op.rec
        if self._arpt is not None and rec.mode == MODE_OTHER \
                and rec.pc not in self._hint_tags:
            self._arpt.update(rec.pc, op.context,
                              rec.region == REGION_STACK)
        if not config.decoupled:
            return
        if config.steering == "oracle-heap":
            correct = _LVAQ if rec.region == REGION_HEAP else _LSQ
        else:
            correct = _LVAQ if rec.region == REGION_STACK else _LSQ
        if op.queue != correct:
            op.wrong_queue = True
            if self._arpt is not None and rec.mode == MODE_OTHER \
                    and rec.pc not in self._hint_tags:
                self.arpt_mispredictions += 1
            self._post(cycle + config.region_mispredict_penalty, 2, op)

    def _correct_queue(self, rec: TraceRecord) -> int:
        if self.config.steering == "oracle-heap":
            return _LVAQ if rec.region == REGION_HEAP else _LSQ
        return _LVAQ if rec.region == REGION_STACK else _LSQ

    def _repair(self, op: InflightOp) -> None:
        """Move a mispredicted op to its correct queue.

        A reserved repair slot lets the move succeed even when the target
        queue is architecturally full; this avoids a (rare) deadlock the
        real machine resolves by squashing, which the trace-driven model
        does not replay.
        """
        self.repairs += 1
        previous = op.queue
        self._queues[previous].remove(op)
        correct = self._correct_queue(op.rec)
        if op.is_store:
            self._wrong_stores[previous].remove(op)
            word = op.rec.addr >> 3
            old_words = self._stores_by_word[previous]
            old_words[word].remove(op)
            if not old_words[word]:
                del old_words[word]
            bisect.insort(self._stores_by_word[correct]
                          .setdefault(word, []), op)
        op.queue = correct
        op.wrong_queue = False
        bisect.insort(self._queues[correct], op)
        # A repaired op arrives with a resolved, unissued address: it
        # is immediately a scheduling candidate in its new queue.
        bisect.insort(self._mem_pending[correct], op)

    # -- memory scheduling ------------------------------------------------

    def _schedule_memory(self, queue_id: int, cycle: int) -> bool:
        # Port arbitration is per-access (`try_acquire(cycle, addr)`),
        # never gated on `ports.available(cycle)`: for a banked L1 the
        # addressless count is only an upper bound - free slots don't
        # help a requester whose address maps to a busy bank.
        #
        # Returns True when the scan did (or attempted) any memory
        # access this cycle; False means the queue provably cannot act
        # until an event fires, which is what makes idle-cycle skipping
        # in ``run`` sound.  Only ``_mem_pending`` - the seq-sorted
        # issuable candidates - is walked, which visits exactly the
        # entries the full-queue scan would have acted on, in the same
        # order, so port grants and stall counts replay identically.
        pending = self._mem_pending[queue_id]
        if not pending:
            return False
        config = self.config
        if queue_id == _LSQ:
            ports = self._l1_ports
            hierarchy = self._l1_hier
            blocking = True    # conservative load/store ordering
        else:
            ports = self._lvc_ports
            hierarchy = self._lvc_hier
            # Fast forwarding (offsets known early) is only available
            # when the LVAQ holds stack references.
            blocking = not config.lvaq_fast_forwarding
        forward_latency = config.forward_latency
        # The ordering fence: the oldest store whose address is still
        # unresolved (conservative queues only) or that awaits repair.
        # Unresolved stores sit in a lazy min-heap - entries whose
        # address has since resolved are popped on sight.
        min_unknown_store = None
        if blocking:
            unknown = self._unknown_stores[queue_id]
            while unknown and unknown[0].addr_known:
                heapq.heappop(unknown)
            if unknown:
                min_unknown_store = unknown[0].seq
        for store in self._wrong_stores[queue_id]:
            if min_unknown_store is None or store.seq < min_unknown_store:
                min_unknown_store = store.seq
        acted = False
        kept: List[InflightOp] = []
        for op in pending:
            if op.is_store:
                if not op.data_ready:
                    kept.append(op)
                    continue
                acted = True
                if ports.try_acquire(cycle, op.rec.addr):
                    op.mem_issued = True
                    hierarchy.access(op.rec.addr, is_write=True)
                    self._post(cycle + 1, 0, op)
                else:
                    self.port_stalls += 1
                    kept.append(op)
                continue
            # Load.
            if min_unknown_store is not None and op.seq > min_unknown_store:
                kept.append(op)
                continue
            store = self._forwarding_store(queue_id, op,
                                           require_addr_known=blocking)
            if store is not None:
                if store.data_ready:
                    acted = True
                    op.mem_issued = True
                    self.store_forwards += 1
                    self._post(cycle + forward_latency, 0, op)
                else:
                    kept.append(op)   # matching store without data: wait
                continue
            acted = True
            if ports.try_acquire(cycle, op.rec.addr):
                op.mem_issued = True
                result = hierarchy.access(op.rec.addr, is_write=False)
                self._post(cycle + result.latency, 0, op)
            else:
                self.port_stalls += 1
                kept.append(op)
        pending[:] = kept
        return acted

    def _forwarding_store(self, queue_id: int, op: InflightOp,
                          require_addr_known: bool = True)\
            -> Optional[InflightOp]:
        """Youngest earlier store to the same word, if any.

        In the LVAQ (``require_addr_known=False``) the offset comparison
        happens at dispatch - stack addresses are $sp/$fp + constant - so
        a store matches even before its address generation has run; this
        is the paper's *fast forwarding*.  The lookup walks the per-word
        forwarding index, not the queue, and matches the full-scan
        semantics: wrong-queue and already-issued stores still forward.
        """
        stores = self._stores_by_word[queue_id].get(op.rec.addr >> 3)
        if not stores:
            return None
        best = None
        for other in stores:
            if other.seq >= op.seq:
                break
            if other.addr_known or not require_addr_known:
                best = other
        return best

    # -- commit -----------------------------------------------------------

    def _commit(self) -> int:
        count = 0
        rob = self._rob
        head = self._rob_head
        width = self.config.commit_width
        while count < width and head < len(rob):
            op = rob[head]
            if not op.completed:
                break
            if op.queue is not None:
                queue = self._queues[op.queue]
                # The committing op is the oldest in flight, hence at (or
                # near, after repairs) the front of its queue.
                queue.remove(op)
                if op.is_store:
                    words = self._stores_by_word[op.queue]
                    word = op.rec.addr >> 3
                    entries = words[word]
                    entries.remove(op)
                    if not entries:
                        del words[word]
                op.queue = None
            head += 1
            count += 1
        self._rob_head = head
        if head > 4096:   # periodically reclaim the committed prefix
            del rob[:head]
            self._rob_head = 0
        return count



def simulate(trace: Trace, config: MachineConfig, hints=None,
             idle_skip: bool = True) -> TimingResult:
    """Run one trace through the oracle machine.

    ``idle_skip=False`` walks every cycle instead of jumping over idle
    ones; results are identical either way.
    """
    return TimingSimulator(config, hints=hints,
                           idle_skip=idle_skip).run(trace)
