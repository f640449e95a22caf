"""Tests for trace records and the Trace container."""

import pytest

from repro.isa.instructions import Op
from repro.trace.records import (OC_BRANCH, OC_FALU, OC_IALU, OC_IDIV,
                                 OC_IMUL, OC_LOAD, OC_STORE, REGION_STACK,
                                 Trace, TraceRecord, op_class_of)


class TestOpClassMapping:
    def test_alu_classes(self):
        assert op_class_of(Op.ADD) == OC_IALU
        assert op_class_of(Op.MUL) == OC_IMUL
        assert op_class_of(Op.DIV) == OC_IDIV
        assert op_class_of(Op.REM) == OC_IDIV
        assert op_class_of(Op.FADD) == OC_FALU

    def test_memory_ops_not_in_alu_map(self):
        with pytest.raises(KeyError):
            op_class_of(Op.LW)

    def test_every_alu_op_mapped(self):
        unmapped_ok = {Op.LW, Op.SW, Op.LF, Op.SF, Op.BEQZ, Op.BNEZ,
                       Op.J, Op.JAL, Op.JR, Op.JALR, Op.SYSCALL}
        for op in Op:
            if op in unmapped_ok:
                continue
            op_class_of(op)   # must not raise


class TestTraceRecord:
    def test_predicates(self):
        load = TraceRecord(8, OC_LOAD, addr=0x10000000, region=0)
        store = TraceRecord(8, OC_STORE, addr=0x10000000, region=0)
        branch = TraceRecord(8, OC_BRANCH, taken=True)
        assert load.is_load and load.is_mem and not load.is_store
        assert store.is_store and store.is_mem and not store.is_load
        assert branch.is_branch and not branch.is_mem

    def test_is_stack(self):
        record = TraceRecord(8, OC_LOAD, addr=0x7FFF0000,
                             region=REGION_STACK)
        assert record.is_stack

    def test_repr_forms(self):
        load = TraceRecord(0x400008, OC_LOAD, addr=0x10000000, region=0)
        assert "load" in repr(load)
        assert "0x400008" in repr(load)
        alu = TraceRecord(0x400010, OC_IALU)
        assert "ialu" in repr(alu)

    def test_slots_reject_new_attributes(self):
        record = TraceRecord(8, OC_IALU)
        with pytest.raises(AttributeError):
            record.bogus = 1


class TestTraceContainer:
    def _trace(self):
        records = [
            TraceRecord(8, OC_LOAD, addr=0x10000000, region=0),
            TraceRecord(16, OC_IALU),
            TraceRecord(24, OC_STORE, addr=0x10000000, region=0),
            TraceRecord(32, OC_LOAD, addr=0x10000000, region=0),
        ]
        return Trace("t", records, output=[42], exit_code=0)

    def test_counts(self):
        trace = self._trace()
        assert len(trace) == 4
        assert trace.load_count == 2
        assert trace.store_count == 1
        assert trace.load_fraction() == 0.5
        assert trace.store_fraction() == 0.25

    def test_iteration(self):
        assert sum(1 for _ in self._trace()) == 4

    def test_empty_trace_fractions(self):
        trace = Trace("empty")
        assert trace.load_fraction() == 0.0
        assert trace.store_fraction() == 0.0
