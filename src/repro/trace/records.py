"""Dynamic-trace representation.

The functional simulator emits one :class:`TraceRecord` per retired
instruction.  Records carry everything the downstream consumers need:

* the profiler (Figure 2 / Table 2) needs PC, memory address, and region;
* the access-region predictor (Figures 4-5, Table 3) additionally needs
  the addressing mode, branch outcomes (for global branch history), and
  the link-register value (for caller identification);
* the timing simulator needs register dependences, op classes, and result
  values (for the stride value predictor).

Records use ``__slots__``: traces run to millions of instances.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.trace.columns import ColumnarTrace

from repro.isa.instructions import Op
from repro.runtime.layout import Region

# Operation classes (functional-unit classes in the timing model).
OC_IALU = 0
OC_IMUL = 1
OC_IDIV = 2
OC_FALU = 3
OC_FMUL = 4
OC_FDIV = 5
OC_LOAD = 6
OC_STORE = 7
OC_BRANCH = 8
OC_JUMP = 9
OC_CALL = 10
OC_RET = 11
OC_SYSCALL = 12

OP_CLASS_NAMES = {
    OC_IALU: "ialu", OC_IMUL: "imul", OC_IDIV: "idiv",
    OC_FALU: "falu", OC_FMUL: "fmul", OC_FDIV: "fdiv",
    OC_LOAD: "load", OC_STORE: "store", OC_BRANCH: "branch",
    OC_JUMP: "jump", OC_CALL: "call", OC_RET: "ret",
    OC_SYSCALL: "syscall",
}

#: Region codes kept as small ints in records for speed.
REGION_DATA = 0
REGION_HEAP = 1
REGION_STACK = 2

REGION_OF_CODE = {
    REGION_DATA: Region.DATA,
    REGION_HEAP: Region.HEAP,
    REGION_STACK: Region.STACK,
}

# Addressing-mode codes (see isa.instructions.AddrMode).
MODE_CONSTANT = 0
MODE_STACK = 1
MODE_GLOBAL = 2
MODE_OTHER = 3

#: Map non-memory opcodes to their op class; memory/branch/jump classes
#: are assigned by the simulator directly.
_OP_CLASS: Dict[Op, int] = {}
for _op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLL, Op.SRL, Op.SRA,
            Op.SLT, Op.SLE, Op.SEQ, Op.SNE, Op.ADDI, Op.ANDI, Op.ORI,
            Op.XORI, Op.SLLI, Op.SRLI, Op.SRAI, Op.SLTI, Op.LI, Op.LA,
            Op.LFA, Op.MOV, Op.NOP):
    _OP_CLASS[_op] = OC_IALU
for _op in (Op.MUL,):
    _OP_CLASS[_op] = OC_IMUL
for _op in (Op.DIV, Op.REM):
    _OP_CLASS[_op] = OC_IDIV
for _op in (Op.FADD, Op.FSUB, Op.FNEG, Op.FABS, Op.FMOV, Op.FLT, Op.FLE,
            Op.FEQ, Op.CVTIF, Op.CVTFI):
    _OP_CLASS[_op] = OC_FALU
for _op in (Op.FMUL,):
    _OP_CLASS[_op] = OC_FMUL
for _op in (Op.FDIV, Op.FSQRT):
    _OP_CLASS[_op] = OC_FDIV


def op_class_of(op: Op) -> int:
    return _OP_CLASS[op]


class TraceRecord:
    """One retired dynamic instruction."""

    __slots__ = ("pc", "op_class", "dst", "src1", "src2", "addr", "mode",
                 "region", "taken", "ra", "value")

    def __init__(self, pc: int, op_class: int, dst: int = -1,
                 src1: int = -1, src2: int = -1, addr: int = 0,
                 mode: int = -1, region: int = -1, taken: bool = False,
                 ra: int = 0, value: Optional[int] = None) -> None:
        self.pc = pc
        self.op_class = op_class
        self.dst = dst
        self.src1 = src1
        self.src2 = src2
        self.addr = addr
        self.mode = mode          # addressing mode code; -1 for non-memory
        self.region = region      # region code; -1 for non-memory
        self.taken = taken        # branch outcome
        self.ra = ra              # link-register value (memory records)
        self.value = value        # integer result value, when produced

    @property
    def is_load(self) -> bool:
        return self.op_class == OC_LOAD

    @property
    def is_store(self) -> bool:
        return self.op_class == OC_STORE

    @property
    def is_mem(self) -> bool:
        return self.op_class in (OC_LOAD, OC_STORE)

    @property
    def is_branch(self) -> bool:
        return self.op_class == OC_BRANCH

    @property
    def is_stack(self) -> bool:
        return self.region == REGION_STACK

    def __repr__(self) -> str:
        name = OP_CLASS_NAMES[self.op_class]
        if self.is_mem:
            return (f"TraceRecord({name} pc={self.pc:#x} addr={self.addr:#x}"
                    f" region={self.region})")
        return f"TraceRecord({name} pc={self.pc:#x})"


class Trace:
    """A complete dynamic trace of one program execution.

    A trace is backed by *either* a list of :class:`TraceRecord`
    objects, a :class:`~repro.trace.columns.ColumnarTrace`
    structure-of-arrays view, or both.  Each representation is derived
    lazily from the other and cached:

    * ``trace.columns`` builds (once) the columnar view the vectorised
      profiler and predictor paths consume;
    * ``trace.records`` materialises (once) record objects for the
      consumers that truly need per-record traversal - the cycle-level
      timing machine.

    ``load_trace`` and the functional simulator construct traces
    column-first, so the profiling experiments never allocate a record
    object at all.
    """

    __slots__ = ("name", "output", "exit_code", "_records", "_columns",
                 "_load_count", "_store_count", "_memory_records")

    def __init__(self, name: str,
                 records: Optional[List[TraceRecord]] = None,
                 output: Optional[List[object]] = None,
                 exit_code: int = 0,
                 columns: Optional["ColumnarTrace"] = None) -> None:
        self.name = name
        if records is None and columns is None:
            records = []
        self._records = records
        self._columns = columns
        self.output = output if output is not None else []
        self.exit_code = exit_code
        self._load_count: Optional[int] = None
        self._store_count: Optional[int] = None
        self._memory_records: Optional[List[TraceRecord]] = None

    @property
    def records(self) -> List[TraceRecord]:
        """The record-object view (materialised from columns on first
        access, then cached)."""
        if self._records is None:
            self._records = self._columns.to_records()
        return self._records

    @property
    def columns(self) -> "ColumnarTrace":
        """The structure-of-arrays view (built from the record list on
        first access, then cached)."""
        if self._columns is None:
            from repro.trace.columns import ColumnarTrace
            self._columns = ColumnarTrace.from_records(self._records)
        return self._columns

    @property
    def has_columns(self) -> bool:
        """Whether the columnar view already exists (no conversion)."""
        return self._columns is not None

    @property
    def has_records(self) -> bool:
        """Whether record objects are already materialised."""
        return self._records is not None

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self._columns)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def materialize(self) -> "Trace":
        """The whole in-RAM trace: already this one (the same call on
        a :class:`~repro.trace.shards.ShardedTrace` concatenates its
        shards)."""
        return self

    def __repr__(self) -> str:
        backing = "records" if self._records is not None else "columns"
        return (f"Trace(name={self.name!r}, n={len(self)}, "
                f"backing={backing})")

    @property
    def instruction_count(self) -> int:
        return len(self)

    @property
    def load_count(self) -> int:
        if self._load_count is None:
            import numpy as np
            self._load_count = int(np.count_nonzero(
                self.columns.op_class == OC_LOAD))
        return self._load_count

    @property
    def store_count(self) -> int:
        if self._store_count is None:
            import numpy as np
            self._store_count = int(np.count_nonzero(
                self.columns.op_class == OC_STORE))
        return self._store_count

    @property
    def memory_records(self) -> List[TraceRecord]:
        if self._memory_records is None:
            self._memory_records = [r for r in self.records
                                    if r.op_class in (OC_LOAD, OC_STORE)]
        return self._memory_records

    def load_fraction(self) -> float:
        return self.load_count / max(1, len(self))

    def store_fraction(self) -> float:
        return self.store_count / max(1, len(self))
