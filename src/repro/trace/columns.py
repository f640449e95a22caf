"""Columnar (structure-of-arrays) trace backbone.

A :class:`ColumnarTrace` holds one NumPy array per
:class:`~repro.trace.records.TraceRecord` field, plus a validity mask
for the optional ``value`` column (``value is None`` in record form).
Every consumer - the Figure 2 region breakdown, the Table 2 sliding
windows, the Figure 4/5 predictor replay, the cycle-level timing
machine - operates on these arrays directly, so an experiment never
pays for millions of Python objects.  :class:`TraceRecord` objects are
materialised only on request (lazily, via :meth:`to_records`), for
tests, examples and ad-hoc per-record analysis.

Three construction paths, in decreasing order of frequency:

* **zero-copy from disk** - :func:`repro.trace.serialize.load_trace`
  hands the arrays it deserialised straight to ``ColumnarTrace``;
* **from the simulator's row buffer** - the functional simulator
  appends one plain tuple per retired instruction and
  :meth:`from_rows` columnises the buffer once at end of run;
* **from record objects** - :meth:`from_records` converts a
  materialised record list (synthetic test traces, legacy producers).

Conversions publish ``trace.columnar.{builds,materializations,
records}`` counters into the active metrics registry so their overhead
is observable (no-ops when collection is disabled).
"""

from __future__ import annotations

import gc
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.records import (OC_LOAD, OC_STORE, TraceRecord)

#: ``(field, dtype)`` for every TraceRecord column except ``value``,
#: in the positional order of ``TraceRecord.__init__``.
COLUMN_DTYPES: Tuple[Tuple[str, type], ...] = (
    ("pc", np.int64),
    ("op_class", np.int8),
    ("dst", np.int8),
    ("src1", np.int8),
    ("src2", np.int8),
    ("addr", np.int64),
    ("mode", np.int8),
    ("region", np.int8),
    ("taken", np.bool_),
    ("ra", np.int64),
)

_FIELDS = tuple(name for name, _ in COLUMN_DTYPES)


def _publish_conversion(kind: str, count: int) -> None:
    """Count one records<->columns conversion (off = one attr check)."""
    from repro import metrics
    registry = metrics.active()
    if not registry.enabled:
        return
    ns = registry.scoped("trace").scoped("columnar")
    ns.counter(kind).inc()
    ns.counter("records").inc(count)


class ColumnarTrace:
    """One NumPy array per trace column (+ ``value`` validity mask)."""

    __slots__ = ("pc", "op_class", "dst", "src1", "src2", "addr", "mode",
                 "region", "taken", "ra", "value", "value_valid")

    def __init__(self, pc, op_class, dst, src1, src2, addr, mode, region,
                 taken, ra, value, value_valid) -> None:
        self.pc = np.asarray(pc, dtype=np.int64)
        self.op_class = np.asarray(op_class, dtype=np.int8)
        self.dst = np.asarray(dst, dtype=np.int8)
        self.src1 = np.asarray(src1, dtype=np.int8)
        self.src2 = np.asarray(src2, dtype=np.int8)
        self.addr = np.asarray(addr, dtype=np.int64)
        self.mode = np.asarray(mode, dtype=np.int8)
        self.region = np.asarray(region, dtype=np.int8)
        self.taken = np.asarray(taken, dtype=np.bool_)
        self.ra = np.asarray(ra, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.int64)
        self.value_valid = np.asarray(value_valid, dtype=np.bool_)
        n = self.pc.shape[0]
        for field in ("op_class", "dst", "src1", "src2", "addr", "mode",
                      "region", "taken", "ra", "value", "value_valid"):
            if getattr(self, field).shape != (n,):
                raise ValueError(
                    f"column {field!r} has shape "
                    f"{getattr(self, field).shape}, expected ({n},)")

    def __len__(self) -> int:
        return self.pc.shape[0]

    # -- construction ---------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord])\
            -> "ColumnarTrace":
        """Columnise a materialised record list (one C pass per field)."""
        n = len(records)
        columns = [np.fromiter((getattr(r, name) for r in records),
                               dtype=dtype, count=n)
                   for name, dtype in COLUMN_DTYPES]
        value = np.fromiter(
            (0 if r.value is None else r.value for r in records),
            dtype=np.int64, count=n)
        valid = np.fromiter((r.value is not None for r in records),
                            dtype=np.bool_, count=n)
        _publish_conversion("builds", n)
        return cls(*columns, value, valid)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple],
                  publish: bool = True) -> "ColumnarTrace":
        """Columnise the simulator's row buffer (tuples in field order:
        ``(pc, op_class, dst, src1, src2, addr, mode, region, taken,
        ra, value)``).

        ``publish=False`` suppresses the ``trace.columnar.*`` counters:
        the sharded spill path columnises many bounded buffers per run
        and publishes the build once at writer finish, so a spilled
        build counts exactly like a monolithic one.
        """
        n = len(rows)
        if n == 0:
            return cls.empty()
        transposed = list(zip(*rows))
        columns = [np.fromiter(col, dtype=dtype, count=n)
                   for col, (_, dtype) in zip(transposed, COLUMN_DTYPES)]
        raw_values = transposed[len(COLUMN_DTYPES)]
        value = np.fromiter((0 if v is None else v for v in raw_values),
                            dtype=np.int64, count=n)
        valid = np.fromiter((v is not None for v in raw_values),
                            dtype=np.bool_, count=n)
        if publish:
            _publish_conversion("builds", n)
        return cls(*columns, value, valid)

    @classmethod
    def empty(cls) -> "ColumnarTrace":
        zeros = [np.zeros(0, dtype=dtype) for _, dtype in COLUMN_DTYPES]
        return cls(*zeros, np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=np.bool_))

    # -- materialisation ------------------------------------------------

    def to_records(self) -> List[TraceRecord]:
        """Materialise :class:`TraceRecord` objects for the columns.

        Bulk-converts each column to Python scalars first (one C pass
        per column), then builds the records with collection paused:
        nothing allocated here can be cyclic garbage, and letting the
        GC rescan every live object per threshold crossing is a ~7x
        slowdown on million-record traces.
        """
        n = len(self)
        lists = [getattr(self, name).tolist() for name in _FIELDS]
        values = self.value.tolist()
        if not bool(self.value_valid.all()):
            valid = self.value_valid.tolist()
            values = [v if ok else None for v, ok in zip(values, valid)]
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            # Column order matches TraceRecord's positional signature.
            records = list(map(TraceRecord, *lists, values))
        finally:
            if gc_was_enabled:
                gc.enable()
        _publish_conversion("materializations", n)
        return records

    # -- derived masks ---------------------------------------------------

    def memory_mask(self) -> np.ndarray:
        """Boolean mask selecting load/store rows."""
        op = self.op_class
        return (op == OC_LOAD) | (op == OC_STORE)
