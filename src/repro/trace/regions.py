"""Per-static-instruction access-region analysis (the paper's Figure 2).

Classifies every static memory instruction by the set of regions it
touches at run time: "D" (data only), "H" (heap only), "S" (stack only),
and the multi-region classes "D/H", "D/S", "H/S", "D/H/S".  The paper's
central observation - *access region locality* - is that the multi-region
classes are tiny (1.8-1.9% of static instructions on average).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.trace.records import (REGION_DATA, REGION_HEAP, REGION_STACK,
                                 TraceRecord)
from repro.trace.shards import iter_chunks

#: Canonical class labels in the paper's presentation order.
REGION_CLASSES = ("D", "H", "S", "D/H", "D/S", "H/S", "D/H/S")

_CLASS_OF_MASK = {
    0b001: "D",
    0b010: "H",
    0b100: "S",
    0b011: "D/H",
    0b101: "D/S",
    0b110: "H/S",
    0b111: "D/H/S",
}

_BIT_OF_REGION = {REGION_DATA: 0b001, REGION_HEAP: 0b010, REGION_STACK: 0b100}

MULTI_REGION_CLASSES = ("D/H", "D/S", "H/S", "D/H/S")


@dataclass
class RegionBreakdown:
    """Figure-2 style breakdown for one program."""

    name: str
    static_counts: Dict[str, int] = field(default_factory=dict)
    dynamic_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total_static(self) -> int:
        return sum(self.static_counts.values())

    @property
    def total_dynamic(self) -> int:
        return sum(self.dynamic_counts.values())

    def static_fraction(self, cls: str) -> float:
        return self.static_counts.get(cls, 0) / max(1, self.total_static)

    def dynamic_fraction(self, cls: str) -> float:
        return self.dynamic_counts.get(cls, 0) / max(1, self.total_dynamic)

    @property
    def multi_region_static_fraction(self) -> float:
        """Fraction of static memory instructions accessing >1 region."""
        return sum(self.static_fraction(c) for c in MULTI_REGION_CLASSES)

    @property
    def multi_region_dynamic_fraction(self) -> float:
        """Fraction of dynamic references from multi-region instructions."""
        return sum(self.dynamic_fraction(c) for c in MULTI_REGION_CLASSES)

    @property
    def stack_only_static_fraction(self) -> float:
        return self.static_fraction("S")


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


def pc_region_partial(columns) -> Tuple[np.ndarray, np.ndarray,
                                        np.ndarray]:
    """Per-static-PC region bitmasks for one columnar chunk.

    Returns ``(pcs, masks, dynamic)``: the distinct memory-instruction
    PCs (sorted), each PC's OR of region bits (1=data, 2=heap, 4=stack
    - the same encoding as ``_BIT_OF_REGION``), and each PC's dynamic
    reference count.  One sort + two grouped reductions replace the
    scalar classifier's per-record dict updates.  This is also the
    shard-local partial of the streaming/fan-out Figure 2 path: masks
    OR and dynamic counts sum across shards (exact integers, any
    order), so folding per-shard partials is byte-identical to one
    whole-trace pass.
    """
    region = columns.region
    mem = region >= 0
    pcs = columns.pc[mem]
    bits = np.left_shift(1, region[mem].astype(np.int64))
    order = np.argsort(pcs, kind="stable")
    pcs = pcs[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], pcs[1:] != pcs[:-1]))) if len(pcs) else np.zeros(
            0, dtype=np.int64)
    if len(pcs) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    masks = np.bitwise_or.reduceat(bits[order], starts)
    dynamic = np.diff(np.append(starts, len(pcs)))
    return pcs[starts], masks, dynamic


def fold_pc_partials(partials) -> Tuple[np.ndarray, np.ndarray,
                                        np.ndarray]:
    """Merge per-shard ``(pcs, masks, dynamic)`` partials into one.

    Masks OR and dynamic counts add per PC - both exact integer
    reductions, so the result does not depend on shard size or fold
    order.
    """
    partials = [p for p in partials if len(p[0])]
    if not partials:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    if len(partials) == 1:
        return partials[0]
    pcs = np.concatenate([p[0] for p in partials])
    masks = np.concatenate([p[1] for p in partials])
    dynamic = np.concatenate([p[2] for p in partials])
    order = np.argsort(pcs, kind="stable")
    pcs = pcs[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], pcs[1:] != pcs[:-1])))
    return (pcs[starts],
            np.bitwise_or.reduceat(masks[order], starts),
            np.add.reduceat(dynamic[order], starts))


def _pc_region_masks(trace) -> Tuple[np.ndarray, np.ndarray,
                                     np.ndarray]:
    """Per-static-PC region info for a ``Trace`` or ``ShardedTrace``.

    Folds each chunk's partial into the running one as it goes, so
    the accumulator holds one entry per distinct PC, never a whole
    trace (an in-RAM trace is a single chunk).
    """
    folded = fold_pc_partials(())
    for chunk in iter_chunks(trace):
        folded = fold_pc_partials((folded, pc_region_partial(chunk)))
    return folded


def breakdown_from_partial(name: str, masks: np.ndarray,
                           dynamic: np.ndarray) -> RegionBreakdown:
    """Fold per-PC masks/counts into the Figure-2 breakdown."""
    static_by_mask = np.bincount(masks, minlength=8)
    dynamic_by_mask = np.bincount(masks, weights=dynamic, minlength=8)
    static_counts = {cls: 0 for cls in REGION_CLASSES}
    dynamic_counts = {cls: 0 for cls in REGION_CLASSES}
    for mask, cls in _CLASS_OF_MASK.items():
        static_counts[cls] = int(static_by_mask[mask])
        dynamic_counts[cls] = int(dynamic_by_mask[mask])
    return RegionBreakdown(name=name, static_counts=static_counts,
                           dynamic_counts=dynamic_counts)


def region_breakdown(trace) -> RegionBreakdown:
    """One-shot Figure-2 breakdown of a trace (vectorised).

    Equivalent to streaming the trace through
    :class:`RegionClassifier` (the retained scalar reference) but
    computed with grouped NumPy reductions, folded chunk by chunk over
    a :class:`Trace` or a :class:`~repro.trace.shards.ShardedTrace`.
    """
    _, masks, dynamic = _pc_region_masks(trace)
    return breakdown_from_partial(trace.name, masks, dynamic)


def single_region_pcs(trace) -> Dict[int, bool]:
    """PC -> is_stack for single-region instructions (vectorised).

    Columnar counterpart of
    :meth:`RegionClassifier.single_region_pcs`, feeding the idealised
    compiler-hint scheme without materialising records.  Folds over
    chunks like :func:`region_breakdown`.
    """
    pcs, masks, _ = _pc_region_masks(trace)
    single = (masks == 0b001) | (masks == 0b010) | (masks == 0b100)
    return dict(zip((pcs[single]).tolist(),
                    (masks[single] == 0b100).tolist()))
