"""Sliding-instruction-window bandwidth statistics (the paper's Table 2).

For every retired instruction, count how many of the last W instructions
were data, heap, and stack references.  The mean of those counts measures
each region's bandwidth demand over a W-wide instruction window (the
processor's effective scheduling window); the standard deviation measures
burstiness.  The paper calls accesses *strictly bursty* when the standard
deviation exceeds the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.trace.records import (REGION_DATA, REGION_HEAP, REGION_STACK,
                                 TraceRecord)
from repro.trace.shards import iter_chunks

REGION_NAMES = {REGION_DATA: "data", REGION_HEAP: "heap",
                REGION_STACK: "stack"}


@dataclass(frozen=True)
class WindowStats:
    """Mean and standard deviation of per-window access counts."""

    mean: float
    std: float
    samples: int

    @property
    def strictly_bursty(self) -> bool:
        """The paper's burstiness criterion: std > mean."""
        return self.std > self.mean


@dataclass(frozen=True)
class RegionWindowStats:
    """Table-2 row for one program at one window size."""

    name: str
    window: int
    data: WindowStats
    heap: WindowStats
    stack: WindowStats

    def stats_for(self, region_code: int) -> WindowStats:
        return {REGION_DATA: self.data, REGION_HEAP: self.heap,
                REGION_STACK: self.stack}[region_code]


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


def _mapped_region(columns) -> np.ndarray:
    """Region codes with non-memory rows mapped to -1 (int64)."""
    return np.where(columns.memory_mask(), columns.region,
                    -1).astype(np.int64)


def _moments_of_ext(ext: np.ndarray, window: int)\
        -> Tuple[int, Dict[int, int], Dict[int, int]]:
    """Moments of the windows *ending inside* ``ext``.

    Cumulative-sum formulation of the sliding window: for the region
    indicator array ``x``, the count of region references in the window
    ending at instruction ``i`` (i >= window-1) is
    ``csum[i+1] - csum[i+1-window]``.  Exact integer arithmetic, so the
    moments match :class:`SlidingWindowProfiler` (the retained scalar
    reference) bit for bit.
    """
    samples = max(0, len(ext) - window + 1)
    sums: Dict[int, int] = {}
    sumsq: Dict[int, int] = {}
    for code in (REGION_DATA, REGION_HEAP, REGION_STACK):
        if samples == 0:
            sums[code] = 0
            sumsq[code] = 0
            continue
        csum = np.concatenate(
            ([0], np.cumsum((ext == code).astype(np.int64))))
        counts = csum[window:] - csum[:-window]
        sums[code] = int(counts.sum())
        sumsq[code] = int(np.dot(counts, counts))
    return samples, sums, sumsq


def _add_moments(acc, part) -> None:
    samples, sums, sumsq = part
    acc[0] += samples
    for code in (REGION_DATA, REGION_HEAP, REGION_STACK):
        acc[1][code] += sums[code]
        acc[2][code] += sumsq[code]


def _empty_moments():
    zeros = {REGION_DATA: 0, REGION_HEAP: 0, REGION_STACK: 0}
    return [0, dict(zeros), dict(zeros)]


def window_shard_partial(columns, window: int) -> dict:
    """Chunk-local Table-2 partial (one per shard, or per in-RAM trace).

    Covers the windows lying *fully inside* this shard, plus the first
    and last ``min(window-1, rows)`` mapped region codes.  The combine
    step (:func:`combine_window_partials`) reconstructs every
    boundary-straddling window from consecutive tails and heads - at
    most ``window - 1`` codes each - so shard tasks never read their
    neighbours.
    """
    if window <= 0:
        raise ValueError("window size must be positive")
    region = _mapped_region(columns)
    edge = min(window - 1, len(region))
    samples, sums, sumsq = _moments_of_ext(region, window)
    return {"rows": len(region), "samples": samples, "sums": sums,
            "sumsq": sumsq,
            "head": region[:edge], "tail": region[len(region) - edge:]}


def combine_window_partials(partials, window: int)\
        -> Tuple[int, Dict[int, int], Dict[int, int]]:
    """Fold ordered per-shard partials into whole-trace moments.

    Walks the shards in trace order keeping the window-remainder carry
    (the last ``window - 1`` codes seen); each shard contributes its
    inner moments plus the boundary windows counted over
    ``carry + head``.  Exact integers throughout - byte-identical to
    the monolithic pass for every shard size, including shards smaller
    than the window (where ``head == tail ==`` the whole shard, so the
    carry remains complete).
    """
    acc = _empty_moments()
    carry = np.zeros(0, dtype=np.int64)
    for part in partials:
        _add_moments(acc, (part["samples"], part["sums"],
                           part["sumsq"]))
        if window > 1:
            boundary = np.concatenate((carry, part["head"]))
            _add_moments(acc, _moments_of_ext(boundary, window))
            carry = np.concatenate(
                (carry, part["tail"]))[-(window - 1):]
    return acc[0], acc[1], acc[2]


def stats_from_moments(name: str, window: int, samples: int,
                       sums: Dict[int, int], sumsq: Dict[int, int],
                       publish: bool = True) -> RegionWindowStats:
    """Finish Table-2 statistics (and metric publication) from exact
    moments - shared by :func:`window_stats` and the engine fan-out so
    both publish and round identically."""
    from repro import metrics
    if publish:
        registry = metrics.active()
        if registry.enabled:
            ns = registry.scoped("trace").scoped(f"window{window}")
            for code, region in REGION_NAMES.items():
                ns.timeseries(region, interval=window).observe_moments(
                    samples, sums[code], sumsq[code])

    def stats(code: int) -> WindowStats:
        if samples == 0:
            return WindowStats(mean=0.0, std=0.0, samples=0)
        mean = sums[code] / samples
        variance = max(0.0, sumsq[code] / samples - mean * mean)
        return WindowStats(mean=mean, std=math.sqrt(variance),
                           samples=samples)

    return RegionWindowStats(
        name=name, window=window,
        data=stats(REGION_DATA),
        heap=stats(REGION_HEAP),
        stack=stats(REGION_STACK),
    )


def window_stats(trace, window: int) -> RegionWindowStats:
    """One-shot Table-2 statistics for a trace at one window size.

    Computed vectorised (cumulative sums of the region indicator
    arrays) as one :func:`window_shard_partial` per chunk of a
    :class:`~repro.trace.records.Trace` (a single chunk) or a
    :class:`~repro.trace.shards.ShardedTrace`, folded by
    :func:`combine_window_partials`;
    :class:`SlidingWindowProfiler` is the scalar reference it is
    tested against.

    When metrics collection is enabled, publishes one
    ``trace.window<W>.<region>`` time-series per region carrying the
    exact moments (count, sum, sum of squares) of the per-window access
    counts - the inputs to Table 2's mean/std burstiness analysis.
    """
    if window <= 0:
        raise ValueError("window size must be positive")
    moments = combine_window_partials(
        (window_shard_partial(chunk, window)
         for chunk in iter_chunks(trace)), window)
    return stats_from_moments(trace.name, window, *moments)
