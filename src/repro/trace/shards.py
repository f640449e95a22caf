"""Out-of-core sharded traces: bounded column chunks + a manifest.

A :class:`ShardedTrace` stores one dynamic trace as a sequence of
fixed-size column shards - each shard a compressed ``.npz`` holding the
same structure-of-arrays layout as :mod:`repro.trace.serialize` (format
v3) - plus a ``manifest.json`` carrying per-shard row counts, CRC-32
checksums, and op-class/region tallies.  The shard is the native unit
of storage, caching, and parallelism:

* the functional simulator *spills* its row buffer into a
  :class:`ShardWriter` every ``shard_rows`` retired instructions, so
  producing a ``--scale 100`` trace never holds more than one shard of
  rows in RAM;
* every reduction is one loop over :func:`iter_chunks` - one
  :class:`ColumnarTrace` at a time, CRC-verified lazily on load (an
  in-RAM trace is a single chunk) - folding chunk-local partials with
  explicit carry state (see ``repro.trace.{regions,windows}`` and
  ``repro.predictor.evaluate``), so results do not depend on the
  shard size;
* the eval engine fans out over (cell x shard) so one experiment can
  use every core.

Sharding is governed by one knob: ``--shard-rows N`` /
``REPRO_SHARD_ROWS`` (0 or unset = off, everything stays monolithic).
Aggregate tallies (instructions, loads, stores, branches, syscalls,
per-region counts) live in the manifest, so Table 1 style summaries
and the engine's ``cpu.*`` trace metrics need no shard I/O at all.

Corruption handling mirrors the monolithic cache: a shard whose bytes
do not match the manifest CRC raises
:class:`~repro.trace.serialize.TraceIntegrityError` after invoking the
owner's ``on_corrupt`` hook (the trace cache quarantines the whole
entry atomically there), and the engine's per-cell retry regenerates.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from pathlib import Path
from typing import (Callable, Iterable, Iterator, List, Optional,
                    Sequence, Union)

import numpy as np

from repro.trace.columns import (COLUMN_DTYPES, ColumnarTrace,
                                 _publish_conversion)
from repro.trace.records import (OC_BRANCH, OC_LOAD, OC_STORE,
                                 OC_SYSCALL, REGION_DATA, REGION_HEAP,
                                 REGION_STACK, Trace)
from repro.trace.serialize import _NO_VALUE, TraceIntegrityError

#: Sharded entries are format v3 (v2 is the monolithic single-file
#: layout).  Cache keys embed the version, so a bump regenerates.
SHARD_FORMAT_VERSION = 3

#: Manifest file name inside a shard-set directory.
MANIFEST_NAME = "manifest.json"

#: Environment knob: rows per shard; 0/unset disables sharding.
ENV_VAR = "REPRO_SHARD_ROWS"

#: Per-N sampling for ``trace:shard`` spans (1 = trace every shard).
SPAN_SAMPLE_ENV_VAR = "REPRO_SPAN_SAMPLE"

#: Aggregate tallies kept per shard in the manifest; summed they are
#: exactly what :func:`_shard_counts` gives for a monolithic trace's
#: columns (the engine publishes either as ``cpu.*``).
COUNT_FIELDS = ("instructions", "loads", "stores", "branches",
                "syscalls", "region_data", "region_heap", "region_stack")


class ShardStats:
    """Process-level shard traffic counters (resilience reporting)."""

    __slots__ = ("produced", "loaded", "corrupt")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.produced = 0
        self.loaded = 0
        self.corrupt = 0

    def snapshot(self) -> dict:
        return {"trace.shards.produced": self.produced,
                "trace.shards.loaded": self.loaded,
                "trace.shards.corrupt": self.corrupt}


#: Module-wide counters surfaced through ``engine.resilience_snapshot``
#: (explicitly *not* part of the deterministic metrics guarantee).
STATS = ShardStats()


# -- shard-size knob ----------------------------------------------------

_shard_rows: Optional[int] = None
_explicitly_set = False
_warned_invalid = False


def set_shard_rows(rows: Optional[int]) -> None:
    """Set the rows-per-shard knob (``None`` defers to the env var,
    ``0`` forces sharding off)."""
    global _shard_rows, _explicitly_set
    if rows is None:
        _shard_rows = None
        _explicitly_set = False
        return
    rows = int(rows)
    if rows < 0:
        raise ValueError(f"shard rows must be >= 0, got {rows}")
    _shard_rows = rows
    _explicitly_set = True


def get_shard_rows() -> int:
    """Effective rows-per-shard (0 = sharding disabled).

    Precedence: explicit :func:`set_shard_rows` > ``REPRO_SHARD_ROWS``
    environment variable > off.  Invalid env values warn once and fall
    back to off, mirroring ``REPRO_JOBS`` handling.
    """
    global _warned_invalid
    if _explicitly_set:
        return _shard_rows or 0
    raw = os.environ.get(ENV_VAR)
    if raw is None or not raw.strip():
        return 0
    try:
        value = int(raw)
        if value < 0:
            raise ValueError(raw)
    except ValueError:
        if not _warned_invalid:
            warnings.warn(f"ignoring invalid {ENV_VAR}={raw!r} "
                          f"(expected a non-negative integer)",
                          RuntimeWarning, stacklevel=2)
            _warned_invalid = True
        return 0
    return value


def sharding_enabled() -> bool:
    """Whether traces should be produced/consumed shard-wise."""
    return get_shard_rows() > 0


def span_sample_every() -> int:
    """Record every Nth ``trace:shard`` span (``REPRO_SPAN_SAMPLE``,
    default 1 = all; invalid or < 1 values fall back to 1)."""
    raw = os.environ.get(SPAN_SAMPLE_ENV_VAR)
    if raw is None or not raw.strip():
        return 1
    try:
        value = int(raw)
    except ValueError:
        return 1
    return value if value >= 1 else 1


# -- shard payloads ------------------------------------------------------

def _chunk_payload(chunk: ColumnarTrace) -> dict:
    """The exact arrays written to disk (``value`` carries the None
    sentinel, as in the monolithic v2 layout)."""
    if bool(np.any((chunk.value == _NO_VALUE) & chunk.value_valid)):
        raise ValueError(
            f"trace contains a result value equal to the None sentinel "
            f"({int(_NO_VALUE)}); it would not survive a round-trip")
    payload = {name: getattr(chunk, name) for name, _ in COLUMN_DTYPES}
    payload["value"] = np.where(chunk.value_valid, chunk.value, _NO_VALUE)
    return payload


def _shard_checksum(payload: dict, rows: int) -> int:
    """CRC-32 over the shard's serialised column bytes and shape."""
    crc = zlib.crc32(json.dumps(
        [SHARD_FORMAT_VERSION, rows]).encode("utf-8"))
    for column, _ in COLUMN_DTYPES:
        crc = zlib.crc32(np.ascontiguousarray(payload[column]).tobytes(),
                         crc)
    crc = zlib.crc32(np.ascontiguousarray(payload["value"]).tobytes(),
                     crc)
    return crc & 0xFFFFFFFF


def _shard_counts(chunk: ColumnarTrace) -> dict:
    """Aggregate tallies for one shard (manifest bookkeeping)."""
    op = chunk.op_class
    # Regions are tallied over memory operations only, matching the
    # engine's `cpu.region.*` metric definitions exactly.
    region = chunk.region[(op == OC_LOAD) | (op == OC_STORE)]
    return {
        "instructions": len(chunk),
        "loads": int(np.count_nonzero(op == OC_LOAD)),
        "stores": int(np.count_nonzero(op == OC_STORE)),
        "branches": int(np.count_nonzero(op == OC_BRANCH)),
        "syscalls": int(np.count_nonzero(op == OC_SYSCALL)),
        "region_data": int(np.count_nonzero(region == REGION_DATA)),
        "region_heap": int(np.count_nonzero(region == REGION_HEAP)),
        "region_stack": int(np.count_nonzero(region == REGION_STACK)),
    }


def _load_shard(path: Path, meta: dict) -> ColumnarTrace:
    """Read one shard file and verify it against its manifest entry."""
    try:
        with np.load(str(path)) as data:
            embedded = json.loads(bytes(data["meta"]).decode("utf-8"))
            arrays = [data[name] for name, _ in COLUMN_DTYPES]
            raw_values = data["value"]
    except TraceIntegrityError:
        raise
    except Exception as exc:
        raise TraceIntegrityError(
            f"unreadable trace shard {path}: {exc}") from exc
    if embedded.get("version") != SHARD_FORMAT_VERSION:
        raise TraceIntegrityError(
            f"unsupported shard format version "
            f"{embedded.get('version')} in {path}")
    payload = {name: array
               for (name, _), array in zip(COLUMN_DTYPES, arrays)}
    payload["value"] = raw_values
    if len(raw_values) != meta["rows"]:
        raise TraceIntegrityError(
            f"shard {path} holds {len(raw_values)} rows, manifest "
            f"says {meta['rows']}")
    actual = _shard_checksum(payload, meta["rows"])
    if actual != meta["crc"]:
        raise TraceIntegrityError(
            f"shard checksum mismatch for {path}: manifest "
            f"{meta['crc']!r}, computed {actual}")
    valid = raw_values != _NO_VALUE
    return ColumnarTrace(*arrays, np.where(valid, raw_values, 0), valid)


# -- writers -------------------------------------------------------------

class _WriterBase:
    """Shared spill-sink bookkeeping for disk and memory writers."""

    def __init__(self, name: str, shard_rows: int) -> None:
        if shard_rows <= 0:
            raise ValueError(f"shard rows must be positive, "
                             f"got {shard_rows}")
        self.name = name
        self.shard_rows = int(shard_rows)
        self.shards: List[dict] = []
        self._total_rows = 0
        self._finished = False

    def append_rows(self, rows: Sequence[tuple]) -> None:
        """Columnise one simulator row buffer and store it as a shard.

        Publication of ``trace.columnar.*`` is deferred to
        :meth:`finish` so a spilled build counts exactly like one
        monolithic ``from_rows`` call (byte-identical metrics).
        """
        self.append(ColumnarTrace.from_rows(rows, publish=False))

    def append(self, chunk: ColumnarTrace) -> None:
        if self._finished:
            raise RuntimeError("shard writer already finished")
        if len(chunk) == 0:
            return
        meta = {"rows": len(chunk), "counts": _shard_counts(chunk)}
        self._store(len(self.shards), chunk, meta)
        self.shards.append(meta)
        self._total_rows += len(chunk)
        STATS.produced += 1

    def _store(self, index: int, chunk: ColumnarTrace,
               meta: dict) -> None:
        raise NotImplementedError

    def _finish_meta(self, output, exit_code: int) -> dict:
        self._finished = True
        # Mirror ColumnarTrace.from_rows: an empty build publishes
        # nothing (from_rows returns empty() before the counter inc).
        if self._total_rows:
            _publish_conversion("builds", self._total_rows)
        return {
            "version": SHARD_FORMAT_VERSION,
            "name": self.name,
            "shard_rows": self.shard_rows,
            "total_rows": self._total_rows,
            "output": list(output),
            "exit_code": int(exit_code),
            "shards": self.shards,
        }


class ShardWriter(_WriterBase):
    """Writes bounded ``.npz`` column shards plus a manifest into a
    directory (the trace cache points it at a fresh entry dir)."""

    def __init__(self, directory: Union[str, Path], name: str,
                 shard_rows: int) -> None:
        super().__init__(name, shard_rows)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _store(self, index: int, chunk: ColumnarTrace,
               meta: dict) -> None:
        payload = _chunk_payload(chunk)
        meta["file"] = f"shard-{index:05d}.npz"
        meta["crc"] = _shard_checksum(payload, len(chunk))
        embedded = json.dumps({"version": SHARD_FORMAT_VERSION,
                               "index": index, "rows": len(chunk)})
        with open(self.directory / meta["file"], "wb") as fh:
            np.savez_compressed(fh, meta=np.frombuffer(
                embedded.encode("utf-8"), dtype=np.uint8), **payload)

    def finish(self, output, exit_code: int) -> "ShardedTrace":
        """Write the manifest atomically and return the finished view."""
        manifest = self._finish_meta(output, exit_code)
        path = self.directory / MANIFEST_NAME
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(manifest), encoding="utf-8")
        os.replace(tmp, path)
        return ShardedTrace(manifest, directory=self.directory)


class MemoryShardWriter(_WriterBase):
    """Same spill protocol, chunks kept in RAM (no disk cache active).

    Peak memory matches the monolithic path - this backing exists so
    the streaming reductions and their carry-state contracts run (and
    are tested) identically with or without a cache directory.
    """

    def __init__(self, name: str, shard_rows: int) -> None:
        super().__init__(name, shard_rows)
        self._chunks: List[ColumnarTrace] = []

    def _store(self, index: int, chunk: ColumnarTrace,
               meta: dict) -> None:
        self._chunks.append(chunk)

    def finish(self, output, exit_code: int) -> "ShardedTrace":
        manifest = self._finish_meta(output, exit_code)
        return ShardedTrace(manifest, resident_chunks=self._chunks)


# -- the sharded view ----------------------------------------------------

class ShardedTrace:
    """A trace stored as bounded column shards (disk or memory backed).

    Offers the aggregate surface the streaming reductions and Table 1
    need (``len``, load/store fractions, per-shard tallies) without
    touching shard bytes; :meth:`chunk`/:meth:`chunks` load and
    CRC-verify one shard at a time.
    """

    __slots__ = ("name", "output", "exit_code", "shard_rows",
                 "total_rows", "_shards", "_directory", "_chunks",
                 "_on_corrupt", "_counts", "_sample_every")

    def __init__(self, manifest: dict,
                 directory: Optional[Union[str, Path]] = None,
                 resident_chunks: Optional[List[ColumnarTrace]] = None,
                 on_corrupt: Optional[Callable[[Exception], None]] = None)\
            -> None:
        if manifest.get("version") != SHARD_FORMAT_VERSION:
            raise TraceIntegrityError(
                f"unsupported shard manifest version "
                f"{manifest.get('version')}")
        if directory is None and resident_chunks is None:
            raise ValueError("a sharded trace needs a directory or "
                             "resident chunks")
        self.name = manifest["name"]
        self.output = list(manifest["output"])
        self.exit_code = int(manifest["exit_code"])
        self.shard_rows = int(manifest["shard_rows"])
        self.total_rows = int(manifest["total_rows"])
        self._shards = list(manifest["shards"])
        self._directory = Path(directory) if directory is not None \
            else None
        self._chunks = resident_chunks
        self._on_corrupt = on_corrupt
        self._counts: Optional[dict] = None
        self._sample_every = span_sample_every()
        if sum(meta["rows"] for meta in self._shards) != self.total_rows:
            raise TraceIntegrityError(
                f"shard manifest for {self.name!r} is inconsistent: "
                f"per-shard rows do not sum to {self.total_rows}")

    # -- aggregate surface (manifest-only, no shard I/O) -----------------

    def __len__(self) -> int:
        return self.total_rows

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def instruction_count(self) -> int:
        return self.total_rows

    def counts(self) -> dict:
        """Summed per-shard tallies (see :data:`COUNT_FIELDS`)."""
        if self._counts is None:
            self._counts = {
                field: sum(meta["counts"][field]
                           for meta in self._shards)
                for field in COUNT_FIELDS}
        return self._counts

    @property
    def load_count(self) -> int:
        return self.counts()["loads"]

    @property
    def store_count(self) -> int:
        return self.counts()["stores"]

    def load_fraction(self) -> float:
        return self.load_count / max(1, self.total_rows)

    def store_fraction(self) -> float:
        return self.store_count / max(1, self.total_rows)

    def shard_meta(self, index: int) -> dict:
        """The manifest entry (rows/crc/counts) for shard ``index``."""
        return self._shards[index]

    # -- shard access ----------------------------------------------------

    def chunk(self, index: int) -> ColumnarTrace:
        """Load (and CRC-verify) shard ``index`` as a ColumnarTrace.

        On integrity failure the owner's ``on_corrupt`` hook runs first
        (the trace cache quarantines the whole entry there), then
        :class:`TraceIntegrityError` propagates so the engine's retry
        regenerates the entry.
        """
        if self._chunks is not None:
            return self._chunks[index]
        meta = self._shards[index]
        path = self._directory / meta["file"]
        from repro.obs import spans
        if index % self._sample_every == 0:
            context = spans.span("trace:shard", workload=self.name,
                                 shard=index, rows=meta["rows"])
        else:
            context = spans.NULL_SPAN
        with context:
            try:
                chunk = _load_shard(path, meta)
            except TraceIntegrityError as exc:
                STATS.corrupt += 1
                if self._on_corrupt is not None:
                    self._on_corrupt(exc)
                raise
        STATS.loaded += 1
        return chunk

    def chunks(self) -> Iterator[ColumnarTrace]:
        """Yield every shard in order, one at a time (re-iterable)."""
        for index in range(len(self._shards)):
            yield self.chunk(index)

    def materialize(self) -> Trace:
        """Concatenate every shard into an ordinary in-RAM trace."""
        parts = list(self.chunks())
        if not parts:
            columns = ColumnarTrace.empty()
        else:
            fields = [np.concatenate([getattr(part, name)
                                      for part in parts])
                      for name, _ in COLUMN_DTYPES]
            value = np.concatenate([part.value for part in parts])
            valid = np.concatenate([part.value_valid for part in parts])
            columns = ColumnarTrace(*fields, value, valid)
        return Trace(name=self.name, columns=columns,
                     output=list(self.output), exit_code=self.exit_code)

    def __repr__(self) -> str:
        backing = "memory" if self._chunks is not None else "disk"
        return (f"ShardedTrace(name={self.name!r}, n={self.total_rows}, "
                f"shards={self.num_shards}, rows/shard={self.shard_rows}, "
                f"backing={backing})")


# -- manifest I/O --------------------------------------------------------

def read_manifest(directory: Union[str, Path]) -> dict:
    """Parse and sanity-check a shard-set manifest.

    Raises :class:`TraceIntegrityError` on missing/corrupt manifests
    (callers quarantine the whole entry, never individual files).
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise TraceIntegrityError(f"shard manifest missing: {path}")
    except Exception as exc:
        raise TraceIntegrityError(
            f"unreadable shard manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or "shards" not in manifest:
        raise TraceIntegrityError(f"malformed shard manifest: {path}")
    return manifest


def load_sharded(directory: Union[str, Path],
                 on_corrupt: Optional[Callable[[Exception], None]] = None)\
        -> ShardedTrace:
    """Open a shard-set directory written by :class:`ShardWriter`."""
    return ShardedTrace(read_manifest(directory), directory=directory,
                        on_corrupt=on_corrupt)


# -- producers and helpers ----------------------------------------------

def simulate_sharded(name: str, scale: float, writer: _WriterBase)\
        -> ShardedTrace:
    """Functionally simulate a workload, spilling rows into ``writer``.

    The simulator's row buffer is flushed every ``writer.shard_rows``
    retired instructions, so peak RSS is bounded by the shard size
    regardless of ``--scale``.
    """
    from repro.cpu.functional import FunctionalSimulator
    from repro.workloads import suite
    compiled = suite.compile_workload(name, scale)
    simulator = FunctionalSimulator(compiled,
                                    max_steps=suite.step_ceiling(scale))
    stub = simulator.run(sink=writer.append_rows,
                         spill_rows=writer.shard_rows)
    return writer.finish(stub.output, stub.exit_code)


def shard_trace(trace: Trace, shard_rows: int) -> ShardedTrace:
    """Re-chunk an in-RAM trace into a memory-backed sharded view
    (array slices are zero-copy; used by tests)."""
    writer = MemoryShardWriter(trace.name, shard_rows)
    columns = trace.columns
    from repro import metrics
    with metrics.collecting():    # publication deferred/discarded:
        for start in range(0, len(columns), shard_rows):
            stop = min(start + shard_rows, len(columns))
            writer.append(ColumnarTrace(
                *(getattr(columns, name)[start:stop]
                  for name, _ in COLUMN_DTYPES),
                columns.value[start:stop],
                columns.value_valid[start:stop]))
        return writer.finish(trace.output, trace.exit_code)


def iter_chunks(trace) -> Iterable[ColumnarTrace]:
    """The chunks every reduction loops over: a ``ShardedTrace``'s
    shards in order, or an in-RAM ``Trace``'s columns as one chunk."""
    if isinstance(trace, ShardedTrace):
        return trace.chunks()
    return iter((trace.columns,))
