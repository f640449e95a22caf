"""Trace persistence: the one column codec behind every trace file.

Functional simulation is the slowest stage of many experiments; saving
a trace once and replaying it through predictors, caches, and timing
configurations amortises that cost (this mirrors how trace-driven
studies of the paper's era archived SimpleScalar traces).

Every trace file - a whole trace saved by :func:`save_trace`, or one
shard of a :mod:`repro.trace.shards` set - is one compressed ``.npz``
written by :func:`write` and read by :func:`read`.  The file holds the
:class:`~repro.trace.columns.ColumnarTrace` schema column-wise (about
90 bytes/record in memory becomes ~10 bytes/record on disk) plus an
embedded JSON ``meta`` object: ``{name, output, exit_code}`` for a
whole trace, ``{index}`` for a shard.  Reads are zero-copy - the
deserialised arrays become the chunk's columns as-is, and record
objects are only materialised if a consumer asks for
``trace.records``.

The codec owns, in one place:

* the format version (cache keys embed it, so a bump simply makes
  stale entries regenerate);
* the ``value`` column's None sentinel;
* a CRC-32 over the embedded meta and the column bytes, recomputed on
  read - silent on-disk corruption (bit rot, partial writes that
  still unzip) raises :class:`TraceIntegrityError` instead of leaking
  wrong data into an experiment, and the trace cache quarantines the
  entry and regenerates.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from repro.trace.columns import COLUMN_DTYPES, ColumnarTrace
from repro.trace.records import Trace

#: Sentinel for "no result value" (record.value is None).  Result
#: values equal to the sentinel itself cannot round-trip and are
#: rejected at write time rather than silently read back as None.
_NO_VALUE = np.int64(-(2 ** 62))

#: Embedded in every file (and in the trace cache's keys); a file of
#: any other version is rejected.
FORMAT_VERSION = 4


class TraceIntegrityError(ValueError):
    """A trace file failed its version or checksum validation."""


def _crc32(meta: dict, payload: dict) -> int:
    """CRC-32 over the meta (sans checksum) and the on-disk columns."""
    crc = zlib.crc32(json.dumps(meta, sort_keys=True).encode("utf-8"))
    for name in payload:
        crc = zlib.crc32(np.ascontiguousarray(payload[name]).tobytes(),
                         crc)
    return crc & 0xFFFFFFFF


def write(path: Union[str, Path], chunk: ColumnarTrace,
          meta: dict) -> int:
    """Write ``chunk`` and ``meta`` to exactly ``path``; returns the
    embedded checksum.

    The file is opened here, so numpy never appends ``.npz`` to a
    suffixless name and :func:`read` round-trips on the same path.
    """
    if bool(np.any((chunk.value == _NO_VALUE) & chunk.value_valid)):
        raise ValueError(
            f"trace contains a result value equal to the None sentinel "
            f"({int(_NO_VALUE)}); it would not survive a round-trip")
    payload = {name: getattr(chunk, name) for name, _ in COLUMN_DTYPES}
    payload["value"] = np.where(chunk.value_valid, chunk.value,
                                _NO_VALUE)
    meta = {**meta, "version": FORMAT_VERSION}
    meta["checksum"] = _crc32(meta, payload)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, meta=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8), **payload)
    return meta["checksum"]


def read(path: Union[str, Path]) -> Tuple[ColumnarTrace, dict]:
    """Read and verify a file written by :func:`write`.

    Returns the chunk and the embedded meta (with its ``checksum``).
    A missing file raises :class:`FileNotFoundError`; any other
    failure to decode or verify raises :class:`TraceIntegrityError`.
    """
    try:
        with np.load(str(path)) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if meta.get("version") != FORMAT_VERSION:
                raise TraceIntegrityError(
                    f"unsupported trace format version "
                    f"{meta.get('version')} in {path}")
            payload = {name: data[name] for name, _ in COLUMN_DTYPES}
            payload["value"] = data["value"]
    except (FileNotFoundError, TraceIntegrityError):
        raise
    except Exception as exc:
        raise TraceIntegrityError(
            f"unreadable trace file {path}: {exc}") from exc
    expected = meta.pop("checksum", None)
    actual = _crc32(meta, payload)
    if expected != actual:
        raise TraceIntegrityError(
            f"trace checksum mismatch for {path}: stored "
            f"{expected!r}, computed {actual}")
    meta["checksum"] = actual
    raw_values = payload.pop("value")
    valid = raw_values != _NO_VALUE
    chunk = ColumnarTrace(*payload.values(),
                          np.where(valid, raw_values, 0), valid)
    return chunk, meta


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a whole trace to exactly ``path`` (one codec file)."""
    write(path, trace.columns, {"name": trace.name,
                                "output": trace.output,
                                "exit_code": trace.exit_code})


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    columns, meta = read(path)
    return Trace(name=meta["name"], columns=columns,
                 output=meta["output"], exit_code=meta["exit_code"])
