"""Cell-level checkpoint journal for interruptible experiment sweeps.

A :class:`CellJournal` is a directory holding one small pickle file per
completed cell, written atomically (temp file + ``os.replace``) the
moment the cell finishes - so a sweep killed at any instant (SIGKILL,
OOM, power loss) leaves a journal describing exactly the cells that
completed.  Re-running the same sweep with the same journal directory
(the CLI's ``--checkpoint DIR``) replays those cells from disk and
executes only the missing ones; replayed cells restore their recorded
metric snapshots, so a resumed run renders tables and exports metrics
byte-identical to an uninterrupted one.

Entries are keyed by a digest of the cell's identity - the worker
function's qualified name, the workload name, the scale, and the extra
arguments - so one journal directory can safely hold cells from
several experiments, and a changed worker or argument list never
matches a stale entry.  Unreadable or mismatched entries are
quarantined (renamed aside) and treated as missing: a corrupt journal
costs a re-run, never a crash and never wrong data.

Growth is bounded: with a byte quota set (the ``max_bytes``
constructor argument, or the configuration's ``checkpoint_max_bytes``
- ``REPRO_CHECKPOINT_MAX_BYTES``), every record that pushes the
journal past the quota rotates the *oldest* entries aside into
quarantine - where the standard expiry GC (:mod:`repro.quarantine`)
reclaims them - until the journal fits again.  Rotated cells simply re-run on the next
resume; a full disk never becomes a crashed sweep.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

from repro import config, quarantine

#: Bump to invalidate every existing journal entry at once.
FORMAT_VERSION = 3

#: Journal file suffix (entries are ``<digest>.cell``).
SUFFIX = ".cell"

@dataclass
class JournalStats:
    """Per-journal counters (reset with :meth:`CellJournal.reset_stats`)."""

    hits: int = 0        # cells replayed from the journal
    misses: int = 0      # cells that had to run
    corrupt: int = 0     # unreadable entries quarantined
    quarantine_gc: int = 0   # expired quarantined files collected
    quota_evictions: int = 0  # oldest entries rotated out by the quota

    def snapshot(self) -> "JournalStats":
        return JournalStats(self.hits, self.misses, self.corrupt,
                            self.quarantine_gc, self.quota_evictions)


def _stable_repr(value: object) -> str:
    """``repr`` that is stable across processes.

    Plain function reprs embed a memory address, which would make any
    cell whose extra args carry a worker function (the sharded
    fan-out's dispatch cells) miss its own journal entry on every
    re-run; name functions by module and qualname instead.
    """
    if callable(value):
        qualname = getattr(value, "__qualname__", None)
        if qualname:
            return (f"<fn {getattr(value, '__module__', '')}"
                    f".{qualname}>")
    return repr(value)


def cell_key(worker: Callable, name: str, scale: float,
             args: tuple) -> str:
    """Stable digest identifying one cell of one sweep."""
    ident = "\0".join((
        getattr(worker, "__module__", "") or "",
        getattr(worker, "__qualname__", None) or repr(worker),
        name,
        repr(scale),
        "(" + ", ".join(_stable_repr(arg) for arg in args) + ")",
        str(FORMAT_VERSION),
    ))
    return hashlib.sha256(ident.encode("utf-8")).hexdigest()[:32]


class CellJournal:
    """A directory of completed-cell records (see module docstring)."""

    def __init__(self, directory: Union[str, Path],
                 max_bytes: Optional[int] = None) -> None:
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise ValueError(
                f"checkpoint path {self.directory} exists and is not "
                f"a directory")
        self.max_bytes = max_bytes if max_bytes is not None \
            else config.active().checkpoint_max_bytes
        self.stats = JournalStats()
        # Opening a journal garbage-collects expired quarantined
        # entries (same knobs as the trace cache: see
        # :mod:`repro.quarantine`).
        self.stats.quarantine_gc += quarantine.collect(self.directory)

    def reset_stats(self) -> None:
        self.stats = JournalStats()

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}{SUFFIX}"

    # -- entry I/O ------------------------------------------------------

    def load(self, worker: Callable, name: str, scale: float,
             args: tuple) -> Optional[Tuple[object, object]]:
        """The recorded ``(result, metric_snapshot)`` for a completed
        cell, or None (counting a miss) if absent/invalid."""
        key = cell_key(worker, name, scale, args)
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if (payload.get("version") != FORMAT_VERSION
                    or payload.get("key") != key):
                raise ValueError("journal entry identity mismatch")
            outcome = (payload["result"], payload["snapshot"])
        except Exception:
            self._quarantine(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return outcome

    def record(self, worker: Callable, name: str, scale: float,
               args: tuple, result: object, snapshot: object) -> Path:
        """Atomically journal one completed cell; returns its path."""
        key = cell_key(worker, name, scale, args)
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        payload = {"version": FORMAT_VERSION, "key": key, "name": name,
                   "result": result, "snapshot": snapshot}
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        self._enforce_quota(keep=path)
        return path

    def _enforce_quota(self, keep: Path) -> None:
        """Rotate the oldest entries aside until the quota is met.

        The entry just written (``keep``) is never rotated, so a quota
        smaller than one record still makes forward progress instead
        of evicting the cell that was just paid for.
        """
        if not self.max_bytes:
            return
        try:
            entries = [(entry.stat().st_mtime, entry.stat().st_size,
                        entry)
                       for entry in self.directory.iterdir()
                       if entry.suffix == SUFFIX]
        except OSError:
            return
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        for _, size, entry in sorted(entries):
            if entry == keep:
                continue
            self.stats.quota_evictions += 1
            try:
                os.replace(entry,
                           entry.with_name(entry.name + ".quarantined"))
            except OSError:
                try:
                    entry.unlink()
                except OSError:
                    continue
            total -= size
            if total <= self.max_bytes:
                break

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable entry aside (last corrupt copy wins)."""
        self.stats.corrupt += 1
        try:
            os.replace(path, path.with_name(path.name + ".quarantined"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        """Completed cells currently journalled."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for entry in self.directory.iterdir()
                   if entry.suffix == SUFFIX)
