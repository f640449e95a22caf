"""On-disk trace cache keyed by ``(workload, scale, format version)``.

Functional simulation dominates experiment wall-clock; archiving each
workload's trace once and replaying it through predictors, caches, and
timing configurations amortises that cost across every driver, CLI
invocation, and benchmark run (the SimpleScalar-era workflow the paper
alludes to).

A cache is a directory of entries in two layouts of the one
:mod:`repro.trace.serialize` codec: a whole trace is one ``save_trace``
file named

    ``<workload>__s<scale>__v<format version>.npz``

and a sharded trace (:mod:`repro.trace.shards`) is a directory

    ``<workload>__s<scale>__r<shard rows>__v<format version>/``

of codec files plus ``manifest.json``.  Bumping
:data:`repro.trace.serialize.FORMAT_VERSION` invalidates every archived
entry at once (stale entries simply stop being looked up), and the same
directory can hold traces for many scales side by side.  Both layouts
are fetched through one protocol (:meth:`TraceCache._fetch_entry`):
lock, reload after a wait, produce into a temp file or directory,
``os.replace`` it into place, enforce the size bound.

The process-wide cache lives in the configured ``trace_cache``
directory (:mod:`repro.config`; none = caching off).  Past
``trace_cache_max_bytes`` whole entries - an ``.npz`` or a shard-set
directory - are evicted atomically, least-recently-used first.

Integrity and concurrency guarantees:

* **Atomic writes** - entries are written to a temp file and
  ``os.replace``-d into place, so readers never observe a partial
  archive;
* **Verified loads** - every codec file embeds a content checksum
  (:mod:`repro.trace.serialize`); an entry that is truncated,
  zero-byte, bit-rotten, or of the wrong format version is
  *quarantined* (renamed aside with a ``.quarantined`` suffix),
  counted in :attr:`CacheStats.corrupt`, and regenerated - corruption
  costs a re-simulation, never a crash and never wrong data;
* **Advisory write locks** - concurrent writers of the same entry
  serialise on a per-entry ``flock`` lock file, so two processes
  missing the same trace produce it once, not twice; a lock-less
  platform degrades to last-writer-wins atomic replaces.

Warm loads are zero-copy: the codec hands the deserialised arrays
straight to the trace's :class:`repro.trace.columns.ColumnarTrace`, so
a cache hit allocates no per-record Python objects - every consumer,
the timing machine included, replays the arrays directly.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

try:
    import fcntl
except ImportError:          # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro import config, quarantine
from repro.testing import faults as fault_injection
from repro.trace import serialize, shards
from repro.trace.records import Trace
from repro.trace.serialize import load_trace, save_trace
from repro.trace.shards import ShardedTrace

#: Environment variable naming the default cache directory.
ENV_VAR = "REPRO_TRACE_CACHE"

#: Suffix given to corrupt entries moved aside for post-mortems
#: (collected on cache open, see :mod:`repro.quarantine`).
QUARANTINE_SUFFIX = quarantine.SUFFIX


def _remove(path: Path) -> None:
    """Delete one entry - file or directory - if it exists."""
    try:
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
        elif path.exists():
            path.unlink()
    except OSError:
        pass


def _entry_size(path: Path) -> int:
    """Bytes held by one entry (shard sets sum their files)."""
    try:
        if path.is_dir():
            return sum(child.stat().st_size
                       for child in path.iterdir() if child.is_file())
        return path.stat().st_size
    except OSError:
        return 0


@dataclass
class CacheStats:
    """Counters and per-stage wall-clock for one cache instance."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0            # entries quarantined as unreadable
    lock_waits: int = 0         # stores that waited on another writer
    load_seconds: float = 0.0   # reading archived traces (incl. saves)
    sim_seconds: float = 0.0    # running the producer (functional sim)
    quarantine_gc: int = 0      # expired quarantined files collected
    evictions: int = 0          # whole entries evicted by the LRU bound

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.corrupt,
                          self.lock_waits, self.load_seconds,
                          self.sim_seconds, self.quarantine_gc,
                          self.evictions)


@dataclass
class TraceCache:
    """A directory of archived workload traces."""

    directory: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise ValueError(
                f"trace cache path {self.directory} exists and is not "
                f"a directory")
        # Opening the cache garbage-collects expired quarantined
        # entries (see :mod:`repro.quarantine`) so post-mortem copies
        # never accumulate without limit.
        self.stats.quarantine_gc += quarantine.collect(self.directory)

    def key(self, name: str, scale: float) -> str:
        return f"{name}__s{scale:g}__v{serialize.FORMAT_VERSION}"

    def path_for(self, name: str, scale: float) -> Path:
        return self.directory / f"{self.key(name, scale)}.npz"

    def load(self, name: str, scale: float) -> Optional[Trace]:
        """The archived trace, or None on a miss.

        A file that exists but fails to deserialise or verify - in any
        way - is quarantined and reported as a miss, so the caller
        regenerates it.
        """
        path = self.path_for(name, scale)
        if not path.exists():
            return None
        started = time.perf_counter()
        try:
            trace = load_trace(path)
        except Exception:
            # Truncated, zero-byte, checksum-mismatched, or
            # wrong-version file: move it aside and treat as a miss.
            self._quarantine(path)
            return None
        self.stats.load_seconds += time.perf_counter() - started
        self._touch(path)
        return trace

    def _quarantine(self, path: Path) -> None:
        """Move one entry - file or shard-set directory - aside."""
        self.stats.corrupt += 1
        try:
            os.replace(path, path.with_name(path.name
                                            + QUARANTINE_SUFFIX))
        except OSError:
            _remove(path)

    def _touch(self, path: Path) -> None:
        """Refresh an entry's mtime so LRU eviction sees the hit."""
        try:
            os.utime(path)
        except OSError:
            pass

    @contextmanager
    def _entry_lock(self, path: Path):
        """Advisory per-entry writer lock (yields True if we waited).

        ``flock`` locks are per open-file-description, so this must
        not be nested for the same entry within one process (the
        public methods never do).  Platforms without ``fcntl`` yield
        immediately - atomic replaces still keep readers safe.
        """
        if fcntl is None:        # pragma: no cover - non-POSIX
            yield False
            return
        lock_dir = self.directory / ".locks"
        lock_dir.mkdir(parents=True, exist_ok=True)
        lock_path = lock_dir / (path.name + ".lock")
        with open(lock_path, "ab") as fh:
            waited = False
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self.stats.lock_waits += 1
                waited = True
                fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield waited
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    @contextmanager
    def _staging(self, path: Path):
        """A fresh temp path beside ``path``, removed again on exit."""
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        _remove(tmp)
        try:
            yield tmp
        finally:
            _remove(tmp)

    def _publish(self, name: str, tmp: Path, path: Path) -> None:
        """Atomically move a staged entry into place (caller holds the
        entry lock), then run the store fault-injection point."""
        try:
            os.replace(tmp, path)
        except OSError:
            # A stale shard-set directory raced into place; replace it.
            _remove(path)
            os.replace(tmp, path)
        fault_injection.fire_cache_store(
            name, path / shards.MANIFEST_NAME if path.is_dir() else path)

    def store(self, name: str, scale: float, trace: Trace) -> Path:
        """Archive a trace atomically; returns the final path."""
        started = time.perf_counter()
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(name, scale)
        with self._entry_lock(path), self._staging(path) as tmp:
            save_trace(trace, tmp)
            self._publish(name, tmp, path)
        self.stats.load_seconds += time.perf_counter() - started
        self.enforce_size_bound(keep=path)
        return path

    def _fetch_entry(self, name: str, path: Path,
                     load: Callable[[], Optional[object]],
                     produce: Callable[[Path], object],
                     save: Callable[[object, Path], None]):
        """The one fetch protocol behind both entry layouts.

        ``load()`` returns the archived entry or None; on a miss the
        entry's writer lock is taken, and if another process wrote the
        entry while we waited its archive is loaded instead of
        producing a second time.  Otherwise ``produce(tmp)`` builds the
        entry (timed as simulation), ``save(entry, tmp)`` finishes the
        staged file or directory, and it is published atomically.
        Returns ``(entry, produced)``.
        """
        entry = load()
        if entry is not None:
            self.stats.hits += 1
            return entry, False
        self.directory.mkdir(parents=True, exist_ok=True)
        with self._entry_lock(path) as waited:
            entry = load() if waited else None
            if entry is not None:
                self.stats.hits += 1
                return entry, False
            with self._staging(path) as tmp:
                started = time.perf_counter()
                entry = produce(tmp)
                self.stats.sim_seconds += time.perf_counter() - started
                self.stats.misses += 1
                started = time.perf_counter()
                save(entry, tmp)
                self._publish(name, tmp, path)
                self.stats.load_seconds += time.perf_counter() - started
        self.enforce_size_bound(keep=path)
        return entry, True

    def fetch(self, name: str, scale: float,
              producer: Optional[Callable[[str, float], Trace]] = None)\
            -> Trace:
        """The trace for ``(name, scale)``: archived if present, else
        produced (default producer: ``suite.run``) and archived."""
        if producer is None:
            from repro.workloads import suite
            producer = suite.run
        trace, _ = self._fetch_entry(
            name, self.path_for(name, scale),
            load=lambda: self.load(name, scale),
            produce=lambda tmp: producer(name, scale),
            save=save_trace)
        return trace

    # -- sharded entries --------------------------------------------------

    def sharded_key(self, name: str, scale: float,
                    shard_rows: int) -> str:
        return (f"{name}__s{scale:g}__r{shard_rows}"
                f"__v{serialize.FORMAT_VERSION}")

    def sharded_path_for(self, name: str, scale: float,
                         shard_rows: int) -> Path:
        """The entry *directory* holding the manifest and shards."""
        return self.directory / self.sharded_key(name, scale,
                                                 shard_rows)

    def _open_sharded(self, path: Path, name: str,
                      shard_rows: int) -> Optional[ShardedTrace]:
        """Open a shard-set entry; quarantine + miss on any damage.

        The returned view quarantines the *whole entry* if a lazy
        chunk load later fails its CRC, so the next fetch misses and
        regenerates (shards of one trace are only valid together).
        """
        if not (path / shards.MANIFEST_NAME).exists():
            return None
        try:
            trace = shards.load_sharded(
                path, on_corrupt=lambda exc: self._quarantine(path))
            if trace.name != name or trace.shard_rows != shard_rows:
                raise serialize.TraceIntegrityError(
                    f"shard manifest identity mismatch in {path}: "
                    f"{trace.name!r} @ {trace.shard_rows} rows/shard")
        except Exception:
            self._quarantine(path)
            return None
        return trace

    def load_sharded(self, name: str, scale: float,
                     shard_rows: int) -> Optional[ShardedTrace]:
        """The archived shard set, or None on a miss."""
        path = self.sharded_path_for(name, scale, shard_rows)
        started = time.perf_counter()
        trace = self._open_sharded(path, name, shard_rows)
        if trace is None:
            return None
        self.stats.load_seconds += time.perf_counter() - started
        self._touch(path / shards.MANIFEST_NAME)
        self._touch(path)
        return trace

    def fetch_sharded(self, name: str, scale: float, shard_rows: int,
                      producer: Optional[Callable] = None)\
            -> ShardedTrace:
        """The sharded trace for ``(name, scale, shard_rows)``:
        archived if present, else produced into a temp directory and
        published atomically (``producer(name, scale, writer)``,
        default :func:`repro.trace.shards.simulate_sharded` - the
        spilling functional simulation, bounded RSS).
        """
        if producer is None:
            producer = shards.simulate_sharded
        path = self.sharded_path_for(name, scale, shard_rows)
        trace, produced = self._fetch_entry(
            name, path,
            load=lambda: self.load_sharded(name, scale, shard_rows),
            produce=lambda tmp: producer(
                name, scale, shards.ShardWriter(tmp, name, shard_rows)),
            save=lambda entry, tmp: None)
        if produced:
            # The producer's view points at the staging directory;
            # reopen the published entry.
            trace = self._open_sharded(path, name, shard_rows)
            if trace is None:
                raise RuntimeError(
                    f"sharded trace entry {path} unreadable immediately "
                    f"after production")
        return trace

    # -- size bound (LRU eviction) --------------------------------------

    def _entries(self):
        """Every evictable entry as ``(path, mtime, size)``."""
        try:
            children = list(self.directory.iterdir())
        except OSError:
            return
        for path in children:
            name = path.name
            if (name.startswith(".")
                    or name.endswith(QUARANTINE_SUFFIX)):
                continue
            try:
                if path.is_dir():
                    manifest = path / shards.MANIFEST_NAME
                    if not manifest.exists():
                        continue
                    mtime = manifest.stat().st_mtime
                elif name.endswith(".npz"):
                    mtime = path.stat().st_mtime
                else:
                    continue
            except OSError:      # raced away
                continue
            yield path, mtime, _entry_size(path)

    def _evict(self, path: Path) -> bool:
        """Atomically remove one whole entry (rename, then delete, so
        readers see either the complete entry or none of it)."""
        victim = path.with_name(f".{path.name}.{os.getpid()}.evict")
        try:
            os.replace(path, victim)
        except OSError:
            return False
        _remove(victim)
        self.stats.evictions += 1
        return True

    def enforce_size_bound(self, keep: Optional[Path] = None) -> int:
        """Evict least-recently-used entries until the cache fits
        ``trace_cache_max_bytes`` (no-op when unbounded).

        ``keep`` - typically the entry just written - is never evicted,
        so one oversized trace cannot thrash itself.  Returns the
        number of entries evicted.
        """
        limit = config.active().trace_cache_max_bytes
        if not limit:
            return 0
        entries = sorted(self._entries(), key=lambda e: (e[1], str(e[0])))
        total = sum(size for _, _, size in entries)
        removed = 0
        for path, _, size in entries:
            if total <= limit:
                break
            if keep is not None and path == keep:
                continue
            if self._evict(path):
                total -= size
                removed += 1
        return removed


# -- process-wide active cache -----------------------------------------

#: The cache for the configured directory (rebuilt when it changes).
_active: Optional[TraceCache] = None


def configure(directory: Union[str, Path, None]) -> Optional[TraceCache]:
    """Set (or, with None, clear) the process-wide trace cache."""
    config.install(config.active().replace(trace_cache=directory))
    return active_cache()


def reset() -> None:
    """Forget the installed configuration (every field, not only the
    cache directory); the environment applies again."""
    config.install(None)


def active_cache() -> Optional[TraceCache]:
    """The cache in the configured directory, or None (caching off)."""
    global _active
    directory = config.active().trace_cache
    if directory is None:
        return None
    if _active is None or _active.directory != directory:
        _active = TraceCache(directory)
    return _active


def fetch_trace(name: str, scale: float) -> Trace:
    """The in-RAM trace for ``(name, scale)``: through the active cache
    when one is configured, else simulated directly (``suite.run``)."""
    cache = active_cache()
    if cache is None:
        from repro.workloads import suite
        return suite.run(name, scale)
    return cache.fetch(name, scale)
