"""Experiment execution engine: trace cache + process fan-out + timing.

Every experiment driver decomposes into independent *cells* - one
``(workload, ...)`` unit of work whose result does not depend on any
other cell.  This module runs those cells either serially or across a
``ProcessPoolExecutor`` (``--jobs N`` on the CLI, :func:`set_jobs`
programmatically), always returning results in the caller's submission
order so rendered tables are byte-identical at any parallelism.

Execution is fault-tolerant (policy in :mod:`repro.eval.faults`):

* a cell that raises is retried with exponential backoff up to the
  retry budget;
* a cell that outlives the per-cell timeout is abandoned, its pool is
  torn down, and the cell re-runs in a fresh pool (timeouts apply only
  in pool mode - serial in-process execution cannot be pre-empted);
* a ``BrokenProcessPool`` (worker killed by the OS, OOM, a crashing
  extension) rebuilds the pool and re-runs only the unfinished cells;
* once the rebuild budget is spent the engine degrades to serial
  in-process execution for whatever remains.

None of this changes results: outcomes are keyed by submission index
and merged in submission order only after every cell has completed, so
a run that survived retries, rebuilds, and serial fallback renders
tables and exports metrics byte-identical to an undisturbed one.
Recovery counters are exposed via :func:`resilience_snapshot`.

With a checkpoint journal configured (:func:`set_checkpoint`, the
CLI's ``--checkpoint DIR``), every completed cell is journalled to
disk as it finishes and a re-run replays journalled cells instead of
executing them - an interrupted sweep resumes with only the missing
cells.

It also keeps a per-stage wall-clock breakdown (functional simulation
vs. trace-cache I/O vs. predictor/timing replay) so speedups from the
trace cache and the fan-out are directly measurable
(``repro experiment <id> --verbose``).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro import metrics
from repro.eval import checkpoint, faults, reporting
from repro.obs import spans
from repro.testing import faults as fault_injection
from repro.trace import cache as trace_cache
from repro.trace import shards
from repro.trace.records import Trace
from repro.trace.shards import ShardedTrace
from repro.workloads import suite

#: Environment variable providing the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"

_jobs: Optional[int] = None

#: Invalid REPRO_JOBS values already warned about (warn once per value).
_warned_jobs: Set[str] = set()


def set_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (None = env/serial)."""
    global _jobs
    _jobs = jobs


def _warn_invalid_jobs(raw: str) -> None:
    if raw in _warned_jobs:
        return
    _warned_jobs.add(raw)
    warnings.warn(
        f"ignoring invalid {JOBS_ENV_VAR}={raw!r} (expected an integer "
        f">= 1); running serial",
        RuntimeWarning, stacklevel=3)


def get_jobs() -> int:
    """The effective default worker count (>= 1).

    A ``REPRO_JOBS`` value that is not an integer >= 1 is reported
    once per distinct value and treated as 1 - never silently coerced.
    """
    if _jobs is not None:
        return max(1, _jobs)
    raw = os.environ.get(JOBS_ENV_VAR, "1")
    try:
        value = int(raw)
    except ValueError:
        _warn_invalid_jobs(raw)
        return 1
    if value < 1:
        _warn_invalid_jobs(raw)
        return 1
    return value


# -- per-stage timing ---------------------------------------------------

@dataclass
class StageTimes:
    """Wall-clock seconds per pipeline stage, summed over cells.

    With ``--jobs N`` the stages of different cells overlap, so the sum
    can exceed elapsed wall-clock; the report states CPU-seconds.
    ``cache_corrupt`` rides along so corruption detected inside pool
    workers reaches the parent's accounting.
    """

    functional_sim: float = 0.0
    cache_io: float = 0.0
    replay: float = 0.0
    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_corrupt: int = 0

    def merge(self, other: "StageTimes") -> None:
        self.functional_sim += other.functional_sim
        self.cache_io += other.cache_io
        self.replay += other.replay
        self.cells += other.cells
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_corrupt += other.cache_corrupt

    def snapshot(self) -> "StageTimes":
        """An independent copy of the current accumulator state."""
        return StageTimes(self.functional_sim, self.cache_io, self.replay,
                          self.cells, self.cache_hits, self.cache_misses,
                          self.cache_corrupt)

    @property
    def total(self) -> float:
        return self.functional_sim + self.cache_io + self.replay

    def render(self) -> str:
        rows = [
            ("functional simulation", reporting.seconds(self.functional_sim),
             reporting.percent(self.functional_sim / max(1e-9, self.total))),
            ("trace-cache I/O", reporting.seconds(self.cache_io),
             reporting.percent(self.cache_io / max(1e-9, self.total))),
            ("predictor/timing replay", reporting.seconds(self.replay),
             reporting.percent(self.replay / max(1e-9, self.total))),
        ]
        cache = trace_cache.active_cache()
        state = "off" if cache is None else str(cache.directory)
        return reporting.format_table(
            ["stage", "cpu-seconds", "share"], rows,
            title=f"Stage timing: {self.cells} cells, trace cache "
                  f"{state} ({self.cache_hits} hits / "
                  f"{self.cache_misses} misses)")


#: Process-local accumulator for the current driver invocation.
_stages = StageTimes()

#: Process-local recovery counters for the current driver invocation.
_faults = faults.FaultStats()

#: Active checkpoint journal (None = checkpointing off).
_journal: Optional[checkpoint.CellJournal] = None

#: Per-cell ``[cache hits, cache misses, checkpoint replays]`` in
#: submission order, for the ``--verbose`` per-cell report line.
_cell_notes: "OrderedDict[str, List[int]]" = OrderedDict()


def _cell_key(name: str) -> str:
    """Reporting key for a cell: per-shard pseudo-cells (``name#i``
    from the sharded fan-out) aggregate under their workload name."""
    return name.split("#", 1)[0]


def _note_cell(name: str, hits: int = 0, misses: int = 0,
               replays: int = 0) -> None:
    name = _cell_key(name)
    entry = _cell_notes.get(name)
    if entry is None:
        entry = _cell_notes[name] = [0, 0, 0]
    entry[0] += hits
    entry[1] += misses
    entry[2] += replays


def reset_stage_times() -> None:
    global _stages
    _stages = StageTimes()
    _cell_notes.clear()


def stage_times() -> StageTimes:
    return _stages


def reset_fault_stats() -> None:
    """Zero the per-invocation recovery counters, including the
    module-global shard I/O tallies they surface."""
    global _faults
    _faults = faults.FaultStats()
    shards.STATS.reset()


def fault_stats() -> faults.FaultStats:
    return _faults


def set_checkpoint(directory: Union[str, Path, None])\
        -> Optional[checkpoint.CellJournal]:
    """Journal completed cells under ``directory`` (None = off)."""
    global _journal
    _journal = checkpoint.CellJournal(directory) if directory else None
    return _journal


def active_journal() -> Optional[checkpoint.CellJournal]:
    return _journal


def resilience_snapshot() -> Dict[str, int]:
    """Recovery counters for the current driver invocation.

    These describe what this particular run survived - unlike cell
    metrics they are *not* part of the byte-identical determinism
    guarantee (a recovered run reports its retries; an undisturbed one
    reports zeros).
    """
    snap = {
        "engine.retries": _faults.retries,
        "engine.timeouts": _faults.timeouts,
        "engine.pool_rebuilds": _faults.pool_rebuilds,
        "engine.fallbacks.serial": _faults.serial_fallbacks,
        "trace.cache.corrupt": _stages.cache_corrupt,
    }
    snap.update(shards.STATS.snapshot())
    cache = trace_cache.active_cache()
    if cache is not None:
        snap["trace.cache.quarantine_gc"] = cache.stats.quarantine_gc
        snap["trace.cache.evictions"] = cache.stats.evictions
    if _journal is not None:
        snap["checkpoint.hits"] = _journal.stats.hits
        snap["checkpoint.misses"] = _journal.stats.misses
        snap["checkpoint.corrupt"] = _journal.stats.corrupt
        snap["checkpoint.quarantine_gc"] = \
            _journal.stats.quarantine_gc
        snap["checkpoint.quota_evictions"] = \
            _journal.stats.quota_evictions
    return snap


def render_stage_report() -> str:
    report = _stages.render()
    if _cell_notes:
        width = max(len(name) for name in _cell_notes)
        lines = [f"  {name:<{width}}  cache {hits} hit / {misses} miss"
                 f"  replays {replays}"
                 for name, (hits, misses, replays)
                 in _cell_notes.items()]
        report += "\nper-cell:\n" + "\n".join(lines)
    recovered = {key: value for key, value
                 in resilience_snapshot().items() if value}
    if recovered:
        report += "\nresilience: " + "  ".join(
            f"{key}={value}" for key, value in sorted(recovered.items()))
    return report


# -- per-cell metrics collection ----------------------------------------

#: Per-cell metric snapshots (workload name -> snapshot) accumulated by
#: :func:`run_cells` since the last :func:`take_metrics`, in submission
#: order so downstream merges are deterministic at any --jobs level.
_metric_cells: "OrderedDict[str, Dict[str, dict]]" = OrderedDict()


def take_metrics() -> "OrderedDict[str, Dict[str, dict]]":
    """Pop the per-cell metric snapshots collected so far."""
    global _metric_cells
    collected = _metric_cells
    _metric_cells = OrderedDict()
    return collected


def _publish_trace_counts(counts: dict) -> None:
    """Publish the functional layer's instruction/region mix from a
    :data:`~repro.trace.shards.COUNT_FIELDS` tally - a sharded trace's
    manifest totals or one in-RAM trace's column counts, the same
    numbers either way."""
    registry = metrics.active()
    if not registry.enabled:
        return
    ns = registry.scoped("cpu")
    for field in ("instructions", "loads", "stores", "branches",
                  "syscalls"):
        ns.counter(field).inc(counts[field])
    region_ns = ns.scoped("region")
    for region in ("data", "heap", "stack"):
        region_ns.counter(region).inc(counts[f"region_{region}"])


# -- trace acquisition --------------------------------------------------

def _ensure_columns(trace: Trace) -> None:
    """Build the trace's columnar view if missing, attributing the
    conversion to the trace-cache I/O stage.

    Column-first producers (the functional simulator, ``load_trace``)
    make this a no-op; it only pays when a records-backed trace enters
    the engine (e.g. a test stub), and the cost then belongs with trace
    materialisation rather than with simulation or replay.
    """
    if trace.has_columns:
        return
    started = time.perf_counter()
    with spans.span("trace:columnar"):
        trace.columns
    _stages.cache_io += time.perf_counter() - started


def _fetch(name: str, scale: float):
    """Fetch (or produce) the workload's trace handle, timed and
    cache-accounted into the current stage breakdown; publishes
    nothing.  Sharding on yields a :class:`ShardedTrace` (disk-backed
    through the active cache, memory-chunked without one), off an
    in-RAM :class:`Trace`."""
    cache = trace_cache.active_cache()
    sharded = shards.sharding_enabled()
    with spans.span("trace:fetch", workload=name, sharded=sharded) as sp:
        if cache is None:
            started = time.perf_counter()
            if sharded:
                writer = shards.MemoryShardWriter(
                    name, shards.get_shard_rows())
                trace = shards.simulate_sharded(name, scale, writer)
            else:
                trace = suite.run(name, scale)
            _stages.functional_sim += time.perf_counter() - started
            sp.set("cache", "off")
        else:
            before = cache.stats.snapshot()
            if sharded:
                trace = cache.fetch_sharded(name, scale,
                                            shards.get_shard_rows())
            else:
                trace = cache.fetch(name, scale, producer=suite.run)
            _stages.functional_sim += cache.stats.sim_seconds \
                - before.sim_seconds
            _stages.cache_io += cache.stats.load_seconds \
                - before.load_seconds
            _stages.cache_hits += cache.stats.hits - before.hits
            _stages.cache_misses += cache.stats.misses - before.misses
            _stages.cache_corrupt += cache.stats.corrupt - before.corrupt
            if cache.stats.hits > before.hits:
                sp.set("cache", "hit")
            elif cache.stats.corrupt > before.corrupt:
                sp.set("cache", "corrupt")
            else:
                sp.set("cache", "miss")
    if not sharded:
        _ensure_columns(trace)
    return trace


@contextmanager
def open_trace(name: str, scale: float) -> Iterator:
    """The one way a cell gets a workload's trace.

    Yields the trace *handle*: with sharding enabled (``--shard-rows``
    / ``REPRO_SHARD_ROWS``) a :class:`ShardedTrace` whose chunks
    stream through the reductions one shard at a time, otherwise the
    in-RAM :class:`Trace` (one chunk).  Consumers that need records
    (timing, LVC, hint steering) call ``.materialize()`` on it.  The
    workload's ``cpu.*`` metrics are published exactly once, from the
    shard manifest's tallies when sharded (no shard I/O).  On exit
    exactly this ``(name, scale)`` entry is evicted from the suite memo
    - a blanket ``cache_clear`` would drop entries other callers (CLI
    loops, benchmarks, nested drivers) are still iterating.
    """
    try:
        trace = _fetch(name, scale)
        if metrics.active().enabled:
            _publish_trace_counts(
                trace.counts() if isinstance(trace, ShardedTrace)
                else shards._shard_counts(trace.columns))
        yield trace
    finally:
        suite.evict(name, scale)


# -- cell fan-out -------------------------------------------------------

def _init_worker(cache_directory: Optional[str],
                 environ_cache: Optional[str],
                 fault_spec: Optional[str] = None,
                 obs_state: Optional[tuple] = None,
                 shard_rows: Optional[int] = None) -> None:
    """Worker bootstrap: mirror the parent's trace-cache decision,
    fault-injection plan, and span-tracing state.

    Needed for spawn/forkserver start methods, and to propagate a
    ``configure()``-time cache that never reached the environment.
    ``obs_state`` is :func:`repro.obs.spans.worker_state` output: the
    worker journals spans locally (``spans-<pid>.jsonl``) with its
    top-level spans parented to the engine span that spawned the pool;
    the parent merges worker journals at finalisation.  The state
    tuple also carries the parent's active request context
    (``request_id``/attempt, when the pool serves a daemon request)
    and incarnation id, which the worker re-binds so its spans stay
    greppable by the same client ``request_id`` - the engine passes
    the tuple through blindly and stays ignorant of its shape.
    """
    if cache_directory is not None:
        trace_cache.configure(cache_directory)
    elif environ_cache is not None:
        os.environ[trace_cache.ENV_VAR] = environ_cache
    else:
        trace_cache.configure(None)
    if fault_spec:
        fault_injection.install(fault_spec)
    if obs_state is not None:
        spans.enable_worker(*obs_state)
    if shard_rows is not None:
        shards.set_shard_rows(shard_rows)


def _swap_stages(new: StageTimes) -> StageTimes:
    global _stages
    old = _stages
    _stages = new
    return old


def _run_cell(worker: Callable, name: str, scale: float, args: tuple,
              collect_metrics: bool = False, index: int = 0,
              attempt: int = 0)\
        -> Tuple[object, StageTimes, Optional[Dict[str, dict]]]:
    """One cell, with its stage breakdown and metrics isolated.

    Runs in the parent (serial mode) or in a pool worker; either way
    the caller merges the returned StageTimes into its accumulator and
    the metric snapshot into the per-cell collection.  ``index`` and
    ``attempt`` identify the execution for the deterministic
    fault-injection harness.
    """
    fault_injection.fire_cell(name, index, attempt)
    local = StageTimes()
    outer = _swap_stages(local)
    registry = metrics.MetricsRegistry() if collect_metrics else None
    outer_registry = metrics.swap(registry) if registry is not None \
        else None
    started = time.perf_counter()
    try:
        # The cell span opens after the registry swap so its metric
        # delta is exactly this cell's counters.
        with spans.span("cell", capture_metrics=True, workload=name,
                        index=index, attempt=attempt):
            result = worker(name, scale, *args)
    finally:
        # Restore the caller's accumulator (serial path nests inside
        # the driver's own timing scope).
        _swap_stages(outer)
        if registry is not None:
            metrics.swap(outer_registry)
    elapsed = time.perf_counter() - started
    local.replay += max(
        0.0, elapsed - local.functional_sim - local.cache_io)
    local.cells += 1
    snapshot = registry.snapshot() if registry is not None else None
    return result, local, snapshot


def _record_cell(name: str, times: StageTimes,
                 snapshot: Optional[Dict[str, dict]]) -> None:
    name = _cell_key(name)
    _stages.merge(times)
    _note_cell(name, hits=times.cache_hits, misses=times.cache_misses)
    if snapshot is None:
        return
    existing = _metric_cells.get(name)
    _metric_cells[name] = snapshot if existing is None \
        else metrics.merge_snapshots(existing, snapshot)


def _journal_record(journal: Optional[checkpoint.CellJournal],
                    worker: Callable, name: str, scale: float,
                    args: tuple, outcome: tuple) -> None:
    if journal is None:
        return
    result, times, snapshot = outcome
    journal.record(worker, name, scale, args, result, times, snapshot)


class _SerialCellTimeout(Exception):
    """Internal: raised by the serial watchdog's SIGALRM handler."""


def _serial_watchdog_usable() -> bool:
    """Whether a SIGALRM watchdog can pre-empt serial cells here.

    Interval timers only deliver to the main thread, and non-POSIX
    platforms have no ``SIGALRM`` at all; elsewhere the serial path
    degrades to its historical no-timeout behaviour.
    """
    return (hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread())


def _run_cell_with_watchdog(timeout: float, worker: Callable, name: str,
                            scale: float, args: tuple, collect: bool,
                            index: int, attempt: int) -> tuple:
    """Run one serial cell under a real-time alarm.

    Raises :class:`_SerialCellTimeout` if the cell outlives
    ``timeout`` seconds, mirroring the pool path's per-cell
    ``future.result(timeout=...)`` pre-emption so ``--jobs 1`` honours
    ``REPRO_CELL_TIMEOUT`` too.  The previous handler and timer are
    always restored.
    """
    def _alarm(signum, frame):
        raise _SerialCellTimeout()

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return _run_cell(worker, name, scale, args, collect, index,
                         attempt)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_serial(worker: Callable, names: Sequence[str], scale: float,
                args: tuple, collect: bool, indices: Sequence[int],
                outcomes: Dict[int, tuple], policy: faults.RetryPolicy,
                journal: Optional[checkpoint.CellJournal]) -> None:
    """In-process execution with per-cell retry.

    ``policy.cell_timeout`` is enforced with a SIGALRM watchdog where
    the platform allows (main thread, POSIX), so a wedged cell fails
    the same way at any ``--jobs`` level; where it doesn't, serial
    cells run untimed as before.
    """
    timeout = policy.cell_timeout
    watchdog = timeout is not None and _serial_watchdog_usable()
    for i in indices:
        attempt = 0
        while True:
            try:
                if watchdog:
                    outcome = _run_cell_with_watchdog(
                        timeout, worker, names[i], scale, args,
                        collect, i, attempt)
                else:
                    outcome = _run_cell(worker, names[i], scale, args,
                                        collect, i, attempt)
            except _SerialCellTimeout:
                _faults.timeouts += 1
                attempt += 1
                if attempt > policy.max_retries:
                    raise faults.CellTimeout(
                        f"cell {names[i]!r} exceeded the {timeout:g}s "
                        f"timeout on {attempt} attempts") from None
                _faults.retries += 1
            except Exception as exc:
                attempt += 1
                if attempt > policy.max_retries:
                    raise faults.CellFailure(
                        f"cell {names[i]!r} failed after {attempt} "
                        f"attempts") from exc
                _faults.retries += 1
                faults._sleep(policy.backoff(attempt))
            else:
                outcomes[i] = outcome
                _journal_record(journal, worker, names[i], scale, args,
                                outcome)
                break


def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
    """Release a pool; with ``kill``, terminate its workers first so a
    stalled or wedged cell cannot hold the run hostage."""
    if kill:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
    pool.shutdown(wait=not kill, cancel_futures=True)


def _harvest_done(futures: Dict[int, "object"],
                  outcomes: Dict[int, tuple], worker: Callable,
                  names: Sequence[str], scale: float, args: tuple,
                  journal: Optional[checkpoint.CellJournal]) -> None:
    """Bank results of cells that finished before a pool went down."""
    for j, future in futures.items():
        if j in outcomes or not future.done():
            continue
        try:
            outcome = future.result(timeout=0)
        except Exception:
            continue        # re-runs in the next pool
        outcomes[j] = outcome
        _journal_record(journal, worker, names[j], scale, args, outcome)


def _run_pool(worker: Callable, names: Sequence[str], scale: float,
              args: tuple, collect: bool, indices: Sequence[int],
              outcomes: Dict[int, tuple], policy: faults.RetryPolicy,
              journal: Optional[checkpoint.CellJournal],
              max_workers: int) -> None:
    """Pool execution with retries, timeouts, rebuilds, and - once the
    rebuild budget is spent - serial fallback for the remaining cells."""
    pending = list(indices)
    attempts = {i: 0 for i in pending}
    rebuilds = 0
    cache = trace_cache.active_cache()
    cache_dir = str(cache.directory) if cache is not None else None
    environ_cache = os.environ.get(trace_cache.ENV_VAR)
    fault_spec = fault_injection.active_spec()
    obs_state = spans.worker_state()
    while pending:
        if rebuilds > policy.max_pool_rebuilds:
            _faults.serial_fallbacks += 1
            _run_serial(worker, names, scale, args, collect, pending,
                        outcomes, policy, journal)
            return
        pool = ProcessPoolExecutor(
            max_workers=min(max_workers, len(pending)),
            initializer=_init_worker,
            initargs=(cache_dir, environ_cache, fault_spec, obs_state,
                      shards.get_shard_rows()))
        futures = {i: pool.submit(_run_cell, worker, names[i], scale,
                                  args, collect, i, attempts[i])
                   for i in pending}
        abandon = False     # the pool must be torn down forcibly
        broken = False      # workers died (vs. a stalled cell)
        try:
            for i in pending:
                while i not in outcomes:
                    try:
                        outcome = futures[i].result(
                            timeout=policy.cell_timeout)
                    except FuturesTimeout:
                        # The worker is wedged; it occupies a pool slot
                        # until killed, so tear the whole pool down and
                        # re-run the unfinished cells in a fresh one.
                        _faults.timeouts += 1
                        attempts[i] += 1
                        abandon = True
                        if attempts[i] > policy.max_retries:
                            raise faults.CellTimeout(
                                f"cell {names[i]!r} exceeded the "
                                f"{policy.cell_timeout:g}s timeout on "
                                f"{attempts[i]} attempts")
                        _faults.retries += 1
                        break
                    except BrokenProcessPool:
                        rebuilds += 1
                        _faults.pool_rebuilds += 1
                        abandon = True
                        broken = True
                        break
                    except Exception as exc:
                        attempts[i] += 1
                        if attempts[i] > policy.max_retries:
                            abandon = True
                            raise faults.CellFailure(
                                f"cell {names[i]!r} failed after "
                                f"{attempts[i]} attempts") from exc
                        _faults.retries += 1
                        faults._sleep(policy.backoff(attempts[i]))
                        # The pool itself is healthy - only this cell
                        # failed; resubmit it alone.
                        try:
                            futures[i] = pool.submit(
                                _run_cell, worker, names[i], scale,
                                args, collect, i, attempts[i])
                        except BrokenProcessPool:
                            rebuilds += 1
                            _faults.pool_rebuilds += 1
                            abandon = True
                            broken = True
                            break
                    else:
                        outcomes[i] = outcome
                        _journal_record(journal, worker, names[i],
                                        scale, args, outcome)
                if abandon:
                    break
        finally:
            if abandon:
                _harvest_done(futures, outcomes, worker, names, scale,
                              args, journal)
            _shutdown_pool(pool, kill=abandon)
        if broken:
            # Every unfinished cell lost an execution attempt with the
            # pool (the culprit is unknowable from the parent); the
            # charge also lets attempt-keyed fault injection converge.
            for j in pending:
                if j not in outcomes:
                    attempts[j] += 1
                    _faults.retries += 1
        pending = [i for i in pending if i not in outcomes]


def run_cells(worker: Callable, names: Sequence[str], scale: float,
              *args, jobs: Optional[int] = None) -> List[object]:
    """Run ``worker(name, scale, *args)`` for each name; ordered results.

    This is the one public execution entry point every experiment
    driver (and the trace-consuming CLI commands) goes through.
    ``worker`` must be a module-level function (it crosses a process
    boundary when ``jobs > 1``).  Results are returned in ``names``
    order regardless of completion order - and regardless of retries,
    pool rebuilds, timeouts, or serial fallback along the way - so any
    reduction over them is deterministic at every parallelism level.

    When the active metrics registry is enabled, each cell collects
    into a fresh registry and the per-cell snapshots are merged into
    the accumulator behind :func:`take_metrics` in submission order -
    so metric exports, like rendered tables, are byte-identical at any
    ``--jobs`` level.  Stage times and metric snapshots are merged only
    after *all* cells have completed, which keeps that guarantee intact
    on every fault-recovery path.

    With a checkpoint journal configured, journalled cells are replayed
    from disk (restoring their recorded stage times and metric
    snapshots) and only the missing cells execute.
    """
    names = list(names)
    collect = metrics.active().enabled
    policy = faults.active_policy()
    journal = _journal
    outcomes: Dict[int, tuple] = {}
    pending: List[int] = []
    with spans.span("engine:run_cells", cells=len(names)) as run_span:
        for i, name in enumerate(names):
            if journal is None:
                pending.append(i)
                continue
            with spans.span("checkpoint:replay", workload=name) as sp:
                cached = journal.load(worker, name, scale, args)
                sp.set("hit", cached is not None)
            if cached is not None:
                outcomes[i] = cached
                _note_cell(name, replays=1)
            else:
                pending.append(i)
        if pending:
            effective = jobs if jobs is not None else get_jobs()
            effective = max(1, min(effective, len(pending)))
            run_span.set("jobs", effective)
            if effective <= 1 or len(pending) <= 1:
                _run_serial(worker, names, scale, args, collect,
                            pending, outcomes, policy, journal)
            else:
                _run_pool(worker, names, scale, args, collect, pending,
                          outcomes, policy, journal, effective)
        results = []
        for i, name in enumerate(names):
            result, times, snapshot = outcomes[i]
            _record_cell(name, times, snapshot)
            results.append(result)
        return results


# -- (cell x shard) fan-out ---------------------------------------------

def _fold_cell(name: str, scale: float, partial: Callable,
               fold: Callable, *args) -> object:
    """Serial reduction: ``partial`` over the handle's chunks in
    order, then ``fold`` - the same pair the fan-out distributes."""
    with open_trace(name, scale) as trace:
        return fold(name, scale,
                    [partial(name, scale, chunk, index, *args)
                     for index, chunk in enumerate(
                         shards.iter_chunks(trace))], *args)


def _produce_cell(name: str, scale: float) -> int:
    """Pass-1 worker: ensure the sharded entry exists; shard count.

    Also the cell that publishes the workload's ``cpu.*`` metrics (from
    the manifest tallies), so the fan-out's merged per-workload
    snapshot carries them exactly once, like a monolithic cell.
    """
    with open_trace(name, scale) as handle:
        if not isinstance(handle, ShardedTrace):
            raise RuntimeError(
                "sharded fan-out requires sharding enabled in the worker")
        return handle.num_shards


def _shard_cell(pseudo: str, scale: float, partial: Callable,
                *args) -> object:
    """Pass-2 worker: run ``partial`` over one ``name#i`` shard.

    Opens the manifest the produce pass left in the cache *without*
    cache-hit accounting (the produce cell already counted this
    workload's fetch), loads exactly one shard, and publishes no
    metrics - every publication belongs to the produce or combine
    cells so merged snapshots match the monolithic run.
    """
    name, _, index = pseudo.partition("#")
    index = int(index)
    started = time.perf_counter()
    trace = trace_cache.active_cache().load_sharded(
        name, scale, shards.get_shard_rows())
    if trace is None:       # evicted or quarantined since pass 1
        trace = _fetch(name, scale)
    chunk = trace.chunk(index)
    _stages.cache_io += time.perf_counter() - started
    return partial(name, scale, chunk, index, *args)


def _combine_cell(name: str, scale: float, fold: Callable,
                  partials: Dict[str, list], *args) -> object:
    """Pass-3 worker: fold one workload's ordered shard partials."""
    return fold(name, scale, partials[name], *args)


def run_cells_sharded(partial: Callable, fold: Callable,
                      names: Sequence[str], scale: float, *args,
                      jobs: Optional[int] = None) -> List[object]:
    """Run a ``(partial, fold)`` reduction for each workload.

    ``partial(name, scale, chunk, index, *args)`` reduces one chunk
    of the trace; ``fold(name, scale, partials, *args)`` folds the
    chunk partials, in trace order, into the cell's result (and
    publishes the reduction's metrics).

    With sharding *and* a disk-backed trace cache (pool workers read
    shards by path) the reduction fans out over every ``(workload,
    shard)`` pair in three passes, each through :func:`run_cells` (so
    retries, pool rebuilds, checkpointing, and ordered merging all
    apply):

    1. *produce* - one cell per workload materialises its sharded
       trace into the cache and publishes the ``cpu.*`` metrics;
    2. *shard* - one cell per ``(workload, shard)`` runs ``partial``
       over that shard alone (this is where ``--jobs`` buys
       wall-clock);
    3. *combine* - in-process per workload, ``fold`` folds the ordered
       shard partials.

    Otherwise each workload is one :func:`run_cells` cell running the
    same pair serially over its handle's chunks.

    Byte-identity: shard cells publish nothing, the produce and
    combine cells publish exactly what one serial cell would, and
    partials are folded in shard order - so tables and metric exports
    match at any ``--jobs`` / ``--shard-rows``.  The stage report
    counts one cell per workload either way: the shard and combine
    cells are parts of their workload's cell.
    """
    if (not shards.sharding_enabled()
            or trace_cache.active_cache() is None):
        return run_cells(_fold_cell, names, scale, partial, fold, *args,
                         jobs=jobs)
    names = list(names)
    with spans.span("engine:fanout", cells=len(names)) as sp:
        counts = run_cells(_produce_cell, names, scale, jobs=jobs)
        cells = _stages.cells
        pseudo = [f"{name}#{index}"
                  for name, count in zip(names, counts)
                  for index in range(count)]
        sp.set("shards", len(pseudo))
        flat = run_cells(_shard_cell, pseudo, scale, partial, *args,
                         jobs=jobs)
        partials: Dict[str, list] = {name: [] for name in names}
        for pseudo_name, result in zip(pseudo, flat):
            partials[_cell_key(pseudo_name)].append(result)
        # The combine pass is cheap, in-process, and fully derivable
        # from the journalled shard cells - journalling it would key
        # entries on the partials themselves (huge, repr-truncated),
        # so it always re-runs instead.
        global _journal
        journal, _journal = _journal, None
        try:
            return run_cells(_combine_cell, names, scale, fold,
                             partials, *args, jobs=1)
        finally:
            _journal = journal
            _stages.cells = cells
