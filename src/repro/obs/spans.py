"""Hierarchical span tracing with a JSONL journal.

A *span* is one timed region of the pipeline - a CLI invocation, one
experiment cell (including each retry attempt), a trace-cache fetch, a
predictor replay, a timing simulation - identified by a process-unique
id and linked to its parent span, so a run's journal reconstructs into
a wall-clock tree (``repro profile``).

Design constraints, in order:

* **Near-zero overhead when disabled.**  Tracing is off by default;
  :func:`span` then returns one shared no-op context manager and the
  only cost at an instrumentation site is the call itself.  Spans are
  placed at coarse pipeline boundaries (per cell, per fetch, per
  simulation), never inside per-instruction loops.
* **Results never change.**  Spans are written to their own journal
  files under the run directory; stdout, rendered tables, and
  ``--metrics-out`` exports are untouched, so a traced run stays
  byte-identical to an untraced one.
* **Process-safe.**  Span ids embed the producing pid; pool workers
  journal locally to ``spans-<pid>.jsonl`` (one flushed line per span,
  so a killed worker loses at most its in-flight span) and the parent
  merges worker journals deterministically at finalisation - sorted by
  ``(start, pid, id)``, an order independent of file-system listing
  order or completion races.

Clocks: span timestamps use :func:`time.monotonic` (CLOCK_MONOTONIC),
which shares an epoch across processes on the same boot, so parent and
worker spans interleave correctly on one timeline.  The run manifest
(:mod:`repro.obs.manifest`) anchors that timeline to wall-clock time.

Typical use::

    from repro.obs import spans

    with spans.span("predict:replay", scheme=scheme.name) as sp:
        result = replay(...)
        sp.set("accuracy", result.accuracy)

    @spans.traced("trace:columnar")
    def materialize(...): ...
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import config, metrics

#: Environment variable carrying the daemon incarnation id (stamped by
#: the serve supervisor before each child spawn; the server falls back
#: to minting its own when unset).
INCARNATION_ENV_VAR = "REPRO_INCARNATION_ID"

#: The parent process's merged journal file name.
JOURNAL = "spans.jsonl"

#: Prefix of per-worker journal files merged by the parent.
WORKER_PREFIX = "spans-"

#: Suffix of the single rotated journal segment: once a segment would
#: exceed ``span_max_bytes`` (``REPRO_SPAN_MAX_BYTES``, 0 = unbounded)
#: it moves aside, so ``--trace-spans`` stays bounded on long sharded
#: sweeps at the cost of dropping the oldest spans.
ROTATED_SUFFIX = ".old"


def _counter_values(snapshot: Dict[str, dict]) -> Dict[str, float]:
    """Counter values of a metrics-registry snapshot (for deltas)."""
    return {name: entry["value"] for name, entry in snapshot.items()
            if entry.get("kind") == "counter"}


# -- request correlation context -----------------------------------------
#
# The serve layer binds a per-thread *request context* - the client's
# ``request_id`` plus its retry attempt counter - around dispatch, and
# every span opened inside it auto-attaches ``request`` /
# ``request_attempt`` attributes.  ``worker_state``/``enable_worker``
# ship the context into pool workers, so one
# ``grep <request_id> spans*.jsonl*`` reconstructs a request's full
# tree including the cells it fanned out to.  The *incarnation id*
# (which daemon spawn this process is) is process-wide, not
# per-thread; it rides on ``serve:request`` spans and the manifest so
# journals spanning a supervised restart stay attributable.

_request_local = threading.local()
_incarnation: Optional[str] = None


def set_incarnation(incarnation_id: Optional[str]) -> None:
    """Set the process-wide daemon incarnation id (None clears it)."""
    global _incarnation
    _incarnation = str(incarnation_id) if incarnation_id else None


def incarnation() -> Optional[str]:
    """This process's daemon incarnation id, if one was stamped."""
    return _incarnation


def current_request() -> Optional[Tuple[str, int]]:
    """The thread's active ``(request_id, attempt)``, if any."""
    return getattr(_request_local, "context", None)


@contextmanager
def request_context(request_id, attempt: int = 0):
    """Bind ``(request_id, attempt)`` to this thread for the block.

    Spans opened inside the block (on this thread) auto-attach
    ``request`` and ``request_attempt`` attributes.  Contexts restore
    on exit, so nested scopes (a server thread handling a request that
    itself drives the engine) behave like a stack.  Cheap enough to
    run unconditionally - binding is two thread-local writes even with
    tracing disabled.
    """
    previous = getattr(_request_local, "context", None)
    _request_local.context = (str(request_id), int(attempt))
    try:
        yield
    finally:
        _request_local.context = previous


def _bind_request(context: Optional[Tuple[str, int]]) -> None:
    """Adopt a shipped request context (pool-worker initialisation)."""
    _request_local.context = (str(context[0]), int(context[1])) \
        if context else None


def event(name: str, **attrs) -> None:
    """Journal an instantaneous marker span *immediately*.

    Regular spans journal at ``__exit__``, so a process killed mid-
    request loses its in-flight span entirely.  The serve dispatch
    writes a ``serve:request:start`` event the moment a request is
    decoded - one flushed zero-duration line - so even a SIGKILL'd
    incarnation leaves enough behind for ``repro profile --request``
    to place the doomed attempt on the timeline.  No-op while tracing
    is disabled.
    """
    tracer = _tracer
    if tracer is None:
        return
    with Span(tracer, name, attrs):
        pass


def annotate(key: str, value) -> None:
    """Set an attribute on the innermost open span of this thread.

    Lets deep code (deadline checks in the session) decorate whatever
    request/cell span happens to be open without threading the span
    handle through every call.  No-op when tracing is disabled or no
    span is open.
    """
    tracer = _tracer
    if tracer is None:
        return
    frames = tracer._frames()
    if frames:
        frames[-1].set(key, value)


class Span:
    """One timed region; use as a context manager.

    Attributes set via :meth:`set` (or the ``attrs`` passed to
    :func:`span`) ride along in the journal line.  With
    ``capture_metrics=True`` and an enabled metrics registry, the span
    also records the delta of every counter that changed while it was
    open (the engine uses this on cell spans, where the per-cell
    registry makes the delta exactly the cell's counters).
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "start",
                 "duration", "attrs", "_capture", "_before")

    def __init__(self, tracer: "SpanTracer", name: str, attrs: dict,
                 capture_metrics: bool = False) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self.start = 0.0
        self.duration = 0.0
        self.attrs = attrs
        self._capture = capture_metrics
        self._before: Optional[Dict[str, float]] = None

    def set(self, key: str, value) -> None:
        """Attach one attribute to the span."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer.next_id()
        self.parent_id = tracer.current_span_id()
        context = getattr(_request_local, "context", None)
        if context is not None:
            self.attrs.setdefault("request", context[0])
            self.attrs.setdefault("request_attempt", context[1])
        if self._capture:
            registry = metrics.active()
            if registry.enabled:
                self._before = _counter_values(registry.snapshot())
        tracer.push(self)
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.monotonic() - self.start
        self._tracer.pop(self)
        if self._before is not None:
            after = _counter_values(metrics.active().snapshot())
            delta = {name: value - self._before.get(name, 0)
                     for name, value in after.items()
                     if value != self._before.get(name, 0)}
            if delta:
                self.attrs["metrics"] = delta
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer.write(self)


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class SpanTracer:
    """Process-local tracer writing completed spans to one JSONL file.

    The parent process writes :data:`JOURNAL`; pool workers
    (:func:`enable_worker`) write ``spans-<pid>.jsonl`` with their
    top-level spans parented to the engine span that spawned them.
    Every line is flushed as written, so spans survive worker kills.
    """

    def __init__(self, directory: Union[str, Path], run_id: str,
                 journal_name: str = JOURNAL,
                 default_parent: Optional[str] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id
        self.pid = os.getpid()
        self.default_parent = default_parent
        self.path = self.directory / journal_name
        self.max_bytes = config.active().span_max_bytes
        try:
            self._bytes = os.path.getsize(self.path)
        except OSError:
            self._bytes = 0
        self._fh = open(self.path, "a", encoding="utf-8")
        self._ids = itertools.count(1)
        self._stack = threading.local()
        self._write_lock = threading.Lock()

    # -- id / stack management -----------------------------------------

    def next_id(self) -> str:
        return f"{self.pid:x}.{next(self._ids):x}"

    def _frames(self) -> List[Span]:
        frames = getattr(self._stack, "frames", None)
        if frames is None:
            frames = self._stack.frames = []
        return frames

    def current_span_id(self) -> Optional[str]:
        frames = self._frames()
        return frames[-1].span_id if frames else self.default_parent

    def push(self, span: Span) -> None:
        self._frames().append(span)

    def pop(self, span: Span) -> None:
        frames = self._frames()
        if frames and frames[-1] is span:
            frames.pop()
        elif span in frames:          # tolerate out-of-order exits
            frames.remove(span)

    # -- journal I/O ----------------------------------------------------

    def write(self, span: Span) -> None:
        line = json.dumps({
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "start": span.start,
            "dur": span.duration,
            "attrs": span.attrs,
        }, sort_keys=True, default=str)
        with self._write_lock:
            self._append(line)
            self._fh.flush()

    def _append(self, line: str) -> None:
        """Write one journal line (write lock held), first rotating
        the segment if the line would overflow it - so the newest span
        is always in the live segment."""
        size = len(line) + 1
        if self.max_bytes and self._bytes \
                and self._bytes + size > self.max_bytes:
            self._rotate()
        self._fh.write(line + "\n")
        self._bytes += size

    def _rotate(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            os.replace(self.path,
                       self.path.with_name(self.path.name
                                           + ROTATED_SUFFIX))
        except OSError:
            pass
        self._fh = open(self.path, "a", encoding="utf-8")
        self._bytes = 0

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    def merge_worker_journals(self) -> int:
        """Fold every ``spans-<pid>.jsonl`` into the main journal.

        Worker lines are sorted by ``(start, pid, id)`` before being
        appended - a deterministic order for a given set of spans,
        independent of directory listing order - and the worker files
        are removed.  Malformed lines (a worker killed mid-write) are
        dropped.  Returns the number of spans merged.
        """
        entries = []
        # Rotated worker segments (``spans-<pid>.jsonl.old``) merge
        # too - each is bounded by ``span_max_bytes``.
        worker_files = sorted(self.directory.glob(WORKER_PREFIX
                                                  + "*.jsonl*"))
        for path in worker_files:
            for raw in path.read_text(encoding="utf-8").splitlines():
                try:
                    entry = json.loads(raw)
                except json.JSONDecodeError:
                    continue
                entries.append(entry)
        entries.sort(key=lambda e: (e.get("start", 0.0),
                                    e.get("pid", 0), e.get("id", "")))
        if entries:
            with self._write_lock:
                for entry in entries:
                    self._append(json.dumps(entry, sort_keys=True))
                self._fh.flush()
        for path in worker_files:
            try:
                path.unlink()
            except OSError:
                pass
        return len(entries)


#: The process-wide active tracer (None = tracing disabled).
_tracer: Optional[SpanTracer] = None


def active() -> Optional[SpanTracer]:
    """The tracer spans currently journal into, if any."""
    return _tracer


def enable(directory: Union[str, Path],
           run_id: Optional[str] = None) -> SpanTracer:
    """Start tracing into ``directory`` as the parent process."""
    global _tracer
    if run_id is None:
        run_id = f"{int(time.time())}-{os.getpid()}"
    _tracer = SpanTracer(directory, run_id)
    return _tracer


def enable_worker(directory: Union[str, Path], run_id: str,
                  parent_span_id: Optional[str],
                  request: Optional[Tuple[str, int]] = None,
                  incarnation_id: Optional[str] = None) -> SpanTracer:
    """Start tracing in a pool worker: local journal, inherited parent.

    ``request``/``incarnation_id`` adopt the spawning request's
    correlation context (see :func:`worker_state`), so cell spans the
    worker journals carry the same ``request`` attribute as the serve
    span that fanned them out.
    """
    global _tracer
    _tracer = SpanTracer(directory, run_id,
                         journal_name=f"{WORKER_PREFIX}{os.getpid()}"
                                      f".jsonl",
                         default_parent=parent_span_id)
    _bind_request(request)
    if incarnation_id:
        set_incarnation(incarnation_id)
    return _tracer


def disable(merge: bool = True) -> None:
    """Stop tracing; the parent merges worker journals first."""
    global _tracer
    if _tracer is None:
        return
    if merge and _tracer.default_parent is None:
        _tracer.merge_worker_journals()
    _tracer.close()
    _tracer = None


def worker_state() -> Optional[Tuple]:
    """The :func:`enable_worker` arguments to ship to pool workers:
    ``(directory, run_id, current span id, request context,
    incarnation id)``, or None when tracing is off.

    Captured on the thread building the pool (a serve request thread,
    under its :func:`request_context`), so worker spans inherit the
    request correlation of the query that spawned them.
    """
    tracer = _tracer
    if tracer is None:
        return None
    return (str(tracer.directory), tracer.run_id,
            tracer.current_span_id(), current_request(), _incarnation)


def span(name: str, capture_metrics: bool = False, **attrs):
    """A context manager timing one region (no-op when disabled)."""
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    return Span(tracer, name, attrs, capture_metrics=capture_metrics)


def traced(name: str, **attrs):
    """Decorator form of :func:`span` (checks enablement per call)."""
    def decorate(fn):
        def wrapper(*args, **kwargs):
            if _tracer is None:
                return fn(*args, **kwargs)
            with span(name, **attrs):
                return fn(*args, **kwargs)
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__",
                                       wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper
    return decorate
