"""The :class:`Session` facade and its request/response dataclasses.

One programmatic entry point for everything the reproduction can
compute: region-locality profiles, access-region prediction accuracy,
Figure-8 timing sweeps, and every paper experiment/ablation driver.
The batch CLI, the experiment engine, and the ``repro serve`` daemon
all route through this module, so a query answered by any of them is
byte-identical to the same query answered by the others.

A :class:`Session` runs in one of two postures:

* **batch** (``resident=False``, the CLI default): each query fans its
  per-workload cells through :func:`repro.eval.engine.run_cells`
  (honouring ``--jobs`` process parallelism, retries, checkpoints) and
  traces are evicted as soon as a cell finishes - the one-shot,
  bounded-memory posture of a command-line invocation.
* **resident** (``resident=True``, the serving posture): traces stay
  pinned in an in-session LRU, responses are memoised by their
  normalised request, and queries are computed in-process so many
  server threads can share one session.  Warm requests skip both trace
  regeneration and replay; the ``api.*`` counters in the session's
  metrics registry expose the hit/miss traffic.

Both postures share the same pure formatting functions
(:func:`regions_line`, :func:`predict_line`, :func:`timing_block`) and
the same experiment drivers, which is what makes served payloads
byte-identical to batch CLI stdout.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro import eval as evaluation
from repro import config, metrics
from repro.eval import engine
from repro.eval.result import ExperimentResult
from repro.obs import spans
from repro.predictor import evaluate_scheme, scheme_by_name
from repro.timing import figure8_configs, simulate
from repro.trace import cache as trace_cache
from repro.trace.records import Trace
from repro.trace.regions import region_breakdown
from repro.trace.windows import window_stats
from repro.workloads import suite

#: Default workload scale per query family (mirrors the CLI defaults).
DEFAULT_REGIONS_SCALE = 0.5
DEFAULT_PREDICT_SCALE = 0.5
DEFAULT_TIMING_SCALE = 0.25
DEFAULT_EXPERIMENT_SCALE = 1.0

#: Default prediction scheme (the paper's 1-bit hybrid ARPT).
DEFAULT_SCHEME = "1bit-hybrid"

#: Experiment drivers by id - the one registry the CLI, the server,
#: and programmatic callers all dispatch through.
EXPERIMENTS = {
    "table1": evaluation.table1,
    "figure2": evaluation.figure2,
    "table2": evaluation.table2,
    "figure4": evaluation.figure4,
    "table3": evaluation.table3,
    "figure5": evaluation.figure5,
    "section33": evaluation.section33,
    "figure8": evaluation.figure8,
    "a1": evaluation.ablation_two_bit,
    "a2": evaluation.ablation_context_bits,
    "a3": evaluation.ablation_lvc_size,
    "a4": evaluation.ablation_static_hints,
    "a5": evaluation.ablation_banked_cache,
    "a6": evaluation.ablation_heap_decoupling,
    "a7": evaluation.ablation_front_end,
    "a8": evaluation.ablation_hint_steering,
}

#: Every experiment id, sorted (the CLI builds its choices from this).
EXPERIMENT_IDS: Tuple[str, ...] = tuple(sorted(EXPERIMENTS))


def resolve_names(names: Sequence[str]) -> Tuple[str, ...]:
    """Validated workload tuple; empty input means the full suite.

    Raises ``ValueError`` (with the known-name list) on unknown names.
    """
    if not names:
        return tuple(suite.ALL_WORKLOADS)
    for name in names:
        suite.spec(name)        # raises with the known-name list
    return tuple(names)


# -- deadlines -----------------------------------------------------------

class DeadlineExceeded(RuntimeError):
    """A request ran past its deadline at a stage boundary.

    Carries enough to answer "where did the budget go": ``stage`` is
    the boundary that found the deadline expired (the work about to be
    abandoned), ``deadline_ms`` the original budget, and ``stages`` the
    ``(label, elapsed_ms)`` pairs for every stage that *did* complete -
    the server returns them in the 504 response so a timed-out client
    still learns which workloads were served within budget.
    ``budgets`` is the parallel ``(label, remaining_ms)`` view: how
    much budget was left *after* each completed stage (``stages``
    keeps its pair shape for existing consumers).
    """

    def __init__(self, stage: str, deadline_ms: float,
                 stages: Sequence[Tuple[str, float]],
                 budgets: Sequence[Tuple[str, float]] = ()) -> None:
        self.stage = stage
        self.deadline_ms = float(deadline_ms)
        self.stages = tuple((label, round(float(ms), 3))
                            for label, ms in stages)
        self.budgets = tuple((label, round(float(ms), 3))
                             for label, ms in budgets)
        super().__init__(
            f"deadline of {self.deadline_ms:.0f}ms exceeded at stage "
            f"{stage!r} ({len(self.stages)} stage(s) completed)")


class _DeadlineState:
    """Per-thread deadline bookkeeping (see :func:`deadline_scope`)."""

    __slots__ = ("expires", "deadline_ms", "mark", "current", "stages",
                 "budgets")

    def __init__(self, expires: float, deadline_ms: float) -> None:
        self.expires = expires
        self.deadline_ms = deadline_ms
        self.mark = time.monotonic()
        self.current: Optional[str] = None
        self.stages: List[Tuple[str, float]] = []
        self.budgets: List[Tuple[str, float]] = []

    def close_current(self) -> Optional[float]:
        """Attribute the elapsed time to the stage in progress.

        Returns the budget remaining (ms, may be negative) recorded
        for the closed stage, or None when no stage was open.
        """
        now = time.monotonic()
        remaining: Optional[float] = None
        if self.current is not None:
            remaining = (self.expires - now) * 1000.0
            self.stages.append((self.current,
                                (now - self.mark) * 1000.0))
            self.budgets.append((self.current, remaining))
            self.current = None
        self.mark = now
        return remaining


_deadline_local = threading.local()


@contextmanager
def deadline_scope(timeout_ms: Optional[float],
                   anchor: Optional[float] = None):
    """Bound the work inside the ``with`` block by a wall-clock budget.

    Session operations call :func:`check_deadline` at stage boundaries
    (per-workload, per-phase); once ``timeout_ms`` has elapsed since
    ``anchor`` (default: scope entry, measured on ``time.monotonic``)
    the next boundary raises :class:`DeadlineExceeded` instead of
    starting more work.  ``timeout_ms`` of ``None`` or ``<= 0`` means
    no deadline.  Scopes are per-thread and do not nest: the innermost
    scope wins, and the previous one is restored on exit.
    """
    if not timeout_ms or timeout_ms <= 0:
        yield None
        return
    anchor = anchor if anchor is not None else time.monotonic()
    state = _DeadlineState(anchor + timeout_ms / 1000.0,
                           float(timeout_ms))
    previous = getattr(_deadline_local, "state", None)
    _deadline_local.state = state
    try:
        yield state
    finally:
        _deadline_local.state = previous


def current_deadline() -> Optional[_DeadlineState]:
    """The active deadline state for this thread, if any."""
    return getattr(_deadline_local, "state", None)


def check_deadline(stage: str) -> None:
    """Stage boundary: note the completed stage, fail if out of budget.

    ``stage`` names the work *about to start*; the time since the last
    boundary is attributed to the stage that just finished.  Raises
    :class:`DeadlineExceeded` (carrying the completed-stage timings)
    when the active scope's budget is spent, so the expensive work
    named ``stage`` is never started; a no-op when no deadline scope
    is active.
    """
    state = current_deadline()
    if state is None:
        return
    remaining = state.close_current()
    if remaining is not None:
        # Decorate whatever span is open (serve:request, api:trace,
        # cli:*) with the budget left at this boundary - the last
        # write wins, so a 504 post-mortem's span shows the remaining
        # budget when the request last crossed a boundary.
        spans.annotate("budget_ms", round(remaining, 3))
    if time.monotonic() >= state.expires:
        raise DeadlineExceeded(stage, state.deadline_ms, state.stages,
                               state.budgets)
    state.current = stage


# -- request / response dataclasses -------------------------------------

@dataclass(frozen=True)
class RegionsRequest:
    """A region-locality profile query (Figure 2 / Table 2 style)."""

    names: Tuple[str, ...] = ()       # empty = full suite
    scale: float = DEFAULT_REGIONS_SCALE


@dataclass(frozen=True)
class RegionsResponse:
    """Per-workload region-profile lines (CLI ``regions`` payload)."""

    request: RegionsRequest
    lines: Tuple[str, ...]

    @property
    def text(self) -> str:
        """Exactly what the batch CLI prints to stdout."""
        return "".join(line + "\n" for line in self.lines)


@dataclass(frozen=True)
class PredictRequest:
    """An access-region prediction-accuracy query."""

    names: Tuple[str, ...] = ()       # empty = full suite
    scale: float = DEFAULT_PREDICT_SCALE
    scheme: str = DEFAULT_SCHEME


@dataclass(frozen=True)
class PredictResponse:
    """Per-workload prediction-accuracy lines (CLI ``predict`` payload)."""

    request: PredictRequest
    lines: Tuple[str, ...]

    @property
    def text(self) -> str:
        """Exactly what the batch CLI prints to stdout."""
        return "".join(line + "\n" for line in self.lines)


@dataclass(frozen=True)
class TimingRequest:
    """A Figure-8 timing-configuration sweep query."""

    names: Tuple[str, ...] = ()       # empty = full suite
    scale: float = DEFAULT_TIMING_SCALE


@dataclass(frozen=True)
class TimingResponse:
    """Per-workload Figure-8 blocks (CLI ``timing`` payload)."""

    request: TimingRequest
    lines: Tuple[str, ...]            # one multi-line block per workload

    @property
    def text(self) -> str:
        """Exactly what the batch CLI prints to stdout."""
        return "".join(block + "\n" for block in self.lines)


@dataclass(frozen=True)
class ExperimentRequest:
    """One paper experiment or ablation run (``table1`` .. ``a8``)."""

    experiment: str
    names: Tuple[str, ...] = ()       # empty = the driver's default set
    scale: Optional[float] = None     # None = DEFAULT_EXPERIMENT_SCALE


@dataclass(frozen=True)
class ExperimentResponse:
    """A rendered experiment table plus its full typed result."""

    request: ExperimentRequest
    rendered: str                     # the paper-style text table
    result: ExperimentResult = field(compare=False, repr=False,
                                     default=None)

    @property
    def text(self) -> str:
        """Exactly what the batch CLI prints to stdout."""
        return self.rendered + "\n"


# -- pure per-workload formatting (shared by batch and resident) --------

def regions_line(name: str, trace: Trace) -> str:
    """One region-profile line for an already-materialised trace."""
    breakdown = region_breakdown(trace)
    w32 = window_stats(trace, 32)
    classes = " ".join(
        f"{cls}:{100 * breakdown.static_fraction(cls):.0f}%"
        for cls in ("D", "H", "S"))
    return (f"{name:<12} {len(trace):>9,} insns  {classes}  "
            f"multi:{100 * breakdown.multi_region_static_fraction:.1f}%  "
            f"win32 D/H/S: {w32.data.mean:.1f}/{w32.heap.mean:.1f}/"
            f"{w32.stack.mean:.1f}")


def predict_line(name: str, trace: Trace, scheme: str) -> str:
    """One prediction-accuracy line for an already-materialised trace."""
    result = evaluate_scheme(trace, scheme)
    return (f"{name:<12} {scheme:<12} "
            f"accuracy {100 * result.accuracy:6.2f}%  "
            f"mode-definitive {100 * result.definitive_fraction:5.1f}%  "
            f"ARPT entries {result.occupancy}")


def timing_block(name: str, trace: Trace) -> str:
    """One workload's Figure-8 sweep block."""
    lines = [f"{name} ({len(trace):,} instructions):"]
    baseline: Optional[int] = None
    for config in figure8_configs():
        result = simulate(trace, config)
        if baseline is None:
            baseline = result.cycles
        lines.append(f"  {config.name:<12} ipc {result.ipc:5.2f}  "
                     f"vs (2+0): {baseline / result.cycles:.3f}")
    return "\n".join(lines)


# -- engine cell wrappers (module-level so --jobs can pickle them) ------

def regions_cell(name: str, scale: float) -> str:
    """One region-profile cell routed through the engine.

    Uses the streaming trace handle: with ``--shard-rows`` set the
    region/window reductions fold shard-by-shard and peak memory stays
    bounded by the shard size, not the trace length.
    """
    with engine.open_trace(name, scale) as trace:
        return regions_line(name, trace)


def predict_cell(name: str, scale: float, scheme: str) -> str:
    """One prediction-accuracy cell routed through the engine."""
    with engine.open_trace(name, scale) as trace:
        return predict_line(name, trace, scheme)


def timing_cell(name: str, scale: float) -> str:
    """One Figure-8 sweep cell routed through the engine."""
    with engine.open_trace(name, scale) as handle:
        return timing_block(name, handle.materialize())


# -- the facade ---------------------------------------------------------

class Session:
    """The embeddable programmatic API for the whole reproduction.

    See the module docstring for the batch/resident split.  All public
    methods are safe to call from multiple threads on a resident
    session: memoised responses are immutable, computation is
    serialised behind one lock, and warm-path lookups are lock-free
    dictionary reads.

    ``jobs`` overrides the engine's process fan-out per query (``None``
    defers to the engine's own default, i.e. ``--jobs``/``REPRO_JOBS``);
    resident sessions default to in-process serial execution because
    the server provides concurrency across requests instead.
    ``shard_rows`` streams traces as bounded row shards (the CLI's
    ``--shard-rows``); batch queries then fold their reductions
    shard-by-shard in bounded memory, byte-identical to in-RAM runs.
    """

    def __init__(self, resident: bool = False,
                 jobs: Optional[int] = None,
                 registry: Optional[metrics.MetricsRegistry] = None,
                 max_resident_traces: int = 16,
                 shard_rows: Optional[int] = None) -> None:
        self.resident = resident
        self.jobs = jobs if jobs is not None else (1 if resident else None)
        # ``shard_rows`` mirrors the CLI's ``--shard-rows``: one field
        # of the process-wide configuration, installed here so
        # programmatic sessions stream out-of-core without touching the
        # environment.  None defers to $REPRO_SHARD_ROWS / off.
        if shard_rows is not None:
            config.install(config.active().replace(shard_rows=shard_rows))
        #: The session-private metrics registry (always collecting;
        #: independent of the process-global ``repro.metrics`` switch).
        self.metrics = registry if registry is not None \
            else metrics.MetricsRegistry()
        self.max_resident_traces = max_resident_traces
        self._api_ns = self.metrics.scoped("api")
        self._traces: "OrderedDict[Tuple[str, float], Trace]" = \
            OrderedDict()
        self._responses: Dict[object, object] = {}
        self._lock = threading.Lock()          # serialises computation
        self._counter_lock = threading.Lock()  # warm-path counter bumps
        #: Optional observer of resident-LRU traffic.  Called with
        #: ``"hit"`` / ``"miss"`` / ``"evict"`` as they happen, and
        #: ``"warm"`` for a load made by :meth:`warm` (counted as a
        #: miss, but it is preparation, not traffic); the serve layer
        #: points this at its admission controller so cache thrash
        #: drives load shedding.  Must be fast and must not call back
        #: into the session (it may run under the session lock).
        self.trace_events: Optional[Callable[[str], None]] = None

    # -- internal helpers ----------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self._api_ns.counter(name).inc(amount)

    _TRACE_COUNTERS = {"hit": "trace.hits", "miss": "trace.misses",
                       "warm": "trace.misses",
                       "evict": "trace.evictions"}

    def _note_trace(self, kind: str) -> None:
        """Count one resident-LRU event and tell the observer."""
        self._count(self._TRACE_COUNTERS[kind])
        listener = self.trace_events
        if listener is not None:
            listener(kind)

    def _fetch_trace(self, name: str, scale: float,
                     warming: bool = False) -> Trace:
        """A resident trace, loading (cache or simulate) on first use.

        Must be called with :attr:`_lock` held; counts hits/misses/
        evictions into ``api.trace.*`` so the warm path (and LRU
        churn) is observable.  A load made while ``warming`` reaches
        the listener as ``"warm"`` rather than ``"miss"``.
        """
        key = (name, float(scale))
        trace = self._traces.get(key)
        if trace is not None:
            self._note_trace("hit")
            self._traces.move_to_end(key)
            return trace
        with spans.span("api:trace", workload=name, scale=scale):
            trace = trace_cache.fetch_trace(name, scale)
            # Residency is this session's job; drop the suite memo's
            # duplicate reference so memory is bounded by our LRU only.
            suite.evict(name, scale)
        self._traces[key] = trace
        # The miss is noted *after* insertion so a listener that
        # snapshots the resident set (the serve warm manifest) sees
        # the trace it was just told about.
        self._note_trace("warm" if warming else "miss")
        while len(self._traces) > self.max_resident_traces:
            self._traces.popitem(last=False)
            self._note_trace("evict")
        return trace

    def _memoised(self, op: str, key, compute):
        """Resident-mode response memo with compute-once semantics."""
        hit = self._responses.get(key)
        if hit is not None:
            self._count(f"{op}.memo.hits")
            return hit
        with self._lock:
            hit = self._responses.get(key)
            if hit is not None:
                self._count(f"{op}.memo.hits")
                return hit
            self._count(f"{op}.memo.misses")
            response = compute()
            self._responses[key] = response
            return response

    # -- residency management ------------------------------------------

    def warm(self, pairs: Iterable[Tuple[str, float]]) -> List[Tuple[str, float]]:
        """Pin ``(workload, scale)`` traces in memory ahead of traffic.

        Returns the validated pairs actually warmed.  Only meaningful
        on resident sessions (a batch session evicts after each cell).
        """
        warmed = []
        for name, scale in pairs:
            suite.spec(name)            # validate before any work
            with self._lock:
                self._fetch_trace(name, float(scale), warming=True)
            warmed.append((name, float(scale)))
        return warmed

    def warmed(self) -> Tuple[Tuple[str, float], ...]:
        """The ``(workload, scale)`` pairs currently resident."""
        return tuple(self._traces.keys())

    def memoised_count(self) -> int:
        """How many responses the memo table currently holds."""
        return len(self._responses)

    def evict_residents(self) -> int:
        """Force-drop every resident trace (memoised responses stay).

        Returns how many traces were evicted.  Each eviction is
        counted and reported to :attr:`trace_events` exactly like an
        LRU capacity eviction, so this is also the hook the serve
        fault injector uses (``serve:oom-evict``) to drive the
        backpressure path deterministically.
        """
        with self._lock:
            count = len(self._traces)
            self._traces.clear()
        for _ in range(count):
            self._note_trace("evict")
        return count

    def close(self) -> None:
        """Drop resident traces and memoised responses."""
        with self._lock:
            self._traces.clear()
            self._responses.clear()

    # -- request normalisation / memo probing ---------------------------

    def _normalise(self, request):
        """The canonical (memo-keying) form of any request dataclass.

        Mirrors exactly what each query method does before computing,
        so a normalised request equals the memo key of its response.
        Raises ``ValueError`` on unknown workloads/schemes/experiments.
        """
        if isinstance(request, RegionsRequest):
            return replace(request, names=resolve_names(request.names),
                           scale=float(request.scale))
        if isinstance(request, PredictRequest):
            scheme_by_name(request.scheme)
            return replace(request, names=resolve_names(request.names),
                           scale=float(request.scale))
        if isinstance(request, TimingRequest):
            return replace(request, names=resolve_names(request.names),
                           scale=float(request.scale))
        if isinstance(request, ExperimentRequest):
            if request.experiment not in EXPERIMENTS:
                raise ValueError(
                    f"unknown experiment {request.experiment!r}; "
                    f"known: {list(EXPERIMENT_IDS)}")
            scale = request.scale if request.scale is not None \
                else DEFAULT_EXPERIMENT_SCALE
            names = tuple(resolve_names(request.names)) \
                if request.names else ()
            return replace(request, names=names, scale=float(scale))
        raise TypeError(f"not a request dataclass: {request!r}")

    def probe(self, request) -> bool:
        """True when ``request`` already has a memoised response.

        The cost oracle for admission control: a probed-warm request
        is answered from the memo table (a dictionary lookup), so the
        serve layer keeps admitting it even while shedding expensive
        cold work.  Always False on batch sessions and for requests
        that fail validation (those are cheap to reject anyway).
        """
        if not self.resident:
            return False
        try:
            key = self._normalise(request)
        except (TypeError, ValueError):
            return False
        return key in self._responses

    # -- queries --------------------------------------------------------

    def regions(self, request: Optional[RegionsRequest] = None)\
            -> RegionsResponse:
        """Region-locality profile lines, one per workload."""
        request = self._normalise(
            request if request is not None else RegionsRequest())
        if not self.resident:
            check_deadline("regions:run_cells")
            lines = tuple(engine.run_cells(
                regions_cell, request.names, request.scale,
                jobs=self.jobs))
            return RegionsResponse(request, lines)

        def one(name: str) -> str:
            check_deadline(f"regions:{name}")
            return regions_line(name,
                                self._fetch_trace(name, request.scale))

        return self._memoised("regions", request, lambda: RegionsResponse(
            request, tuple(one(name) for name in request.names)))

    def predict(self, request: Optional[PredictRequest] = None)\
            -> PredictResponse:
        """Prediction-accuracy lines, one per workload."""
        request = self._normalise(
            request if request is not None else PredictRequest())
        if not self.resident:
            check_deadline("predict:run_cells")
            lines = tuple(engine.run_cells(
                predict_cell, request.names, request.scale,
                request.scheme, jobs=self.jobs))
            return PredictResponse(request, lines)

        def one(name: str) -> str:
            check_deadline(f"predict:{name}")
            return predict_line(name,
                                self._fetch_trace(name, request.scale),
                                request.scheme)

        return self._memoised("predict", request, lambda: PredictResponse(
            request, tuple(one(name) for name in request.names)))

    def timing(self, request: Optional[TimingRequest] = None)\
            -> TimingResponse:
        """Figure-8 configuration sweep blocks, one per workload."""
        request = self._normalise(
            request if request is not None else TimingRequest())
        if not self.resident:
            check_deadline("timing:run_cells")
            lines = tuple(engine.run_cells(
                timing_cell, request.names, request.scale,
                jobs=self.jobs))
            return TimingResponse(request, lines)

        def one(name: str) -> str:
            check_deadline(f"timing:{name}")
            return timing_block(name,
                                self._fetch_trace(name, request.scale))

        return self._memoised("timing", request, lambda: TimingResponse(
            request, tuple(one(name) for name in request.names)))

    def experiment(self, request: ExperimentRequest) -> ExperimentResponse:
        """Run one paper experiment/ablation driver.

        Mirrors the batch CLI exactly: the scale defaults to
        :data:`DEFAULT_EXPERIMENT_SCALE` and names are passed to the
        driver only when explicitly given (so each driver's own default
        workload set applies otherwise).
        """
        request = self._normalise(request)

        def compute() -> ExperimentResponse:
            # Experiments run as one opaque driver call; the deadline
            # boundary here stops a request that spent its budget
            # queueing from starting a multi-second sweep.
            check_deadline(f"experiment:{request.experiment}")
            driver = EXPERIMENTS[request.experiment]
            kwargs = {"scale": request.scale}
            if request.names:
                kwargs["names"] = request.names
            if self.jobs is not None:
                kwargs["jobs"] = self.jobs
            result = driver(**kwargs)
            return ExperimentResponse(request, result.render(), result)

        if not self.resident:
            return compute()
        return self._memoised("experiment", request, compute)
