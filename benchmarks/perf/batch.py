"""The batch workloads: ``timing-sweep``, ``replay-warm``, ``stream-cold``.

Each workload sets its inputs up :data:`SETUP_REPEATS` times (the
median is ``setup_s``), then repeats a fixed *pass* until the run's
time is spent (the median pass is ``wall_s``).  A pass calls the
program's public layer functions through
``repro.eval.engine.run_cells(cell, names, scale, jobs=1)`` with the
module-level cell functions below - the call path the experiment
functions use - in an order the seed permutes.  Every cell's output is
checked against ``expected.json``.

Inputs are small on purpose: the benchmark must run 22 times per
workload inside a fixed time budget on a 2-vCPU host, so the
replay/stream/serve workloads use five of the twelve programs at
scale 0.05 and the timing sweep uses 20,000-instruction windows (see
README.md for the sizes and why these programs).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Tuple

from repro.eval import engine
from repro.eval.experiments import FIGURE5_SIZES, Figure5Result
from repro.eval.faults import CellFailure
from repro.predictor.evaluate import evaluate_scheme, occupancy_by_context
from repro.predictor.hints import hints_from_trace
from repro.predictor.schemes import ALL_SCHEMES, FIGURE4_SCHEMES
from repro.timing.config import figure8_configs
from repro.timing.machine import simulate
from repro.trace import shards
from repro.trace.cache import TraceCache
from repro.trace.columns import COLUMN_DTYPES, ColumnarTrace
from repro.trace.records import Trace
from repro.trace.regions import region_breakdown
from repro.trace.windows import window_stats
from repro.workloads import suite

from benchmarks.perf import measure, spec
from benchmarks.perf.tracing import SpanRecorder, descendants, self_times

#: Workload scale for every batch and serve input.
SCALE = 0.05

#: Programs analysed by replay-warm, stream-cold and serve-mix: integer
#: search (go_ai), heap trees (ccomp), cons cells plus deep recursion
#: (lisp), call-heavy accessors (db_vortex) and an FP stencil (swim_fp)
#: - the spread of region mixes Figures 2/4 depend on.
WORKLOADS = ("go_ai", "ccomp", "lisp", "db_vortex", "swim_fp")

#: Timing inputs: an integer heap program that gains most from the
#: decoupled LVC path and a port-bound FP stencil that gains from
#: conventional ports instead (Figure 8 rows ccomp and swim_fp).
TIMING_WORKLOADS = ("ccomp", "swim_fp")

#: Instructions per timing input, taken from the middle of the trace.
TIMING_WINDOW = 20_000

#: Rows per shard for stream-cold (small, so every program spans
#: several shards and the cross-shard carry paths run).
SHARD_ROWS = 16_384

SETUP_REPEATS = 3

_WINDOWS = (32, 64)


# -- result summaries (the form expected.json stores) -------------------

def analyse(trace, recorder: SpanRecorder, schemes, figure5: bool)\
        -> Tuple[dict, int]:
    """Run one trace (in-RAM or sharded) through the trace and
    predictor reductions; returns the summary and the number of
    memory references the predictor layer replayed."""
    name = trace.name
    summary: dict = {"schemes": {}}
    rows = 0
    with recorder.span("trace.regions", workload=name):
        breakdown = region_breakdown(trace)
    summary["regions"] = {"static": breakdown.static_counts,
                          "dynamic": breakdown.dynamic_counts}
    summary["windows"] = {}
    for window in _WINDOWS:
        with recorder.span("trace.windows", workload=name, window=window):
            stats = asdict(window_stats(trace, window))
        summary["windows"][str(window)] = stats
    for scheme in schemes:
        with recorder.span("predictor.replay", workload=name,
                           scheme=scheme.name):
            result = evaluate_scheme(trace, scheme)
        summary["schemes"][scheme.name] = asdict(result)
        rows += result.total
    if figure5:
        with recorder.span("predictor.hints", workload=name):
            hints = hints_from_trace(trace)
        sizes = {}
        for size in FIGURE5_SIZES:
            pair = []
            for hinted in (None, hints):
                with recorder.span("predictor.sized_replay", workload=name,
                                   size=str(size),
                                   hints=hinted is not None):
                    result = evaluate_scheme(trace, "1bit-hybrid",
                                             table_size=size, hints=hinted)
                pair.append(result.accuracy)
                rows += result.total
            sizes[Figure5Result.size_key(size)] = pair
        summary["figure5"] = sizes
    with recorder.span("predictor.occupancy", workload=name):
        summary["occupancy"] = occupancy_by_context(trace)
    rows += 4 * summary["schemes"][schemes[0].name]["total"]
    return summary, rows


def middle_window(trace: Trace, rows: int) -> Trace:
    """``rows`` consecutive instructions from the middle of ``trace``
    (the steady-state loop, not start-up code), as a new trace."""
    columns = trace.columns
    start = max(0, (len(columns) - rows) // 2)
    stop = min(len(columns), start + rows)
    window = ColumnarTrace(
        *(getattr(columns, name)[start:stop] for name, _ in COLUMN_DTYPES),
        columns.value[start:stop], columns.value_valid[start:stop])
    return Trace(name=trace.name, columns=window)


# -- cell functions (module-level: run_cells' worker contract) ----------

def timing_cell(cell: str, scale: float, traces: Dict[str, Trace],
                recorder: SpanRecorder) -> dict:
    """One ``workload:config`` simulation of the timing sweep."""
    workload, config_name = cell.split(":", 1)
    config = {c.name: c for c in figure8_configs()}[config_name]
    started = time.perf_counter()
    with recorder.span("eval.cell", workload=cell):
        with recorder.span("timing.simulate", workload=workload,
                           config=config_name,
                           decoupled=config.decoupled) as sp:
            result = simulate(traces[workload], config)
            sp.set("cycles", result.cycles)
    return {"value": asdict(result),
            "seconds": time.perf_counter() - started,
            "counts": {"cycles": result.cycles,
                       "instructions": result.instructions}}


def replay_cell(name: str, scale: float, cache: TraceCache,
                recorder: SpanRecorder) -> dict:
    """Every replay analysis of one workload from the warm cache."""
    started = time.perf_counter()
    with recorder.span("eval.cell", workload=name):
        with recorder.span("trace.load", workload=name):
            trace = cache.load(name, scale)
        if trace is None:
            raise RuntimeError(f"trace cache lost {name}@{scale}")
        summary, rows = analyse(trace, recorder, ALL_SCHEMES, True)
    return {"value": summary,
            "seconds": time.perf_counter() - started,
            "counts": {"bytes_read":
                       cache.path_for(name, scale).stat().st_size,
                       "rows": rows}}


class _TimedWriter:
    """Wraps a shard writer so each spill is a ``trace.shard_write``
    span (columnise + compress + write of one shard)."""

    def __init__(self, writer, recorder: SpanRecorder) -> None:
        self._writer = writer
        self._recorder = recorder
        self.shard_rows = writer.shard_rows

    def append_rows(self, rows) -> None:
        with self._recorder.span("trace.shard_write"):
            self._writer.append_rows(rows)

    def append(self, chunk) -> None:
        with self._recorder.span("trace.shard_write"):
            self._writer.append(chunk)

    def finish(self, output, exit_code: int):
        with self._recorder.span("trace.shard_write", finish=True):
            return self._writer.finish(output, exit_code)


class _Producer:
    """``fetch_sharded`` producer: the spilling functional simulation
    under a ``cpu.run`` span, its writer calls timed separately."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder

    def __call__(self, name: str, scale: float, writer):
        with self._recorder.span("cpu.run", workload=name):
            return shards.simulate_sharded(
                name, scale, _TimedWriter(writer, self._recorder))


def stream_cell(name: str, scale: float, cache: TraceCache,
                recorder: SpanRecorder) -> dict:
    """Build one workload's sharded trace into an empty cache, then
    stream the Figure 2/Table 2/Figure 4/Table 3 reductions over it."""
    started = time.perf_counter()
    loaded = shards.STATS.loaded
    with recorder.span("eval.cell", workload=name):
        with recorder.span("trace.fetch", workload=name):
            sharded = cache.fetch_sharded(name, scale, SHARD_ROWS,
                                          producer=_Producer(recorder))
        summary, rows = analyse(sharded, recorder, FIGURE4_SCHEMES, False)
    entry = cache.sharded_path_for(name, scale, SHARD_ROWS)
    return {"value": summary,
            "seconds": time.perf_counter() - started,
            "counts": {"instructions": len(sharded),
                       "shards_written": sharded.num_shards,
                       "bytes_written": sum(p.stat().st_size
                                            for p in entry.iterdir()),
                       "shard_loads": shards.STATS.loaded - loaded,
                       "rows": rows}}


# -- workload definitions -----------------------------------------------

def _compile(names, recorder: SpanRecorder) -> None:
    suite.compile_workload.cache_clear()
    for name in names:
        with recorder.span("compiler.compile", workload=name):
            suite.compile_workload(name, SCALE)


def _simulate(name: str, recorder: SpanRecorder) -> Trace:
    with recorder.span("cpu.run", workload=name):
        trace = suite.run(name, SCALE)
    suite.evict(name, SCALE)
    return trace


class TimingSweep:
    """The 8 Figure-8 configurations over two timing windows."""

    def __init__(self, tmp: Path, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.windows: Dict[str, Trace] = {}
        self.setup_instructions = 0

    def setup(self, index: int) -> None:
        _compile(TIMING_WORKLOADS, self.recorder)
        self.setup_instructions = 0
        for name in TIMING_WORKLOADS:
            trace = _simulate(name, self.recorder)
            self.setup_instructions += len(trace)
            self.windows[name] = middle_window(trace, TIMING_WINDOW)

    def run_pass(self, rng: random.Random) -> Dict[str, dict]:
        # Fresh trace objects each pass, so record materialisation -
        # paid once per trace by every Figure 8 cell - is measured.
        traces = {name: Trace(name=name, columns=window.columns)
                  for name, window in self.windows.items()}
        for name, trace in traces.items():
            with self.recorder.span("trace.materialize", workload=name):
                trace.records
        cells = [f"{name}:{config.name}" for name in TIMING_WORKLOADS
                 for config in figure8_configs()]
        rng.shuffle(cells)
        with self.recorder.span("eval.run_cells", cells=len(cells)):
            outputs = engine.run_cells(timing_cell, cells, SCALE, traces,
                                       self.recorder, jobs=1)
        return dict(zip(cells, outputs))

    @staticmethod
    def expected_value(expected: dict, cell: str):
        workload, config = cell.split(":", 1)
        return expected["timing"][workload][config]


class ReplayWarm:
    """Every replay analysis of the five programs from a warm cache."""

    def __init__(self, tmp: Path, recorder: SpanRecorder) -> None:
        self.tmp = tmp
        self.recorder = recorder
        self.cache = None
        self.setup_instructions = 0

    def setup(self, index: int) -> None:
        cache = TraceCache(self.tmp / f"cache-{index}")
        _compile(WORKLOADS, self.recorder)
        self.setup_instructions = 0
        for name in WORKLOADS:
            trace = _simulate(name, self.recorder)
            self.setup_instructions += len(trace)
            with self.recorder.span("trace.store", workload=name):
                cache.store(name, SCALE, trace)
        self.cache = cache

    def run_pass(self, rng: random.Random) -> Dict[str, dict]:
        names = list(WORKLOADS)
        rng.shuffle(names)
        with self.recorder.span("eval.run_cells", cells=len(names)):
            outputs = engine.run_cells(replay_cell, names, SCALE,
                                       self.cache, self.recorder, jobs=1)
        return dict(zip(names, outputs))

    @staticmethod
    def expected_value(expected: dict, cell: str):
        return expected["replay"][cell]


class StreamCold:
    """Sharded build plus streamed reductions from an empty cache."""

    def __init__(self, tmp: Path, recorder: SpanRecorder) -> None:
        self.tmp = tmp
        self.recorder = recorder
        self.passes = 0
        self.setup_instructions = 0

    def setup(self, index: int) -> None:
        _compile(WORKLOADS, self.recorder)

    def run_pass(self, rng: random.Random) -> Dict[str, dict]:
        names = list(WORKLOADS)
        rng.shuffle(names)
        self.passes += 1
        cache = TraceCache(self.tmp / f"stream-{self.passes}")
        with self.recorder.span("eval.run_cells", cells=len(names)):
            outputs = engine.run_cells(stream_cell, names, SCALE, cache,
                                       self.recorder, jobs=1)
        return dict(zip(names, outputs))

    @staticmethod
    def expected_value(expected: dict, cell: str):
        # The sharded == in-RAM contract: stream-cold must reproduce
        # replay-warm's values exactly, for the reductions it runs.
        full = expected["replay"][cell]
        value = {key: full[key]
                 for key in ("regions", "windows", "occupancy")}
        value["schemes"] = {scheme.name: full["schemes"][scheme.name]
                            for scheme in FIGURE4_SCHEMES}
        return value


BATCH = {"timing-sweep": TimingSweep, "replay-warm": ReplayWarm,
         "stream-cold": StreamCold}


# -- the run ------------------------------------------------------------

def run(workload: str, seed: int, seconds: float,
        recorder: SpanRecorder, expected: dict) -> dict:
    """Set up, measure for ``seconds``, check; the child's result."""
    rng = random.Random(f"{workload}:{seed}")
    attempted = failed = 0
    with measure.scratch_dir(f"{workload}-") as tmp:
        runner = BATCH[workload](tmp, recorder)
        setups = []
        with recorder.span("bench.workload", workload=workload):
            for index in range(SETUP_REPEATS):
                with recorder.span("bench.setup", index=index):
                    started = time.perf_counter()
                    runner.setup(index)
                    setups.append(time.perf_counter() - started)
            passes: List[Tuple[float, Dict[str, dict]]] = []
            began = time.perf_counter()
            while not passes or time.perf_counter() - began < seconds:
                with recorder.span("bench.pass", index=len(passes)):
                    started = time.perf_counter()
                    try:
                        outputs = runner.run_pass(rng)
                    except CellFailure:        # CellTimeout included
                        outputs = None
                    elapsed = time.perf_counter() - started
                if outputs is None:
                    attempted += 1
                    failed += 1
                    if time.perf_counter() - began >= seconds:
                        break
                    continue
                passes.append((elapsed, outputs))
                for cell, output in outputs.items():
                    attempted += 1
                    if measure.canonical(output["value"]) != \
                            measure.canonical(
                                runner.expected_value(expected, cell)):
                        failed += 1
        peak = measure.vm_hwm_mib(os.getpid())
    timed = [(duration, {cell: out["seconds"]
                         for cell, out in outputs.items()})
             for duration, outputs in passes]
    end_to_end = {
        "wall_s": measure.best_pass_seconds(timed),
        "setup_s": measure.median(setups),
        "peak_rss_mib": peak,
        **measure.cell_percentiles(latencies for _, latencies in timed),
    }
    per_layer = {}
    if recorder.enabled:
        per_layer = layer_metrics(recorder, passes, runner)
        per_layer["bench.wall_s"] = end_to_end["wall_s"]
    return {"attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "per_layer": per_layer}


#: Per-layer time metric -> (span name, optional attribute filter).
_TIME_METRICS = {
    "timing.simulate_s": ("timing.simulate", None),
    "timing.simulate_s.decoupled": ("timing.simulate", True),
    "timing.simulate_s.conventional": ("timing.simulate", False),
    "trace.materialize_s": ("trace.materialize", None),
    "trace.load_s": ("trace.load", None),
    "trace.store_s": ("trace.store", None),
    "trace.regions_s": ("trace.regions", None),
    "trace.windows_s": ("trace.windows", None),
    "trace.fetch_s": ("trace.fetch", None),
    "trace.shard_write_s": ("trace.shard_write", None),
    "predictor.replay_s": ("predictor.replay", None),
    "predictor.sized_replay_s": ("predictor.sized_replay", None),
    "predictor.hints_s": ("predictor.hints", None),
    "predictor.occupancy_s": ("predictor.occupancy", None),
    "cpu.run_s": ("cpu.run", None),
    "compiler.compile_s": ("compiler.compile", None),
}


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(recorder: SpanRecorder, passes, runner) -> dict:
    """Per-layer self times and counts from the traced run's spans.

    Times are per pass for spans inside measured passes plus per setup
    for spans inside set-ups, so each is directly comparable with
    ``wall_s`` / ``setup_s``.
    """
    spans = recorder.spans
    own = self_times(spans)
    roots = {kind: [s for s in spans if s["name"] == kind]
             for kind in ("bench.pass", "bench.setup")}
    scopes = {kind: descendants(spans, found)
              for kind, found in roots.items()}
    n_pass = max(1, len(roots["bench.pass"]))
    n_setup = max(1, len(roots["bench.setup"]))

    def seconds(name: str, decoupled=None) -> float:
        total = 0.0
        for kind, count in (("bench.pass", n_pass),
                            ("bench.setup", n_setup)):
            total += sum(own[s["id"]] for s in spans
                         if s["name"] == name and s["id"] in scopes[kind]
                         and (decoupled is None
                              or s["attrs"].get("decoupled") is decoupled))\
                / count
        return total

    metrics = {name: 0.0 for name in spec.PER_LAYER}
    for metric, (name, decoupled) in _TIME_METRICS.items():
        metrics[metric] = seconds(name, decoupled)
    metrics["eval.self_s"] = seconds("eval.run_cells") \
        + seconds("eval.cell")
    pass_total = sum(d for d, _ in passes)
    pass_self = sum(own[s["id"]] for s in roots["bench.pass"])
    metrics["bench.coverage"] = 1.0 - _rate(pass_self, pass_total)

    first = passes[0][1] if passes else {}
    counts: Dict[str, float] = {}
    for output in first.values():
        for key, value in output["counts"].items():
            counts[key] = counts.get(key, 0) + value
    metrics["timing.cycles"] = counts.get("cycles", 0)
    metrics["timing.insn_per_s"] = _rate(counts.get("instructions", 0),
                                         metrics["timing.simulate_s"])
    metrics["timing.ns_per_cycle"] = _rate(
        metrics["timing.simulate_s"] * 1e9, counts.get("cycles", 0))
    metrics["trace.bytes_read"] = counts.get("bytes_read", 0)
    metrics["trace.shards_written"] = counts.get("shards_written", 0)
    metrics["trace.bytes_written"] = counts.get("bytes_written", 0)
    metrics["trace.shard_loads"] = _rate(counts.get("shard_loads", 0),
                                         counts.get("shards_written", 0))
    metrics["predictor.rows_per_s"] = _rate(
        counts.get("rows", 0),
        metrics["predictor.replay_s"] + metrics["predictor.sized_replay_s"]
        + metrics["predictor.occupancy_s"])
    instructions = runner.setup_instructions \
        or counts.get("instructions", 0)
    metrics["cpu.instructions"] = instructions
    metrics["cpu.insn_per_s"] = _rate(instructions, metrics["cpu.run_s"])
    return metrics
