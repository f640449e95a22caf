"""Experiment drivers: one function per table/figure of the paper.

Each driver runs the full workload suite (at a configurable scale)
through the relevant subsystem and returns an
:class:`repro.eval.result.ExperimentResult` - the uniform container
carrying the render-ready table, per-cell metric snapshots (when the
metrics registry is enabled), the wall-clock stage breakdown, and the
driver's typed payload under ``data``.  The experiment ids follow
DESIGN.md's per-experiment index: the paper artifacts (T1, F2, T2, F4,
T3, F5, S33, F8), the ablations (A1-A3), and the extensions (A4
Figure-6 compiler hints, A5 banked caches, A6 heap decoupling, A7
gshare front end, A8 hint steering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.lvc import StackCacheResult, stack_cache_hit_rate
from repro.eval import engine, reporting
from repro.eval.result import ExperimentResult
from repro.predictor.evaluate import (PredictionResult, evaluate_scheme,
                                      occupancy_by_context)
from repro.predictor.hints import hints_from_trace
from repro.predictor.schemes import FIGURE4_SCHEMES, Scheme
from repro.timing.config import MachineConfig, figure8_configs
from repro.timing.machine import TimingResult, simulate
from repro.trace.regions import (REGION_CLASSES, RegionBreakdown,
                                 breakdown_from_partial,
                                 fold_pc_partials, pc_region_partial)
from repro.trace.windows import (RegionWindowStats,
                                 combine_window_partials,
                                 stats_from_moments,
                                 window_shard_partial)
from repro.workloads import suite

#: ARPT capacities evaluated in the paper's Figure 5 (None = unlimited),
#: extended downwards: our MiniC programs have ~100x fewer static memory
#: instructions than SPEC95 binaries, so the capacity knee the paper sees
#: between 8K and 64K entries appears here between 64 and 1K entries.
FIGURE5_SIZES: Tuple[Optional[int], ...] = (None, 64 * 1024, 32 * 1024,
                                            16 * 1024, 8 * 1024, 1024,
                                            256, 64)


class _TableResult:
    """Mixin for driver payloads: subclasses provide :meth:`table`.

    ``render()`` stays available on the payload so pre-redesign call
    sites holding a payload directly keep working.
    """

    def table(self) -> Tuple[List[str], List[list], str]:
        """The render-ready ``(headers, rows, title)`` triple."""
        raise NotImplementedError

    def render(self) -> str:
        """The paper-style text table."""
        headers, rows, title = self.table()
        return reporting.format_table(headers, rows, title=title)


def _result(experiment: str, payload: _TableResult) -> ExperimentResult:
    """Wrap a typed payload in the uniform :class:`ExperimentResult`.

    Pops the per-cell metric snapshots the engine accumulated for this
    driver invocation and freezes the stage-time breakdown, so the
    result is self-contained.
    """
    headers, rows, title = payload.table()
    return ExperimentResult(
        experiment=experiment,
        title=title,
        headers=list(headers),
        rows=[list(row) for row in rows],
        metrics=engine.take_metrics(),
        stage_times=engine.stage_times().snapshot(),
        data=payload,
    )


# ----------------------------------------------------------------------
# T1 - Table 1: suite characteristics
# ----------------------------------------------------------------------

@dataclass
class Table1Row:
    name: str
    mirrors: str
    instructions: int
    load_pct: float
    store_pct: float


@dataclass
class Table1Result(_TableResult):
    rows: List[Table1Row]

    def table(self):
        return (
            ["Benchmark", "Mirrors", "Inst. count", "L%", "S%"],
            [[r.name, r.mirrors, r.instructions, f"{r.load_pct:.0f}",
              f"{r.store_pct:.0f}"] for r in self.rows],
            "Table 1: dynamic instruction counts and load/store mix",
        )


def _table1_cell(name: str, scale: float) -> Table1Row:
    # Under sharding every figure here comes straight from the shard
    # manifest's tallies - the cell performs zero shard I/O.
    with engine.open_trace(name, scale) as trace:
        return Table1Row(
            name=name,
            mirrors=suite.spec(name).mirrors,
            instructions=len(trace),
            load_pct=100 * trace.load_fraction(),
            store_pct=100 * trace.store_fraction(),
        )


def table1(scale: float = 1.0,
           names: Sequence[str] = suite.ALL_WORKLOADS,
           jobs: Optional[int] = None) -> ExperimentResult:
    """T1: suite characteristics - dynamic counts and load/store mix."""
    return _result("table1", Table1Result(
        rows=engine.run_cells(_table1_cell, names, scale, jobs=jobs)))


# ----------------------------------------------------------------------
# F2 - Figure 2: static region-class breakdown
# ----------------------------------------------------------------------

@dataclass
class Figure2Result(_TableResult):
    breakdowns: List[RegionBreakdown]

    @property
    def average_multi_region_static(self) -> float:
        values = [b.multi_region_static_fraction for b in self.breakdowns]
        return sum(values) / max(1, len(values))

    @property
    def average_stack_only_static(self) -> float:
        values = [b.stack_only_static_fraction for b in self.breakdowns]
        return sum(values) / max(1, len(values))

    def table(self):
        rows = []
        for b in self.breakdowns:
            rows.append([b.name] + [
                reporting.percent(b.static_fraction(cls), 1)
                for cls in REGION_CLASSES])
        return (["Benchmark"] + list(REGION_CLASSES), rows,
                "Figure 2: static memory instructions by accessed "
                "region(s)")


def _figure2_partial(name: str, scale: float, chunk, index: int):
    """Per-chunk Figure-2 partial: bounded per-PC region masks."""
    return pc_region_partial(chunk)


def _figure2_fold(name: str, scale: float,
                  partials: list) -> RegionBreakdown:
    _, masks, dynamic = fold_pc_partials(partials)
    return breakdown_from_partial(name, masks, dynamic)


def figure2(scale: float = 1.0,
            names: Sequence[str] = suite.ALL_WORKLOADS,
            jobs: Optional[int] = None) -> ExperimentResult:
    """F2: static memory instructions by accessed region(s).

    Per-chunk per-PC partials fold in trace order; with sharding
    enabled and a trace cache active the engine fans the partials out
    over every ``(workload, shard)`` pair, byte-identically.
    """
    return _result("figure2", Figure2Result(
        breakdowns=engine.run_cells_sharded(
            _figure2_partial, _figure2_fold, names, scale, jobs=jobs)))


# ----------------------------------------------------------------------
# T2 - Table 2: sliding-window bandwidth statistics
# ----------------------------------------------------------------------

@dataclass
class Table2Result(_TableResult):
    stats: List[Tuple[RegionWindowStats, RegionWindowStats]]  # (w32, w64)

    def table(self):
        rows = []
        for w32, w64 in self.stats:
            rows.append([
                w32.name,
                reporting.mean_and_std(w32.data),
                reporting.mean_and_std(w32.heap),
                reporting.mean_and_std(w32.stack),
                reporting.mean_and_std(w64.data),
                reporting.mean_and_std(w64.heap),
                reporting.mean_and_std(w64.stack),
            ])
        return (["Benchmark", "D@32", "H@32", "S@32", "D@64", "H@64",
                 "S@64"], rows,
                "Table 2: mean (std) region accesses per 32/64-insn "
                "window")


#: The two window widths of the paper's Table 2.
_TABLE2_WINDOWS = (32, 64)


def _table2_partial(name: str, scale: float, chunk, index: int):
    """Per-chunk Table-2 partials (inner moments + boundary edges)."""
    return tuple(window_shard_partial(chunk, window)
                 for window in _TABLE2_WINDOWS)


def _table2_fold(name: str, scale: float, partials: list)\
        -> Tuple[RegionWindowStats, RegionWindowStats]:
    out = []
    for position, window in enumerate(_TABLE2_WINDOWS):
        moments = combine_window_partials(
            [p[position] for p in partials], window)
        out.append(stats_from_moments(name, window, *moments))
    return tuple(out)


def table2(scale: float = 1.0,
           names: Sequence[str] = suite.ALL_WORKLOADS,
           jobs: Optional[int] = None) -> ExperimentResult:
    """T2: per-region bandwidth and burstiness in sliding windows.

    Each chunk contributes exact inner moments plus its boundary
    edges, the fold reconstructs every window straddling a chunk
    boundary, and the folded moments (and the published
    ``trace.window<W>.*`` time-series) do not depend on the chunking;
    with sharding enabled and a trace cache active the engine fans the
    partials out over ``(workload, shard)`` pairs.
    """
    return _result("table2", Table2Result(
        stats=engine.run_cells_sharded(
            _table2_partial, _table2_fold, names, scale, jobs=jobs)))


# ----------------------------------------------------------------------
# F4 - Figure 4: prediction accuracy per scheme (unlimited ARPT)
# ----------------------------------------------------------------------

@dataclass
class Figure4Result(_TableResult):
    results: Dict[str, Dict[str, PredictionResult]]  # name -> scheme -> res

    def average_accuracy(self, scheme: str,
                         names: Optional[Sequence[str]] = None) -> float:
        names = names or list(self.results)
        return sum(self.results[n][scheme].accuracy
                   for n in names) / len(names)

    def table(self):
        schemes = [s.name for s in FIGURE4_SCHEMES]
        rows = []
        for name, by_scheme in self.results.items():
            row = [name,
                   reporting.percent(by_scheme["static"].definitive_fraction,
                                     1)]
            row += [reporting.percent(by_scheme[s].accuracy, 2)
                    for s in schemes]
            rows.append(row)
        return (["Benchmark", "mode-definitive"] + schemes, rows,
                "Figure 4: correct stack/non-stack classification")


def _figure4_cell(name: str, scale: float, schemes: Tuple[Scheme, ...])\
        -> Dict[str, PredictionResult]:
    with engine.open_trace(name, scale) as trace:
        return {scheme.name: evaluate_scheme(trace, scheme)
                for scheme in schemes}


def figure4(scale: float = 1.0,
            names: Sequence[str] = suite.ALL_WORKLOADS,
            schemes: Sequence[Scheme] = FIGURE4_SCHEMES,
            jobs: Optional[int] = None) -> ExperimentResult:
    """F4: stack/non-stack classification accuracy per scheme."""
    cells = engine.run_cells(_figure4_cell, names, scale, tuple(schemes),
                             jobs=jobs)
    return _result("figure4", Figure4Result(results=dict(zip(names,
                                                             cells))))


# ----------------------------------------------------------------------
# T3 - Table 3: unlimited-ARPT occupancy per context type
# ----------------------------------------------------------------------

@dataclass
class Table3Result(_TableResult):
    occupancy: Dict[str, Dict[str, int]]   # name -> context -> entries

    def table(self):
        rows = []
        for name, by_ctx in self.occupancy.items():
            base = max(1, by_ctx["none"])
            rows.append([
                name, by_ctx["none"],
                f"{by_ctx['gbh']} ({(by_ctx['gbh'] - base) * 100 // base}%)",
                f"{by_ctx['cid']} ({(by_ctx['cid'] - base) * 100 // base}%)",
                f"{by_ctx['hybrid']} "
                f"({(by_ctx['hybrid'] - base) * 100 // base}%)",
            ])
        return (["Benchmark", "PC-only", "w/ GBH", "w/ CID", "w/ Hybrid"],
                rows, "Table 3: entries occupied in an unlimited ARPT")


def _table3_cell(name: str, scale: float) -> Dict[str, int]:
    with engine.open_trace(name, scale) as trace:
        return occupancy_by_context(trace)


def table3(scale: float = 1.0,
           names: Sequence[str] = suite.ALL_WORKLOADS,
           jobs: Optional[int] = None) -> ExperimentResult:
    """T3: unlimited-ARPT occupancy per indexing context."""
    cells = engine.run_cells(_table3_cell, names, scale, jobs=jobs)
    return _result("table3", Table3Result(occupancy=dict(zip(names,
                                                             cells))))


# ----------------------------------------------------------------------
# F5 - Figure 5: accuracy vs ARPT size, with/without compiler hints
# ----------------------------------------------------------------------

@dataclass
class Figure5Result(_TableResult):
    # name -> size-key -> (accuracy, accuracy_with_hints); key str(size).
    results: Dict[str, Dict[str, Tuple[float, float]]]
    sizes: Tuple[Optional[int], ...] = FIGURE5_SIZES

    @staticmethod
    def size_key(size: Optional[int]) -> str:
        if size is None:
            return "unlimited"
        if size >= 1024:
            return f"{size // 1024}K"
        return str(size)

    def table(self):
        keys = [self.size_key(s) for s in self.sizes]
        rows = []
        for name, by_size in self.results.items():
            row = [name]
            for key in keys:
                accuracy, hinted = by_size[key]
                row.append(f"{100 * accuracy:.2f}/{100 * hinted:.2f}")
            rows.append(row)
        return (["Benchmark"] + [f"{k} (raw/hints)" for k in keys], rows,
                "Figure 5: 1BIT-HYBRID accuracy vs ARPT size, "
                "without/with compiler hints")


def _figure5_cell(name: str, scale: float,
                  sizes: Tuple[Optional[int], ...])\
        -> Dict[str, Tuple[float, float]]:
    with engine.open_trace(name, scale) as trace:
        hints = hints_from_trace(trace)
        by_size: Dict[str, Tuple[float, float]] = {}
        for size in sizes:
            raw = evaluate_scheme(trace, "1bit-hybrid", table_size=size)
            hinted = evaluate_scheme(trace, "1bit-hybrid",
                                     table_size=size, hints=hints)
            by_size[Figure5Result.size_key(size)] = (raw.accuracy,
                                                     hinted.accuracy)
        return by_size


def figure5(scale: float = 1.0,
            names: Sequence[str] = suite.ALL_WORKLOADS,
            sizes: Tuple[Optional[int], ...] = FIGURE5_SIZES,
            jobs: Optional[int] = None)\
        -> ExperimentResult:
    """F5: 1BIT-HYBRID accuracy vs ARPT capacity, +/- compiler hints."""
    cells = engine.run_cells(_figure5_cell, names, scale, tuple(sizes),
                             jobs=jobs)
    return _result("figure5", Figure5Result(
        results=dict(zip(names, cells)), sizes=sizes))


# ----------------------------------------------------------------------
# S33 - Section 3.3: 4 KB stack-cache hit rate
# ----------------------------------------------------------------------

@dataclass
class Section33Result(_TableResult):
    results: List[StackCacheResult]

    @property
    def average_hit_rate(self) -> float:
        """Access-weighted average (programs with ~no stack traffic
        would otherwise distort the mean with a handful of cold misses).
        """
        accesses = sum(r.stack_accesses for r in self.results)
        hits = sum(r.hits for r in self.results)
        return hits / max(1, accesses)

    def table(self):
        rows = [[r.trace_name, r.stack_accesses,
                 reporting.percent(r.hit_rate, 2)] for r in self.results]
        return (["Benchmark", "Stack refs", "4KB LVC hit rate"], rows,
                "Section 3.3: stack-cache hit rate (paper: >99.5%, "
                "avg ~99.9%)")


def _section33_cell(name: str, scale: float,
                    size_bytes: int) -> StackCacheResult:
    with engine.open_trace(name, scale) as handle:
        trace = handle.materialize()
        return stack_cache_hit_rate(trace, size_bytes)


def section33(scale: float = 1.0,
              names: Sequence[str] = suite.ALL_WORKLOADS,
              size_bytes: int = 4 * 1024,
              jobs: Optional[int] = None) -> ExperimentResult:
    """S33: hit rate of a dedicated stack cache (paper: >99.5%)."""
    return _result("section33", Section33Result(results=engine.run_cells(
        _section33_cell, names, scale, size_bytes, jobs=jobs)))


# ----------------------------------------------------------------------
# F8 - Figure 8: relative performance of (N+M) configurations
# ----------------------------------------------------------------------

@dataclass
class Figure8Result(_TableResult):
    # name -> config name -> TimingResult
    results: Dict[str, Dict[str, TimingResult]]
    baseline: str = "(2+0)"

    def speedup(self, name: str, config: str) -> float:
        base = self.results[name][self.baseline].cycles
        return base / self.results[name][config].cycles

    def average_speedup(self, config: str,
                        names: Optional[Sequence[str]] = None) -> float:
        """Geometric-mean speedup over the baseline configuration."""
        names = names or list(self.results)
        logs = [math.log(self.speedup(n, config)) for n in names]
        return math.exp(sum(logs) / len(logs))

    def table(self):
        configs = list(next(iter(self.results.values())))
        rows = []
        for name in self.results:
            rows.append([name] + [f"{self.speedup(name, c):.3f}"
                                  for c in configs])
        int_names = [n for n in self.results
                     if n in suite.INTEGER_WORKLOADS]
        fp_names = [n for n in self.results if n in suite.FP_WORKLOADS]
        if int_names:
            rows.append(["GEOMEAN-int"] + [
                f"{self.average_speedup(c, int_names):.3f}"
                for c in configs])
        if fp_names:
            rows.append(["GEOMEAN-fp"] + [
                f"{self.average_speedup(c, fp_names):.3f}"
                for c in configs])
        return (["Benchmark"] + configs, rows,
                "Figure 8: performance relative to (2+0)")


def _figure8_cell(name: str, scale: float,
                  configs: Tuple[MachineConfig, ...])\
        -> Dict[str, TimingResult]:
    with engine.open_trace(name, scale) as handle:
        trace = handle.materialize()
        return {cfg.name: simulate(trace, cfg) for cfg in configs}


def figure8(scale: float = suite.TIMING_SCALE,
            names: Sequence[str] = suite.ALL_WORKLOADS,
            configs: Optional[Sequence[MachineConfig]] = None,
            jobs: Optional[int] = None)\
        -> ExperimentResult:
    """F8: cycle-level performance of the (N+M) configurations."""
    configs = tuple(configs) if configs is not None \
        else tuple(figure8_configs())
    cells = engine.run_cells(_figure8_cell, names, scale, configs,
                             jobs=jobs)
    return _result("figure8", Figure8Result(results=dict(zip(names,
                                                             cells))))


# ----------------------------------------------------------------------
# A1 - ablation: 2-bit vs 1-bit ARPT entries (paper footnote 8)
# ----------------------------------------------------------------------

@dataclass
class AblationTwoBitResult(_TableResult):
    accuracies: Dict[str, Tuple[float, float]]   # name -> (1bit, 2bit)

    def table(self):
        rows = [[n, reporting.percent(a, 3), reporting.percent(b, 3),
                 "1bit" if a >= b else "2bit"]
                for n, (a, b) in self.accuracies.items()]
        return (["Benchmark", "1-bit", "2-bit", "winner"], rows,
                "Ablation A1: ARPT hysteresis (paper: 2-bit consistently"
                " lower)")


def _two_bit_cell(name: str, scale: float) -> Tuple[float, float]:
    with engine.open_trace(name, scale) as trace:
        one = evaluate_scheme(trace, "1bit-hybrid")
        two = evaluate_scheme(trace, "2bit-hybrid")
        return one.accuracy, two.accuracy


def ablation_two_bit(scale: float = 1.0,
                     names: Sequence[str] = suite.ALL_WORKLOADS,
                     jobs: Optional[int] = None)\
        -> ExperimentResult:
    """A1: 1-bit vs 2-bit ARPT entries (paper footnote 8)."""
    cells = engine.run_cells(_two_bit_cell, names, scale, jobs=jobs)
    return _result("ablation-2bit", AblationTwoBitResult(
        accuracies=dict(zip(names, cells))))


# ----------------------------------------------------------------------
# A2 - ablation: hybrid context bit split (paper footnote 7)
# ----------------------------------------------------------------------

@dataclass
class AblationContextResult(_TableResult):
    # name -> "gbh/cid" -> accuracy
    accuracies: Dict[str, Dict[str, float]]
    splits: Tuple[Tuple[int, int], ...]

    def table(self):
        keys = [f"{g}g+{c}c" for g, c in self.splits]
        rows = []
        for name, by_split in self.accuracies.items():
            rows.append([name] + [reporting.percent(by_split[k], 3)
                                  for k in keys])
        return (["Benchmark"] + keys, rows,
                "Ablation A2: hybrid context composition (paper uses "
                "8 GBH + 24 CID bits)")


def _context_bits_cell(name: str, scale: float,
                       splits: Tuple[Tuple[int, int], ...])\
        -> Dict[str, float]:
    with engine.open_trace(name, scale) as trace:
        by_split = {}
        for gbh_bits, cid_bits in splits:
            result = evaluate_scheme(trace, "1bit-hybrid",
                                     gbh_bits=gbh_bits,
                                     cid_bits=cid_bits)
            by_split[f"{gbh_bits}g+{cid_bits}c"] = result.accuracy
        return by_split


def ablation_context_bits(scale: float = 1.0,
                          names: Sequence[str] = suite.ALL_WORKLOADS,
                          splits: Tuple[Tuple[int, int], ...] = (
                              (0, 32), (4, 28), (8, 24), (16, 16),
                              (24, 8), (32, 0)),
                          jobs: Optional[int] = None)\
        -> ExperimentResult:
    """A2: GBH/CID bit split of the hybrid context (footnote 7)."""
    cells = engine.run_cells(_context_bits_cell, names, scale, splits,
                             jobs=jobs)
    return _result("ablation-context", AblationContextResult(
        accuracies=dict(zip(names, cells)), splits=splits))


# ----------------------------------------------------------------------
# A8 - extension: ARPT-only vs compiler-assisted steering (Sec. 3.5.2)
# ----------------------------------------------------------------------

@dataclass
class HintSteeringResult(_TableResult):
    # name -> {'arpt': cycles, 'hinted': cycles, 'oracle': cycles,
    #          'arpt_pressure': entries, 'hinted_pressure': entries}
    rows: Dict[str, Dict[str, float]]

    def table(self):
        table_rows = []
        for name, row in self.rows.items():
            table_rows.append([
                name,
                f"{row['arpt'] / row['hinted']:.4f}",
                f"{row['arpt'] / row['oracle']:.4f}",
                int(row["arpt_predictions"]),
                int(row["hinted_predictions"]),
            ])
        return (["Benchmark", "hinted/arpt speedup",
                 "oracle/arpt speedup", "ARPT lookups (hw-only)",
                 "ARPT lookups (hinted)"], table_rows,
                "Extension A8: hardware-only ARPT steering vs "
                "Figure-6 compiler-assisted steering, (3+3) machine "
                "(paper Sec. 3.5.2: dynamic-only loses no noticeable "
                "performance)")


def _hint_steering_cell(name: str, scale: float) -> Dict[str, float]:
    from repro.predictor.static_hints import static_hints
    from repro.timing.config import decoupled_config
    compiled = suite.compile_workload(name, scale)
    hints = static_hints(compiled)
    with engine.open_trace(name, scale) as handle:
        trace = handle.materialize()
        arpt = simulate(trace, decoupled_config(3, 3))
        hinted = simulate(trace, decoupled_config(3, 3), hints=hints)
        oracle = simulate(trace, decoupled_config(3, 3,
                                                  steering="oracle"))
    return {
        "arpt": float(arpt.cycles),
        "hinted": float(hinted.cycles),
        "oracle": float(oracle.cycles),
        "arpt_predictions": float(arpt.arpt_predictions),
        "hinted_predictions": float(hinted.arpt_predictions),
    }


def ablation_hint_steering(scale: float = suite.TIMING_SCALE,
                           names: Sequence[str] = suite.ALL_WORKLOADS,
                           jobs: Optional[int] = None)\
        -> ExperimentResult:
    """A8: does compiler-assisted steering beat the ARPT in cycles?

    Section 3.5.2 concludes the hardware mechanism alone is accurate
    enough that existing binaries run "without losing noticeable
    performance"; this measures that loss directly on the (3+3)
    machine, with oracle steering as the zero-loss bound.
    """
    cells = engine.run_cells(_hint_steering_cell, names, scale, jobs=jobs)
    return _result("ablation-hint-steering", HintSteeringResult(
        rows=dict(zip(names, cells))))


# ----------------------------------------------------------------------
# A7 - extension: perfect vs gshare front end (paper Sec. 4.3 choice)
# ----------------------------------------------------------------------

@dataclass
class FrontEndResult(_TableResult):
    # name -> front_end -> config -> speedup over that front end's (2+0)
    speedups: Dict[str, Dict[str, Dict[str, float]]]
    # name -> front_end -> absolute (2+0) IPC
    baseline_ipc: Dict[str, Dict[str, float]]
    config_names: Tuple[str, ...] = ("(2+0)", "(3+3)", "(16+0)")
    front_ends: Tuple[str, ...] = ("perfect", "gshare")

    def average(self, front_end: str, config: str) -> float:
        logs = [math.log(per_fe[front_end][config])
                for per_fe in self.speedups.values()]
        return math.exp(sum(logs) / len(logs))

    def table(self):
        rows = []
        for name, per_fe in self.speedups.items():
            row = [name]
            for front_end in self.front_ends:
                row.append(f"{self.baseline_ipc[name][front_end]:.2f}")
                row += [f"{per_fe[front_end][c]:.3f}"
                        for c in self.config_names[1:]]
            rows.append(row)
        headers = ["Benchmark"]
        for front_end in self.front_ends:
            headers.append(f"{front_end} ipc(2+0)")
            headers += [f"{front_end} {c}" for c in self.config_names[1:]]
        return (headers, rows,
                "Extension A7: front-end sensitivity - perfect vs "
                "gshare branch prediction (speedups relative to the "
                "same front end's (2+0))")


def _front_end_cell(name: str, scale: float)\
        -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
    from dataclasses import replace as dc_replace

    from repro.timing.config import conventional_config, decoupled_config
    base_configs = {
        "(2+0)": conventional_config(2),
        "(3+3)": decoupled_config(3, 3),
        "(16+0)": conventional_config(16, name="(16+0)"),
    }
    per_fe: Dict[str, Dict[str, float]] = {}
    ipc: Dict[str, float] = {}
    with engine.open_trace(name, scale) as handle:
        trace = handle.materialize()
        for front_end in ("perfect", "gshare"):
            results = {}
            for label, cfg in base_configs.items():
                cfg = dc_replace(cfg, branch_predictor=front_end)
                results[label] = simulate(trace, cfg)
            baseline = results["(2+0)"]
            per_fe[front_end] = {
                label: baseline.cycles / results[label].cycles
                for label in base_configs}
            ipc[front_end] = baseline.ipc
    return per_fe, ipc


def ablation_front_end(scale: float = suite.TIMING_SCALE,
                       names: Sequence[str] = suite.ALL_WORKLOADS,
                       jobs: Optional[int] = None)\
        -> ExperimentResult:
    """The paper runs with perfect branch prediction "to assert the
    maximum pressure on the data memory bandwidth"; this quantifies how
    much a realistic gshare front end compresses the Figure 8 gaps."""
    cells = engine.run_cells(_front_end_cell, names, scale, jobs=jobs)
    return _result("ablation-front-end", FrontEndResult(
        speedups={name: per_fe for name, (per_fe, _) in zip(names, cells)},
        baseline_ipc={name: ipc for name, (_, ipc) in zip(names, cells)}))


# ----------------------------------------------------------------------
# A6 - extension: decouple heap instead of stack (paper Sec. 3.2.2)
# ----------------------------------------------------------------------

@dataclass
class HeapDecouplingResult(_TableResult):
    # name -> {'(2+0)': 1.0, 'stack (2+2)': x, 'heap (2+2)': y}
    speedups: Dict[str, Dict[str, float]]
    config_names: Tuple[str, ...] = ("(2+0)", "stack (2+2)",
                                     "heap (2+2)")

    def average(self, config: str) -> float:
        logs = [math.log(by_cfg[config])
                for by_cfg in self.speedups.values()]
        return math.exp(sum(logs) / len(logs))

    def table(self):
        rows = []
        for name, by_cfg in self.speedups.items():
            rows.append([name] + [f"{by_cfg[c]:.3f}"
                                  for c in self.config_names])
        rows.append(["GEOMEAN"] + [f"{self.average(c):.3f}"
                                   for c in self.config_names])
        return (["Benchmark"] + list(self.config_names), rows,
                "Extension A6: decoupling stack vs decoupling heap "
                "(speedup over (2+0); paper Sec. 3.2.2 predicts heap "
                "decoupling brings little benefit)")


def _heap_decoupling_cell(name: str, scale: float) -> Dict[str, float]:
    from repro.timing.config import conventional_config, decoupled_config
    configs = {
        "(2+0)": conventional_config(2),
        "stack (2+2)": decoupled_config(2, 2, steering="oracle"),
        "heap (2+2)": decoupled_config(2, 2, steering="oracle-heap"),
    }
    with engine.open_trace(name, scale) as handle:
        trace = handle.materialize()
        results = {label: simulate(trace, cfg)
                   for label, cfg in configs.items()}
    baseline = results["(2+0)"].cycles
    return {label: baseline / results[label].cycles for label in configs}


def ablation_heap_decoupling(scale: float = suite.TIMING_SCALE,
                             names: Sequence[str] = suite.ALL_WORKLOADS,
                             jobs: Optional[int] = None)\
        -> ExperimentResult:
    """Tests the paper's Section 3.2.2 conclusion directly: heap
    accesses are bursty and (for FP) rare, so giving *heap* its own
    pipeline should win much less than giving it to the stack."""
    cells = engine.run_cells(_heap_decoupling_cell, names, scale,
                             jobs=jobs)
    return _result("ablation-heap-decoupling", HeapDecouplingResult(
        speedups=dict(zip(names, cells))))


# ----------------------------------------------------------------------
# A5 - extension: ideal multi-porting vs interleaved banks vs decoupling
# ----------------------------------------------------------------------

@dataclass
class BankedResult(_TableResult):
    # name -> config name -> speedup over ported (2+0)
    speedups: Dict[str, Dict[str, float]]
    config_names: Tuple[str, ...]

    def average(self, config: str) -> float:
        logs = [math.log(by_cfg[config])
                for by_cfg in self.speedups.values()]
        return math.exp(sum(logs) / len(logs))

    def table(self):
        rows = []
        for name, by_cfg in self.speedups.items():
            rows.append([name] + [f"{by_cfg[c]:.3f}"
                                  for c in self.config_names])
        rows.append(["GEOMEAN"] + [f"{self.average(c):.3f}"
                                   for c in self.config_names])
        return (["Benchmark"] + list(self.config_names), rows,
                "Extension A5: perfect ports vs interleaved banks vs "
                "decoupling (speedup over ported (2+0))")


def _banked_configs() -> Tuple[MachineConfig, ...]:
    from repro.timing.config import conventional_config, decoupled_config
    return (
        conventional_config(2, name="(2+0)"),
        conventional_config(4, l1_latency=2, name="(4+0) ported"),
        conventional_config(4, l1_latency=2, port_policy="banks",
                            name="(4b+0) banked"),
        decoupled_config(2, 2, name="(2+2)"),
    )


def _banked_cell(name: str, scale: float) -> Dict[str, float]:
    configs = _banked_configs()
    with engine.open_trace(name, scale) as handle:
        trace = handle.materialize()
        results = {cfg.name: simulate(trace, cfg) for cfg in configs}
    baseline = results["(2+0)"].cycles
    return {cfg.name: baseline / results[cfg.name].cycles
            for cfg in configs}


def ablation_banked_cache(scale: float = suite.TIMING_SCALE,
                          names: Sequence[str] = suite.ALL_WORKLOADS,
                          jobs: Optional[int] = None)\
        -> ExperimentResult:
    """The paper assumes perfect multi-porting; a banked cache is the
    cheap alternative it is judged against.  Compares N-ported vs
    N-banked conventional designs against the (N/2 + N/2) decoupled one.
    """
    cells = engine.run_cells(_banked_cell, names, scale, jobs=jobs)
    return _result("ablation-banked", BankedResult(
        speedups=dict(zip(names, cells)),
        config_names=tuple(cfg.name for cfg in _banked_configs())))


# ----------------------------------------------------------------------
# A4 - extension: real Figure-6 compiler hints vs the profile ideal
# ----------------------------------------------------------------------

@dataclass
class StaticHintsRow:
    name: str
    coverage: float          # fraction of static mem insns tagged
    accuracy_none: float     # 8K ARPT, no hints
    accuracy_static: float   # 8K ARPT + Figure-6 compiler hints
    accuracy_ideal: float    # 8K ARPT + profile (upper-bound) hints


@dataclass
class StaticHintsResult(_TableResult):
    rows: List[StaticHintsRow]

    def table(self):
        table_rows = [
            [r.name, reporting.percent(r.coverage, 1),
             reporting.percent(r.accuracy_none, 3),
             reporting.percent(r.accuracy_static, 3),
             reporting.percent(r.accuracy_ideal, 3)]
            for r in self.rows]
        return (["Benchmark", "tag coverage", "no hints (8K)",
                 "Fig-6 hints", "profile hints"], table_rows,
                "Extension A4: real compiler analysis (paper Fig. 6) "
                "vs idealised profile hints, 8K-entry ARPT")


def _static_hints_cell(name: str, scale: float,
                       table_size: int) -> StaticHintsRow:
    from repro.predictor.static_hints import static_hint_stats, \
        static_hints
    compiled = suite.compile_workload(name, scale)
    fig6 = static_hints(compiled)
    stats = static_hint_stats(compiled)
    with engine.open_trace(name, scale) as trace:
        ideal = hints_from_trace(trace)
        return StaticHintsRow(
            name=name,
            coverage=stats.coverage,
            accuracy_none=evaluate_scheme(
                trace, "1bit-hybrid", table_size=table_size).accuracy,
            accuracy_static=evaluate_scheme(
                trace, "1bit-hybrid", table_size=table_size,
                hints=fig6).accuracy,
            accuracy_ideal=evaluate_scheme(
                trace, "1bit-hybrid", table_size=table_size,
                hints=ideal).accuracy,
        )


def ablation_static_hints(scale: float = 1.0,
                          names: Sequence[str] = suite.ALL_WORKLOADS,
                          table_size: int = 8 * 1024,
                          jobs: Optional[int] = None)\
        -> ExperimentResult:
    """A4: real Figure-6 compiler hints vs the profile-ideal hints."""
    return _result("ablation-static-hints", StaticHintsResult(
        rows=engine.run_cells(_static_hints_cell, names, scale,
                              table_size, jobs=jobs)))


# ----------------------------------------------------------------------
# A3 - ablation: LVC size sweep
# ----------------------------------------------------------------------

@dataclass
class AblationLvcResult(_TableResult):
    # name -> size -> hit rate
    hit_rates: Dict[str, Dict[int, float]]
    sizes: Tuple[int, ...]

    def table(self):
        rows = []
        for name, by_size in self.hit_rates.items():
            rows.append([name] + [reporting.percent(by_size[s], 2)
                                  for s in self.sizes])
        return (["Benchmark"] + [f"{s // 1024}KB" for s in self.sizes],
                rows, "Ablation A3: stack-cache hit rate vs LVC size")


def _lvc_size_cell(name: str, scale: float,
                   sizes: Tuple[int, ...]) -> Dict[int, float]:
    with engine.open_trace(name, scale) as handle:
        trace = handle.materialize()
        return {size: stack_cache_hit_rate(trace, size).hit_rate
                for size in sizes}


def ablation_lvc_size(scale: float = 1.0,
                      names: Sequence[str] = suite.ALL_WORKLOADS,
                      sizes: Tuple[int, ...] = (1024, 2048, 4096, 8192,
                                                16384),
                      jobs: Optional[int] = None)\
        -> ExperimentResult:
    """A3: stack-cache hit rate across LVC capacities."""
    cells = engine.run_cells(_lvc_size_cell, names, scale, sizes,
                             jobs=jobs)
    return _result("ablation-lvc-size", AblationLvcResult(
        hit_rates=dict(zip(names, cells)), sizes=sizes))
