"""Generate ``expected.json``, the benchmark's output gate.

Values come from the public experiment functions and the
:class:`repro.api.Session` facade, not from the benchmark's own code
paths, so a benchmark cell that drifts from what the experiments
compute is caught.  Before writing, the same experiments run at the
committed result tables' scales (1.0 for the profiling tables, 0.25
for Figure 8) on the benchmark's programs and each row is compared
with ``benchmarks/results/*.txt`` at its printed precision; any
mismatch aborts without writing.

Run from the repository root (about half a minute)::

    python3 benchmarks/perf/run.py expect
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

from repro import api
from repro import eval as evaluation
from repro.predictor.schemes import ALL_SCHEMES
from repro.timing.config import figure8_configs
from repro.timing.machine import simulate
from repro.trace import cache as trace_cache
from repro.workloads import suite

from benchmarks.perf import measure
from benchmarks.perf.batch import (SCALE, TIMING_WINDOW, TIMING_WORKLOADS,
                                   WORKLOADS, middle_window)

RESULTS = measure.ROOT / "benchmarks" / "results"

#: Committed table -> (experiment call, scale) used for the cross-check.
_CROSS_CHECKS = (
    ("figure2", lambda s: evaluation.figure2(s, WORKLOADS, jobs=1), 1.0),
    ("table2", lambda s: evaluation.table2(s, WORKLOADS, jobs=1), 1.0),
    ("figure4", lambda s: evaluation.figure4(s, WORKLOADS, jobs=1), 1.0),
    ("table3", lambda s: evaluation.table3(s, WORKLOADS, jobs=1), 1.0),
    ("figure5", lambda s: evaluation.figure5(s, WORKLOADS, jobs=1), 1.0),
    ("figure8", lambda s: evaluation.figure8(s, TIMING_WORKLOADS, jobs=1),
     0.25),
)


def _tokens(cells) -> list:
    return " ".join(str(cell) for cell in cells).split()


def cross_check() -> list:
    """Mismatches between the experiments and the committed tables."""
    problems = []
    for table, experiment, scale in _CROSS_CHECKS:
        committed = {}
        for line in (RESULTS / f"{table}.txt").read_text().splitlines():
            tokens = line.split()
            if tokens:
                committed[tokens[0]] = tokens
        for row in experiment(scale).rows:
            if row[0] not in suite.ALL_WORKLOADS:
                continue            # GEOMEAN rows depend on the subset
            if committed.get(row[0]) != _tokens(row):
                problems.append(f"{table} {row[0]}: computed "
                                f"{_tokens(row)} != committed "
                                f"{committed.get(row[0])}")
    return problems


def build() -> dict:
    """Every value the benchmark checks, at the benchmark's sizes."""
    timing = {}
    for name in TIMING_WORKLOADS:
        window = middle_window(suite.run(name, SCALE), TIMING_WINDOW)
        timing[name] = {config.name: asdict(simulate(window, config))
                        for config in figure8_configs()}
    figure2 = evaluation.figure2(SCALE, WORKLOADS, jobs=1).data
    table2 = evaluation.table2(SCALE, WORKLOADS, jobs=1).data
    figure4 = evaluation.figure4(SCALE, WORKLOADS, ALL_SCHEMES,
                                 jobs=1).data
    table3 = evaluation.table3(SCALE, WORKLOADS, jobs=1).data
    figure5 = evaluation.figure5(SCALE, WORKLOADS, jobs=1).data
    replay = {}
    for index, name in enumerate(WORKLOADS):
        breakdown = figure2.breakdowns[index]
        w32, w64 = table2.stats[index]
        replay[name] = {
            "regions": {"static": breakdown.static_counts,
                        "dynamic": breakdown.dynamic_counts},
            "windows": {"32": asdict(w32), "64": asdict(w64)},
            "schemes": {scheme: asdict(result) for scheme, result
                        in figure4.results[name].items()},
            "figure5": {key: list(pair) for key, pair
                        in figure5.results[name].items()},
            "occupancy": table3.occupancy[name],
        }
    session = api.Session(resident=True)
    serve = {"regions": {}, "predict": {}}
    for name in WORKLOADS:
        serve["regions"][name] = session.regions(
            api.RegionsRequest((name,), SCALE)).lines[0]
        serve["predict"][name] = {
            scheme.name: session.predict(api.PredictRequest(
                (name,), SCALE, scheme.name)).lines[0]
            for scheme in ALL_SCHEMES}
    return {"scale": SCALE, "timing_window": TIMING_WINDOW,
            "timing": timing, "replay": replay, "serve": serve}


def main(argv) -> int:
    with measure.scratch_dir("expect-") as tmp:
        trace_cache.configure(tmp)
        try:
            problems = cross_check()
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            expected = build()
        finally:
            trace_cache.reset()
    measure.EXPECTED_PATH.write_text(
        json.dumps(expected, sort_keys=True, indent=1) + "\n",
        encoding="utf-8")
    print(f"wrote {measure.EXPECTED_PATH}", file=sys.stderr)
    return 0
