"""Small measurement helpers shared by the workload runners."""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: Repository root (the checkout the benchmark runs in).
ROOT = Path(__file__).resolve().parents[2]

#: Everything a run writes lives under here (ignored by git).
OUT_DIR = ROOT / ".perf-out"

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100)."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state), so
    # utime (field 14) and stime (field 15) sit at offsets 11 and 12.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under :data:`OUT_DIR`, removed on exit."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def canonical(value) -> str:
    """The byte-exact comparison form of a JSON-able result."""
    return json.dumps(value, sort_keys=True)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def best_cells(passes: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Each cell's fastest time (seconds) across passes.

    The host's CPU speed drifts by about a third over seconds
    (other tenants), and that noise only ever adds time; the fastest
    of several short samples estimates the uncontended cost steadily,
    where a median moves with the share of slow seconds in the run.
    """
    by_cell: Dict[str, List[float]] = {}
    for latencies in passes:
        for cell, seconds in latencies.items():
            by_cell.setdefault(cell, []).append(seconds)
    return {cell: min(values) for cell, values in by_cell.items()}


def best_pass_seconds(passes: Sequence[Tuple[float, Dict[str, float]]])\
        -> float:
    """A pass assembled from its fastest parts: every cell's fastest
    time plus the fastest remainder (pass time outside the cells)."""
    cells = best_cells(latencies for _, latencies in passes)
    rest = min(duration - sum(latencies.values())
               for duration, latencies in passes)
    return sum(cells.values()) + max(0.0, rest)


def cell_percentiles(passes: Iterable[Dict[str, float]])\
        -> Dict[str, float]:
    """``p50_ms``/``p99_ms`` over cells of each cell's fastest time."""
    best = [seconds * 1000.0 for seconds in best_cells(passes).values()]
    return {"p50_ms": percentile(best, 50),
            "p99_ms": percentile(best, 99)}
