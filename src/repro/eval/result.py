"""The uniform result type every experiment driver returns.

Historically each driver returned its own shape (typed dataclasses,
dicts of dicts, tuples); :class:`ExperimentResult` unifies them: one
container carrying the render-ready table (headers + rows + title),
the per-cell metric snapshots collected during the run, and the
original typed payload under ``data``.

The typed payload is reached explicitly - ``figure4(...).data.results``
- with no attribute forwarding: an unknown attribute on
:class:`ExperimentResult` raises ``AttributeError`` like any dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Dict, List

from repro import metrics
from repro.eval import reporting


@dataclass
class ExperimentResult:
    """Uniform container for one experiment run.

    ``rows`` are render-ready cells (consumed directly by
    :func:`repro.eval.reporting.format_table`); the typed
    per-experiment payload lives under ``data``.
    """

    experiment: str                      # driver id, e.g. "figure4"
    title: str                           # paper-style table caption
    headers: List[str]
    rows: List[List[object]]
    #: Per-workload-cell metric snapshots (collection is opt-in; empty
    #: when the metrics registry was disabled during the run).
    metrics: Dict[str, Dict[str, dict]] = field(default_factory=dict)
    #: The legacy typed payload (Table1Result, Figure4Result, ...).
    data: Any = None

    def render(self) -> str:
        """The paper-style text table."""
        return reporting.format_table(self.headers, self.rows,
                                      title=self.title)

    def metric_totals(self) -> Dict[str, dict]:
        """All cells' metrics merged deterministically."""
        return reduce(metrics.merge_snapshots, self.metrics.values(), {})
