"""Plain-text table rendering for experiment results.

Every experiment driver returns structured data; these helpers render
them as aligned text tables shaped like the paper's tables and figure
captions, so bench output can be compared against the paper at a glance.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render rows as an aligned monospace table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) if _numeric(c) else c.ljust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def _numeric(text: str) -> bool:
    stripped = text.lstrip("+-").replace(".", "", 1).replace("%", "")
    return stripped.isdigit()


def percent(value: float, digits: int = 2) -> str:
    return f"{100 * value:.{digits}f}%"


def mean_and_std(stats) -> str:
    """Render a WindowStats as the paper's 'mean (std)' cell format."""
    return f"{stats.mean:.2f} ({stats.std:.2f})"


def seconds(value: float) -> str:
    """Render a wall-clock duration with sub-second detail kept legible."""
    if value < 0.01:
        return f"{1000 * value:.1f} ms"
    if value < 60:
        return f"{value:.2f} s"
    return f"{int(value // 60)}m{value % 60:04.1f}s"
