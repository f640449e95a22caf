"""Compiler hints for access-region prediction (paper Section 3.5.2).

The paper models an ideal compiler by *profiling*: a static memory
instruction observed to access a single region during execution is
assumed classifiable by compile-time analysis and is tagged stack or
non-stack; instructions that touch several regions are tagged "unknown"
(the compiler cannot decide - e.g. a pointer parameter) and still go
through the ARPT.  Tagged instructions bypass the predictor, which both
raises accuracy and relieves ARPT capacity pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.trace.records import Trace
from repro.trace.regions import single_region_pcs


@dataclass
class CompilerHints:
    """Per-PC stack/non-stack tags for single-region instructions."""

    tags: Dict[int, bool]   # pc -> is_stack; absent = unknown

    def lookup(self, pc: int) -> Optional[bool]:
        """Tag for a PC: True/False, or None when the compiler punts."""
        return self.tags.get(pc)


def hints_from_trace(trace: Trace) -> CompilerHints:
    """Build the idealised (profile-derived) compiler hints for a trace.

    Uses the vectorised per-PC region grouping over the trace's
    columnar view; equivalent to streaming the records through
    :class:`~repro.trace.regions.RegionClassifier` and calling its
    ``single_region_pcs``.
    """
    return CompilerHints(tags=single_region_pcs(trace))


def empty_hints() -> CompilerHints:
    """No compiler information (the paper's hardware-only baseline)."""
    return CompilerHints(tags={})
