"""Garbage collection for quarantined files.

Both the trace cache (:mod:`repro.trace.cache`) and the checkpoint
journal (:mod:`repro.eval.checkpoint`) move unreadable entries aside
with a ``.quarantined`` suffix instead of deleting them, so a corrupt
file survives for post-mortem inspection.  Left alone those files
accumulate forever; :func:`collect` bounds them, and both stores run
it every time a cache/journal is opened.

A quarantined file is deleted when it is older than
``quarantine_max_age_days`` (``REPRO_QUARANTINE_MAX_AGE_DAYS``, default
7 days) or ranks beyond the newest ``quarantine_max_files``
(``REPRO_QUARANTINE_MAX_FILES``, default 16) - whichever bound bites
first; both are fields of :class:`repro.config.Config`.  Deletions
are counted by the opening store's stats and surface in the engine's
resilience metrics (``trace.cache.quarantine_gc`` /
``checkpoint.quarantine_gc``).
Setting the age bound to ``0`` clears every quarantined file on open.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Union

from repro import config

#: Suffix shared by every quarantining store in the repo.
SUFFIX = ".quarantined"


def collect(directory: Union[str, Path], suffix: str = SUFFIX,
            max_age_days: Optional[float] = None,
            max_files: Optional[int] = None,
            now: Optional[float] = None) -> int:
    """Delete expired quarantined files under ``directory``.

    Removes every ``*<suffix>`` file older than ``max_age_days`` plus
    any beyond the newest ``max_files``; returns how many were
    deleted.  Bounds default to the active configuration.  Races
    with concurrent collectors (or manual cleanup) are benign: a file
    already gone just isn't counted.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    cfg = config.active()
    if max_age_days is None:
        max_age_days = cfg.quarantine_max_age_days
    if max_files is None:
        max_files = cfg.quarantine_max_files
    if now is None:
        now = time.time()
    entries = []
    for path in directory.iterdir():
        if not path.name.endswith(suffix):
            continue
        try:
            mtime = path.stat().st_mtime
        except OSError:       # raced away already
            continue
        entries.append((mtime, path))
    entries.sort(reverse=True)   # newest first
    cutoff = now - max_age_days * 86400.0
    removed = 0
    for rank, (mtime, path) in enumerate(entries):
        if mtime >= cutoff and rank < max_files:
            continue
        try:
            if path.is_dir():      # quarantined shard-set entries
                import shutil
                shutil.rmtree(path)
            else:
                path.unlink()
        except OSError:
            continue
        removed += 1
    return removed
