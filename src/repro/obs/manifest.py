"""Run manifests: what exactly produced a span journal.

A manifest is one small JSON document written next to the span journal
at the start of a traced run, recording everything needed to interpret
or reproduce it: the command and arguments, experiment id, scale,
worker count, seed, git revision, interpreter and platform, the
resolved :class:`repro.config.Config` the run used, and the
wall-clock / monotonic anchors that place the journal's monotonic
timestamps in real time.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Union

from repro import config

#: Version of the manifest document layout.
SCHEMA_VERSION = 1

#: Manifest file name inside a run directory.
FILENAME = "manifest.json"


def git_revision(cwd: Union[str, Path, None] = None) -> Optional[str]:
    """The current git commit SHA, or None outside a repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def build_manifest(run_id: str, command: str,
                   argv: Optional[List[str]] = None,
                   experiment: Optional[str] = None,
                   scale: Optional[float] = None,
                   jobs: Optional[int] = None,
                   seed: Optional[int] = None) -> dict:
    """The manifest document for one run (not yet written)."""
    return {
        "schema": SCHEMA_VERSION,
        "run_id": run_id,
        "command": command,
        "argv": list(argv) if argv is not None else list(sys.argv[1:]),
        "experiment": experiment,
        "scale": scale,
        "jobs": jobs,
        "seed": seed,
        "git_sha": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "started_unix": time.time(),
        "started_monotonic": time.monotonic(),
        "config": config.active().as_dict(),
    }


def write_manifest(directory: Union[str, Path], document: dict) -> Path:
    """Atomically write ``document`` as ``manifest.json`` under
    ``directory``; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / FILENAME
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(document, sort_keys=True, indent=2)
                       + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass
    return path


def update_manifest(directory: Union[str, Path], updates: dict) -> Path:
    """Merge ``updates`` into the manifest under ``directory``.

    Reads the existing document (an empty one when absent or
    unreadable), applies the updates, and rewrites atomically.  The
    serve daemon uses this to stamp its ``incarnation_id`` into the
    manifest the CLI wrote at startup, so ``repro profile --request``
    can attribute journal segments to daemon spawns.
    """
    document = load_manifest(directory) or {}
    document.update(updates)
    return write_manifest(directory, document)


def load_manifest(directory: Union[str, Path]) -> Optional[dict]:
    """The manifest under ``directory``, or None if absent/unreadable."""
    path = Path(directory) / FILENAME
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
