"""Continuous daemon telemetry: a bounded JSONL ring buffer.

One-shot observability (``stats``, ``repro profile``) answers "what
does the daemon look like *now*"; operating a daemon needs "what has
it looked like for the last hour".  :class:`TelemetryRecorder` is a
background thread that snapshots the serving metrics (request/error
counters, latency quantiles, admission window, residency) every
``interval_s`` seconds and appends one JSON line per sample to
``telemetry.jsonl``.

The journal is a *ring buffer on disk*, bounded exactly like span
journals: once the current segment exceeds ``max_bytes`` (default:
the configuration's ``telemetry_max_bytes``, 4 MiB) it rotates to a single
``.old`` segment, so a daemon that runs for months holds roughly two
segments of the newest samples and never fills the disk.

Each stored sample carries the derived per-interval rates (``qps``,
``errors_per_s``) computed from the previous sample's counters, so
consumers read rates directly instead of re-deriving deltas.

The snapshot *source* is a callable so the recorder is decoupled from
the server (tests feed synthetic snapshots); ``repro serve`` wires it
to :meth:`repro.serve.server.ReproServer.telemetry_snapshot`, the
same builder the ``stats --stream`` op pushes to subscribers.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro import config

#: Default seconds between samples.
DEFAULT_INTERVAL_S = 5.0

#: Suffix of the single rotated segment (mirrors span journals).
ROTATED_SUFFIX = ".old"

#: Conventional file name under a run/state directory.
FILENAME = "telemetry.jsonl"


def derive_rates(current: dict, previous: Optional[dict]) -> dict:
    """``current`` plus per-interval rates derived from ``previous``.

    Counter deltas over the wall-clock gap become ``qps`` /
    ``errors_per_s`` / ``shed_per_s``.  Counters that went *backwards*
    (a daemon restart between samples) yield rate 0 rather than a
    negative spike.  The first sample (no ``previous``) carries no
    rates.
    """
    doc = dict(current)
    if not previous:
        return doc
    try:
        dt = float(current["ts"]) - float(previous["ts"])
    except (KeyError, TypeError, ValueError):
        return doc
    if dt <= 0:
        return doc

    def rate(key: str) -> float:
        delta = current.get(key, 0) - previous.get(key, 0)
        return round(max(0.0, delta) / dt, 3)

    doc["qps"] = rate("requests")
    doc["errors_per_s"] = rate("errors")
    doc["shed_per_s"] = rate("shed")
    return doc


class TelemetryRecorder:
    """Sample ``source()`` every ``interval_s`` into a bounded JSONL.

    ``source`` must return a JSON-able dict with at least a ``ts``
    wall-clock field plus whatever counters rates should be derived
    from.  Lifecycle: :meth:`start` spawns the daemon thread,
    :meth:`stop` joins it and (by default) flushes one final sample so
    short-lived daemons still leave a record.  :meth:`sample` is
    public and thread-safe, so the server's shutdown path and tests
    can force samples deterministically.
    """

    def __init__(self, source: Callable[[], dict],
                 path: Union[str, Path],
                 interval_s: float = DEFAULT_INTERVAL_S,
                 max_bytes: Optional[int] = None) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.source = source
        self.path = Path(path)
        self.interval_s = float(interval_s)
        self.max_bytes = max_bytes if max_bytes is not None \
            else config.active().telemetry_max_bytes
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._previous: Optional[dict] = None
        self.samples = 0
        self.write_errors = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "TelemetryRecorder":
        """Start the sampling thread (idempotent)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serve-telemetry",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, final_sample: bool = True) -> None:
        """Stop sampling; by default flush one last sample first."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        if final_sample:
            self.sample()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    # -- sampling / persistence -----------------------------------------

    def sample(self) -> Optional[dict]:
        """Take one sample now; returns the stored document."""
        with self._lock:
            try:
                snapshot = self.source()
            except Exception:
                # A sampling failure must never take the daemon down;
                # it costs one data point, counted.
                self.write_errors += 1
                return None
            doc = derive_rates(snapshot, self._previous)
            self._previous = snapshot
            line = json.dumps(doc, sort_keys=True, default=str)
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
                self._maybe_rotate()
            except OSError:
                self.write_errors += 1
                return doc
            self.samples += 1
            return doc

    def _maybe_rotate(self) -> None:
        """Rotate to ``.old`` once the segment exceeds the bound
        (call with the lock held)."""
        if not self.max_bytes:
            return
        try:
            if os.path.getsize(self.path) <= self.max_bytes:
                return
            os.replace(self.path,
                       self.path.with_name(self.path.name
                                           + ROTATED_SUFFIX))
        except OSError:
            pass


def read_telemetry(path: Union[str, Path]) -> List[Dict]:
    """All samples under ``path``, oldest first, rotation-aware.

    Folds the ``.old`` segment (older samples) before the current one
    and drops malformed lines (a daemon killed mid-write), mirroring
    how the profile reader treats span journals.
    """
    path = Path(path)
    samples: List[Dict] = []
    for segment in (path.with_name(path.name + ROTATED_SUFFIX), path):
        try:
            text = segment.read_text(encoding="utf-8")
        except OSError:
            continue
        for raw in text.splitlines():
            if not raw.strip():
                continue
            try:
                entry = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                samples.append(entry)
    return samples
