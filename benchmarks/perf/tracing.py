"""Benchmark-side spans: kept in memory, written once at exit.

The benchmark measures the program's layers from outside: it opens one
span around each public call it makes (``timing.simulate``,
``trace.load``, ``predictor.replay``, ...), so the program's own span
tracer stays off and the numbers describe the unmodified code.  A span
records its name, start, end, parent and attributes (workload, request
id); the journal written at exit has the line format
``repro.obs.profile.load_run`` reads, so ``repro profile DIR`` renders
it.

Per-layer numbers are *self times*: a span's duration minus the part
of its interval covered by its children.  A span's name starts with
its layer (``trace.load`` belongs to ``trace``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple


class _Span:
    __slots__ = ("_recorder", "record")

    def __init__(self, recorder: "SpanRecorder", record: dict) -> None:
        self._recorder = recorder
        self.record = record

    def set(self, key: str, value) -> None:
        self.record["attrs"][key] = value

    def __enter__(self) -> "_Span":
        self._recorder._push(self.record)
        self.record["start"] = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.record["dur"] = time.monotonic() - self.record["start"]
        if exc_type is not None:
            self.record["attrs"]["error"] = exc_type.__name__
        self._recorder._pop(self.record)


class _NullSpan:
    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class SpanRecorder:
    """In-memory span recorder; ``enabled=False`` makes every span a
    shared no-op, which is how untraced runs keep their timings clean.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, record: dict) -> None:
        stack = self._stack()
        record["parent"] = stack[-1]["id"] if stack else None
        with self._lock:
            self._ids += 1
            record["id"] = f"{self._pid:x}.{self._ids:x}"
        stack.append(record)

    def _pop(self, record: dict) -> None:
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        with self._lock:
            self.spans.append(record)

    def span(self, name: str, **attrs):
        """A context manager timing one call (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, {"name": name, "id": "", "parent": None,
                            "pid": self._pid,
                            "tid": threading.get_ident(),
                            "start": 0.0, "dur": 0.0, "attrs": attrs})

    def write(self, directory: Path, manifest: dict) -> Path:
        """Write ``spans.jsonl`` + ``manifest.json`` under
        ``directory`` (replacing an earlier run's journal)."""
        from repro.obs import manifest as run_manifest
        directory.mkdir(parents=True, exist_ok=True)
        journal = directory / "spans.jsonl"
        ordered = sorted(self.spans, key=lambda s: (s["start"], s["id"]))
        journal.write_text("".join(
            json.dumps(span, sort_keys=True, default=str) + "\n"
            for span in ordered), encoding="utf-8")
        run_manifest.write_manifest(directory, manifest)
        return journal


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Span id -> self time: its duration minus the union of its
    children's intervals clipped to it."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(
                (span["start"], span["start"] + span["dur"]))
    result = {}
    for span in spans:
        lo, hi = span["start"], span["start"] + span["dur"]
        clipped = [(max(lo, a), min(hi, b))
                   for a, b in children.get(span["id"], ()) if b > lo
                   and a < hi]
        result[span["id"]] = max(0.0, span["dur"] - _covered(clipped))
    return result


def descendants(spans: List[dict], roots: List[dict]) -> set:
    """Ids of ``roots`` and every span beneath them."""
    children: Dict[str, List[str]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span["id"])
    found = set()
    queue = [span["id"] for span in roots]
    while queue:
        span_id = queue.pop()
        if span_id in found:
            continue
        found.add(span_id)
        queue.extend(children.get(span_id, ()))
    return found
