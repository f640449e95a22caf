"""Deterministic fault injection for resilience drills and chaos tests.

A fault *plan* is a ``;``-separated list of directives::

    kind[:param=value[,param=value...]]

with five kinds:

``fail``
    Raise :class:`InjectedFault` inside the matching cell.
``crash``
    Kill the executing *worker process* (``os._exit(137)``) at the
    start of the matching cell.  Crashes never fire in the main
    process, so serial fallback drills survive a directive that keeps
    killing pool workers.
``stall``
    Sleep ``seconds`` inside the matching cell (drives the engine's
    per-cell timeout path).
``corrupt``
    Corrupt the trace-cache file just written for the matching
    workload (``mode`` = ``truncate`` | ``zero`` | ``garbage``).
``serve``
    Serve-layer chaos inside the ``repro serve`` request path.  The
    first bare token names the action (so ``serve:drop`` reads
    naturally); ``op=<name>`` scopes it to one request op:

    * ``serve:drop`` - close the connection without responding (a
      wedged or crashed responder, as seen by the client);
    * ``serve:stall`` - hold the request ``seconds`` before executing
      (drives deadline expiry and slow-worker drills);
    * ``serve:corrupt-response`` - mangle the encoded response bytes
      (the newline framing survives, the JSON body does not);
    * ``serve:oom-evict`` - force-evict every resident trace before
      executing (deterministic LRU-thrash / backpressure drills).

Cell-matching parameters: ``name=<workload>`` and/or ``index=N`` (the
engine's submission index, which travels with the task across process
boundaries), plus ``times=K`` - the directive fires on a cell's first
``K`` *attempts* only, so a retried or re-pooled cell deterministically
recovers without any shared mutable state.  ``corrupt`` instead counts
stores per process (a regenerated entry is written clean once ``times``
stores have been corrupted), and ``serve`` counts matching requests
per process the same way.

Everything is deterministic: triggers key off names, submission
indices, and attempt numbers - never wall-clock or unseeded
randomness (``garbage`` bytes come from ``random.Random(seed)``).

The active plan is the configuration's ``inject_fault`` field (the
CLI's ``--inject-fault SPEC``, else ``REPRO_INJECT_FAULT``); the
experiment engine ships its configuration to pool workers, so drills
behave identically under any start method.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro import config

#: Exit status used by injected worker crashes (mirrors SIGKILL's 137).
CRASH_EXIT_CODE = 137

KINDS = ("fail", "crash", "stall", "corrupt", "serve")
CORRUPT_MODES = ("truncate", "zero", "garbage")
SERVE_MODES = ("drop", "stall", "corrupt-response", "oom-evict")


class InjectedFault(RuntimeError):
    """The exception raised by a ``fail`` directive."""


class SpecError(ValueError):
    """A malformed ``--inject-fault`` specification."""


@dataclass
class Directive:
    """One parsed fault directive."""

    kind: str
    name: Optional[str] = None      # match this workload (None = any)
    index: Optional[int] = None     # match this submission index
    times: int = 1                  # fire on the first K attempts/stores
    seconds: float = 5.0            # stall duration
    mode: Optional[str] = None      # corrupt / serve action mode
    op: Optional[str] = None        # match this serve op (None = any)
    seed: int = 0                   # garbage-byte PRNG seed
    fired: int = 0                  # per-process count (corrupt/serve)

    def matches_cell(self, name: str, index: int, attempt: int) -> bool:
        if self.kind in ("corrupt", "serve"):
            return False
        if self.name is not None and self.name != name:
            return False
        if self.index is not None and self.index != index:
            return False
        return attempt < self.times

    def matches_store(self, name: str) -> bool:
        if self.kind != "corrupt":
            return False
        if self.name is not None and self.name != name:
            return False
        return self.fired < self.times

    def matches_request(self, op: str) -> bool:
        if self.kind != "serve":
            return False
        if self.op is not None and self.op != op:
            return False
        return self.fired < self.times


_INT_PARAMS = ("index", "times", "seed")
_FLOAT_PARAMS = ("seconds",)
_STR_PARAMS = ("name", "mode", "op")


def parse_spec(spec: str) -> List[Directive]:
    """Parse a fault plan; raises :class:`SpecError` with specifics."""
    directives = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, _, params = part.partition(":")
        kind = kind.strip()
        if kind not in KINDS:
            raise SpecError(
                f"unknown fault kind {kind!r} (expected one of "
                f"{', '.join(KINDS)})")
        directive = Directive(kind)
        for item in filter(None, (p.strip() for p in params.split(","))):
            key, sep, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep:
                # ``serve:drop`` reads better than ``serve:mode=drop``:
                # a bare token on a serve directive names its action.
                if kind == "serve" and directive.mode is None:
                    directive.mode = key
                    continue
                raise SpecError(f"fault parameter {item!r} is not "
                                f"key=value")
            if key not in _INT_PARAMS + _FLOAT_PARAMS + _STR_PARAMS:
                raise SpecError(
                    f"unknown fault parameter {key!r} (expected one "
                    f"of {', '.join(_INT_PARAMS + _FLOAT_PARAMS + _STR_PARAMS)})")
            try:
                if key in _INT_PARAMS:
                    setattr(directive, key, int(value))
                elif key in _FLOAT_PARAMS:
                    setattr(directive, key, float(value))
                else:
                    setattr(directive, key, value)
            except ValueError as exc:
                raise SpecError(
                    f"bad value for fault parameter {key}: {value!r}")\
                    from exc
        if kind == "serve":
            if directive.mode not in SERVE_MODES:
                raise SpecError(
                    f"unknown serve fault mode {directive.mode!r} "
                    f"(expected one of {', '.join(SERVE_MODES)})")
        else:
            if directive.mode is None:
                directive.mode = "truncate"
            if directive.mode not in CORRUPT_MODES:
                raise SpecError(
                    f"unknown corrupt mode {directive.mode!r} (expected "
                    f"one of {', '.join(CORRUPT_MODES)})")
        if directive.times < 1:
            raise SpecError("fault parameter times must be >= 1")
        directives.append(directive)
    if not directives:
        raise SpecError("empty fault specification")
    return directives


# -- process-wide active plan -------------------------------------------

_parsed: Optional[Tuple[str, List[Directive]]] = None


def active_spec() -> Optional[str]:
    """The fault spec in effect (``config.active().inject_fault``)."""
    return config.active().inject_fault


def _plan() -> Optional[List[Directive]]:
    global _parsed
    spec = active_spec()
    if not spec:
        return None
    if _parsed is None or _parsed[0] != spec:
        _parsed = (spec, parse_spec(spec))
    return _parsed[1]


def _in_worker_process() -> bool:
    return multiprocessing.parent_process() is not None


def fire_cell(name: str, index: int, attempt: int) -> None:
    """Injection point at the start of every engine cell execution."""
    plan = _plan()
    if not plan:
        return
    for directive in plan:
        if not directive.matches_cell(name, index, attempt):
            continue
        if directive.kind == "stall":
            time.sleep(directive.seconds)
        elif directive.kind == "crash":
            # Only ever kill pool workers: a crash directive must not
            # take down the main process once the engine has degraded
            # to serial execution.
            if _in_worker_process():
                os._exit(CRASH_EXIT_CODE)
        else:
            raise InjectedFault(
                f"injected failure in cell {name!r} "
                f"(index {index}, attempt {attempt})")


def fire_cache_store(name: str, path: Union[str, Path]) -> bool:
    """Injection point after a trace-cache store; True if corrupted."""
    plan = _plan()
    if not plan:
        return False
    corrupted = False
    for directive in plan:
        if directive.matches_store(name):
            directive.fired += 1
            corrupt_file(path, directive.mode, directive.seed)
            corrupted = True
    return corrupted


def fire_serve(op: str) -> List[Directive]:
    """Injection point at the top of every serve request dispatch.

    Returns the matching ``serve`` directives (advancing their
    per-process fire counts) so the server can apply their actions -
    drop the connection, stall, corrupt the response, or force-evict
    resident traces.  An empty list on the fault-free path.
    """
    plan = _plan()
    if not plan:
        return []
    matched = []
    for directive in plan:
        if directive.matches_request(op):
            directive.fired += 1
            matched.append(directive)
    return matched


def corrupt_response(payload: bytes, seed: int = 0) -> bytes:
    """Deterministically mangle one encoded response line.

    The framing newline survives (so the client reads a complete
    line) but the JSON body does not: the head of the line is
    overwritten with seeded bytes from outside the printable-ASCII
    JSON alphabet, guaranteeing a parse failure rather than a
    silently-wrong payload.
    """
    body, newline = (payload[:-1], payload[-1:]) \
        if payload.endswith(b"\n") else (payload, b"")
    rng = random.Random(seed)
    head = bytes(0x80 | rng.getrandbits(7)
                 for _ in range(min(len(body), 16)))
    return head + body[len(head):] + newline


def corrupt_file(path: Union[str, Path], mode: str = "truncate",
                 seed: int = 0) -> None:
    """Deterministically damage a file in place.

    ``truncate`` keeps the first half of the bytes (a partial write),
    ``zero`` empties the file, ``garbage`` overwrites the head with
    seeded pseudo-random bytes (bit rot).
    """
    path = Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[:len(data) // 2])
    elif mode == "zero":
        path.write_bytes(b"")
    elif mode == "garbage":
        rng = random.Random(seed)
        head = bytes(rng.getrandbits(8)
                     for _ in range(min(len(data), 256)))
        path.write_bytes(head + data[len(head):])
    else:
        raise SpecError(f"unknown corrupt mode {mode!r}")
