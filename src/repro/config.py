"""One validated, frozen configuration for the whole reproduction.

Every engine setting is one field of :class:`Config`, and the
``REPRO_*`` variables are parsed here and nowhere else
(:meth:`Config.from_env`): unset or blank keeps the default; a valid
value keeps its documented meaning (``0`` turns off sharding, the cell
timeout, the serve deadline and the byte bounds; ``0`` days clears the
quarantine); a malformed or out-of-domain value falls back to the
default with one ``RuntimeWarning`` naming the variable and the value,
so a typo never silently drops a safety bound.

:func:`active` builds the process-wide config lazily from the
environment; the CLI and :class:`repro.api.Session` apply their flags
with :meth:`Config.replace` and :func:`install` the result once, and
tests scope changes with :func:`override`.  The experiment engine
ships the parent's object to its pool workers, so a worker sees its
parent's settings under any multiprocessing start method.
"""

from __future__ import annotations

import dataclasses
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Tuple


@dataclass(frozen=True)
class RetryPolicy:
    """Engine fault-tolerance knobs (immutable; swap whole policies)."""

    max_retries: int = 2            # re-runs after the first attempt
    backoff_base: float = 0.05      # seconds before the first retry
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    cell_timeout: Optional[float] = None   # None = no timeout
    max_pool_rebuilds: int = 2      # rebuilds before serial fallback

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        delay = self.backoff_base \
            * self.backoff_factor ** max(0, attempt - 1)
        return min(self.backoff_max, delay)


# Value domains: each parser takes an environment string or an
# already-typed value and returns the field value, raising ValueError
# outside the domain.

def _integer(minimum: int) -> Callable[[object], int]:
    def parse(value) -> int:
        if int(value) < minimum:
            raise ValueError(f"expected an integer >= {minimum}")
        return int(value)
    return parse


def _number(value) -> float:
    number = float(value)
    if not math.isfinite(number) or number < 0:
        raise ValueError("expected a finite number >= 0")
    return number


def _seconds_or_off(value) -> Optional[float]:
    return None if value is None else (_number(value) or None)


def _path(value) -> Optional[Path]:
    return Path(value) if value else None


def _text(value) -> Optional[str]:
    return str(value) if value else None


def _fault_spec(value) -> Optional[str]:
    if value:
        from repro.testing.faults import parse_spec
        parse_spec(value)           # SpecError is a ValueError
    return _text(value)


#: ``(variable, field, parser)`` per environment knob; a dotted field
#: lives in the nested :class:`RetryPolicy`.
_KNOBS: Tuple[Tuple[str, str, Callable[[object], object]], ...] = (
    ("REPRO_JOBS", "jobs", _integer(1)),
    ("REPRO_TRACE_CACHE", "trace_cache", _path),
    ("REPRO_TRACE_CACHE_MAX_BYTES", "trace_cache_max_bytes", _integer(0)),
    ("REPRO_SHARD_ROWS", "shard_rows", _integer(0)),
    ("REPRO_CHECKPOINT_MAX_BYTES", "checkpoint_max_bytes", _integer(0)),
    ("REPRO_QUARANTINE_MAX_AGE_DAYS", "quarantine_max_age_days", _number),
    ("REPRO_QUARANTINE_MAX_FILES", "quarantine_max_files", _integer(0)),
    ("REPRO_RETRIES", "retry.max_retries", _integer(0)),
    ("REPRO_RETRY_BACKOFF", "retry.backoff_base", _number),
    ("REPRO_CELL_TIMEOUT", "retry.cell_timeout", _seconds_or_off),
    ("REPRO_POOL_REBUILDS", "retry.max_pool_rebuilds", _integer(0)),
    ("REPRO_INJECT_FAULT", "inject_fault", _fault_spec),
    ("REPRO_TRACE_SPANS", "trace_spans", _path),
    ("REPRO_SPAN_MAX_BYTES", "span_max_bytes", _integer(0)),
    ("REPRO_SPAN_SAMPLE", "span_sample", _integer(1)),
    ("REPRO_INCARNATION_ID", "incarnation_id", _text),
    ("REPRO_SERVE_DEADLINE_MS", "serve_deadline_ms", _number),
    ("REPRO_TELEMETRY_MAX_BYTES", "telemetry_max_bytes", _integer(1)),
)

#: Every environment variable the configuration reads.
ENV_VARS: Tuple[str, ...] = tuple(env for env, _, _ in _KNOBS)

#: Top-level fields with their parsers (``checkpoint`` has no variable).
_FIELDS = [(name, parse) for _, name, parse in _KNOBS
           if "." not in name] + [("checkpoint", _path)]


@dataclass(frozen=True)
class Config:
    """Every engine setting; see the README's Configuration table."""

    jobs: int = 1
    trace_cache: Optional[Path] = None      # None = no trace cache
    trace_cache_max_bytes: int = 0          # 0 = unbounded
    shard_rows: int = 0                     # 0 = monolithic traces
    checkpoint: Optional[Path] = None       # --checkpoint journal
    checkpoint_max_bytes: int = 0           # 0 = unbounded
    quarantine_max_age_days: float = 7.0    # 0 = clear on open
    quarantine_max_files: int = 16
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    inject_fault: Optional[str] = None      # fault-injection plan
    trace_spans: Optional[Path] = None      # span-journal directory
    span_max_bytes: int = 0                 # 0 = unbounded segments
    span_sample: int = 1                    # every Nth shard span
    incarnation_id: Optional[str] = None    # stamped by the supervisor
    serve_deadline_ms: float = 0.0          # 0 = no default deadline
    telemetry_max_bytes: int = 4 << 20

    def __post_init__(self) -> None:
        # Programmatic values obey the environment's domains; a bad
        # one is a caller error, so it raises instead of warning.
        for name, parse in _FIELDS:
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, parse(value))
            except ValueError as exc:
                raise type(exc)(f"invalid {name}={value!r}: {exc}") \
                    from None

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None)\
            -> "Config":
        """The configuration the ``REPRO_*`` variables in ``environ``
        (default: this process's environment) describe."""
        environ = os.environ if environ is None else environ
        top: dict = {}
        retry: dict = {}
        for env, name, parse in _KNOBS:
            raw = environ.get(env)
            if raw is None or not raw.strip():
                continue
            group, _, leaf = name.rpartition(".")
            try:
                (retry if group else top)[leaf] = parse(raw)
            except ValueError as exc:
                default = getattr(RetryPolicy() if group else cls(), leaf)
                warnings.warn(f"ignoring invalid {env}={raw!r} ({exc}); "
                              f"using the default {default!r}",
                              RuntimeWarning, stacklevel=2)
        return cls(retry=RetryPolicy(**retry), **top)

    def replace(self, **fields) -> "Config":
        """A copy with ``fields`` changed (validated like the rest)."""
        return dataclasses.replace(self, **fields)

    def as_dict(self) -> dict:
        """A JSON-ready view (paths as strings)."""
        return {key: str(value) if isinstance(value, Path) else value
                for key, value in dataclasses.asdict(self).items()}


_active: Optional[Config] = None


def active() -> Config:
    """The installed configuration, else one built from the
    environment on first use."""
    global _active
    if _active is None:
        _active = Config.from_env()
    return _active


def install(cfg: Optional[Config]) -> Optional[Config]:
    """Make ``cfg`` the process-wide configuration; ``None`` forgets
    it, so the next :func:`active` re-reads the environment."""
    global _active
    _active = cfg
    return cfg


@contextmanager
def override(**fields) -> Iterator[Config]:
    """Install ``active().replace(**fields)`` for the block, then
    restore whatever was installed before."""
    global _active
    previous = _active
    try:
        yield install(active().replace(**fields))
    finally:
        _active = previous
