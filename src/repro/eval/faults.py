"""Fault-tolerance policy and accounting for the experiment engine.

The engine treats every cell as retryable: a cell that raises is
re-run with exponential backoff up to a retry budget, a cell that
outlives the per-cell timeout is abandoned and re-run in a fresh pool,
a ``BrokenProcessPool`` triggers an automatic pool rebuild, and once
the rebuild budget is spent the engine degrades to serial in-process
execution for the remaining cells.  This module holds the knobs
(:class:`RetryPolicy`), the failure types, and the per-run counters
(:class:`FaultStats`) the engine exposes through
``engine.resilience_snapshot()``.

The policy is the ``retry`` field of :class:`repro.config.Config`
(``REPRO_RETRIES``, ``REPRO_RETRY_BACKOFF``, ``REPRO_CELL_TIMEOUT``,
``REPRO_POOL_REBUILDS``; see the README's Configuration table).

Backoff is deterministic (no jitter): ``base * 2**(attempt-1)``
capped at :attr:`RetryPolicy.backoff_max`.  Tests monkeypatch
:data:`_sleep` to observe delays without waiting them out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.config import RetryPolicy

#: Injectable sleep so tests can assert backoff without waiting.
_sleep = time.sleep


class CellFailure(RuntimeError):
    """A cell exhausted its retry budget; ``__cause__`` is the last
    underlying exception (None for crashed workers)."""


class CellTimeout(CellFailure):
    """A cell exceeded the per-cell timeout on every attempt."""


@dataclass
class FaultStats:
    """Counters for one driver invocation's recoveries.

    ``retries`` counts re-run cells (whatever the cause), ``timeouts``
    cells abandoned past the per-cell deadline, ``pool_rebuilds``
    pools rebuilt after worker death, ``serial_fallbacks`` degradations
    to in-process execution.
    """

    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0

    def snapshot(self) -> "FaultStats":
        return FaultStats(self.retries, self.timeouts,
                          self.pool_rebuilds, self.serial_fallbacks)

    @property
    def any(self) -> bool:
        return bool(self.retries or self.timeouts or self.pool_rebuilds
                    or self.serial_fallbacks)
