"""Two-level cache hierarchy and port arbitration, kept as a test oracle.

The data-decoupled design attaches the L1 data cache and the Local
Variable Cache to separate memory pipelines; both miss into a shared L2,
which misses into main memory (paper Table 4: 12-cycle L2, 50-cycle
memory, fully interleaved - so no memory-bank contention is modelled).

These are the component objects the object-per-instruction timing
machine (``tests/oracles/timing_machine.py``) composes.  The shipped
columnar machine counts ports and banks per scheduling scan and sums
the L1/L2/memory latency inline, so only the oracle uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from tests.oracles.cache import Cache


@dataclass
class AccessResult:
    """Outcome of one hierarchy access."""

    latency: int
    l1_hit: bool
    l2_hit: bool = True   # meaningful only when l1_hit is False


class Hierarchy:
    """An L1 (data cache or LVC) backed by a shared L2 and memory."""

    def __init__(self, l1: Cache, l2: Cache, memory_latency: int = 50)\
            -> None:
        self.l1 = l1
        self.l2 = l2
        self.memory_latency = memory_latency

    def access(self, addr: int, is_write: bool = False) -> AccessResult:
        """Reference an address; returns the total access latency."""
        if self.l1.access(addr, is_write):
            return AccessResult(latency=self.l1.config.latency, l1_hit=True)
        if self.l2.access(addr, is_write):
            latency = self.l1.config.latency + self.l2.config.latency
            return AccessResult(latency=latency, l1_hit=False, l2_hit=True)
        latency = (self.l1.config.latency + self.l2.config.latency
                   + self.memory_latency)
        return AccessResult(latency=latency, l1_hit=False, l2_hit=False)


class PortManager:
    """Per-cycle port arbitration for one cache.

    ``ports`` accesses may start per cycle; an acquisition attempt for a
    full cycle fails and the requester retries next cycle (modelling the
    queuing delay the paper's bandwidth experiments measure).

    The address argument to :meth:`try_acquire` is ignored here - a
    true multi-ported cache serves any combination of addresses.  See
    :class:`BankManager` for the interleaved alternative.
    """

    def __init__(self, ports: int) -> None:
        if ports <= 0:
            raise ValueError("a cache needs at least one port")
        self.ports = ports
        self._cycle = -1
        self._used = 0
        self.conflicts = 0
        self.grants = 0

    def try_acquire(self, cycle: int, addr: int = 0) -> bool:
        if cycle != self._cycle:
            self._cycle = cycle
            self._used = 0
        if self._used < self.ports:
            self._used += 1
            self.grants += 1
            return True
        self.conflicts += 1
        return False

    def available(self, cycle: int, addr: Optional[int] = None) -> int:
        """Accesses that can still start this cycle.

        For a true multi-ported cache this is exact for every requester
        regardless of address; ``addr`` is accepted for interface
        parity with :meth:`BankManager.available`.
        """
        if cycle != self._cycle:
            return self.ports
        return self.ports - self._used


class BankManager:
    """Interleaved-bank arbitration (Sohi & Franklin style).

    An N-banked cache is the classic cheap alternative to a true
    N-ported one: N accesses can start per cycle *only if* they fall in
    distinct banks (banks are line-interleaved).  Same-bank accesses in
    one cycle conflict, which is exactly the inefficiency the paper's
    "perfect multi-porting" baseline assumes away - comparing the two
    is the A5 extension experiment.
    """

    def __init__(self, banks: int, line_size: int = 32) -> None:
        if banks <= 0:
            raise ValueError("a cache needs at least one bank")
        if line_size & (line_size - 1):
            raise ValueError("line size must be a power of two")
        self.ports = banks          # interface parity with PortManager
        self._line_shift = line_size.bit_length() - 1
        self._cycle = -1
        self._busy: set = set()
        self.conflicts = 0
        self.grants = 0

    def try_acquire(self, cycle: int, addr: int = 0) -> bool:
        if cycle != self._cycle:
            self._cycle = cycle
            self._busy = set()
        bank = (addr >> self._line_shift) % self.ports
        if bank in self._busy:
            self.conflicts += 1
            return False
        self._busy.add(bank)
        self.grants += 1
        return True

    def available(self, cycle: int, addr: Optional[int] = None) -> int:
        """Accesses that can still start this cycle.

        Without ``addr`` the count is only an *upper bound* across
        requesters: ``ports - len(busy)`` banks are free, but a
        requester whose address maps to an already-busy bank cannot use
        any of them.  Pass the requester's ``addr`` for an exact
        per-requester answer (1 if its bank is free, else 0).  The
        oracle timing machine therefore never gates scheduling on the
        addressless form - it calls ``try_acquire`` per access.
        """
        if cycle != self._cycle:
            return self.ports if addr is None else 1
        if addr is None:
            return self.ports - len(self._busy)
        bank = (addr >> self._line_shift) % self.ports
        return 0 if bank in self._busy else 1
