"""Tests for interleaved-bank arbitration: the oracle timing machine's
:class:`BankManager` and the shipped machine's banked L1."""

import pytest

from tests.oracles.hierarchy import BankManager


class TestBankManager:
    def test_distinct_banks_grant_in_parallel(self):
        banks = BankManager(4, line_size=32)
        # Lines 0..3 map to banks 0..3.
        for i in range(4):
            assert banks.try_acquire(0, 0x10000000 + i * 32)

    def test_same_bank_conflicts(self):
        banks = BankManager(4, line_size=32)
        assert banks.try_acquire(0, 0x10000000)
        # Same line (hence same bank) in the same cycle conflicts.
        assert not banks.try_acquire(0, 0x10000000)
        # Four banks apart -> same bank again.
        assert not banks.try_acquire(0, 0x10000000 + 4 * 32)

    def test_conflicts_clear_each_cycle(self):
        banks = BankManager(2, line_size=32)
        assert banks.try_acquire(0, 0x10000000)
        assert not banks.try_acquire(0, 0x10000000)
        assert banks.try_acquire(1, 0x10000000)

    def test_same_line_words_share_bank(self):
        banks = BankManager(8, line_size=32)
        assert banks.try_acquire(0, 0x10000000)
        assert not banks.try_acquire(0, 0x10000018)   # same 32B line

    def test_counters(self):
        banks = BankManager(2, line_size=32)
        banks.try_acquire(0, 0x10000000)
        banks.try_acquire(0, 0x10000000)
        assert banks.grants == 1
        assert banks.conflicts == 1

    def test_available(self):
        banks = BankManager(4, line_size=32)
        assert banks.available(0) == 4
        banks.try_acquire(0, 0x10000000)
        assert banks.available(0) == 3

    def test_available_with_addr_is_exact(self):
        """Regression: the addressless count is only an upper bound - a
        same-bank requester cannot use any of the "free" slots.  The
        address-aware form must answer for that specific requester."""
        banks = BankManager(4, line_size=32)
        addr = 0x10000000
        assert banks.try_acquire(0, addr)
        # Three banks remain free in aggregate...
        assert banks.available(0) == 3
        # ...but none is usable by a same-bank requester.
        assert banks.available(0, addr) == 0
        assert banks.available(0, addr + 4 * 32) == 0    # same bank
        assert banks.available(0, addr + 32) == 1        # next bank
        # A fresh cycle clears the conflict.
        assert banks.available(1, addr) == 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BankManager(0)
        with pytest.raises(ValueError):
            BankManager(4, line_size=33)


class TestBankedTiming:
    def test_banked_never_beats_ported(self):
        from repro.timing.config import conventional_config
        from repro.timing.machine import simulate
        from repro.trace.records import (MODE_GLOBAL, OC_LOAD, REGION_DATA,
                                         Trace, TraceRecord)
        # Pathological case: every access in the same bank.
        records = [TraceRecord(0x400100, OC_LOAD, dst=0, src1=8,
                               addr=0x10000000 + (i % 4) * 4 * 32,
                               mode=MODE_GLOBAL, region=REGION_DATA)
                   for i in range(200)]
        trace = Trace("t", records)
        ported = simulate(trace, conventional_config(4, l1_latency=2))
        banked = simulate(trace, conventional_config(
            4, l1_latency=2, port_policy="banks"))
        assert banked.cycles >= ported.cycles

    def test_bank_spread_traffic_matches_ported(self):
        from repro.timing.config import conventional_config
        from repro.timing.machine import simulate
        from repro.trace.records import (MODE_GLOBAL, OC_LOAD, REGION_DATA,
                                         Trace, TraceRecord)
        # Perfectly interleaved traffic: banking costs (almost) nothing.
        records = [TraceRecord(0x400100, OC_LOAD, dst=0, src1=8,
                               addr=0x10000000 + (i % 4) * 32,
                               mode=MODE_GLOBAL, region=REGION_DATA)
                   for i in range(200)]
        trace = Trace("t", records)
        ported = simulate(trace, conventional_config(4, l1_latency=2))
        banked = simulate(trace, conventional_config(
            4, l1_latency=2, port_policy="banks"))
        assert banked.cycles <= ported.cycles * 1.3

    def test_policy_validation(self):
        from repro.timing.config import MachineConfig
        with pytest.raises(ValueError):
            MachineConfig(l1_port_policy="quantum").validate()
