"""Tests for the out-of-order timing simulator on synthetic traces."""

from dataclasses import replace

import pytest

from repro.timing.config import (MachineConfig, conventional_config,
                                 decoupled_config, figure8_configs)
from repro.timing.machine import simulate
from repro.trace.records import (MODE_GLOBAL, MODE_OTHER, MODE_STACK,
                                 OC_IALU, OC_IMUL, OC_LOAD, OC_STORE,
                                 REGION_DATA, REGION_STACK, Trace,
                                 TraceRecord)
from tests.oracles.timing_machine import simulate as oracle_simulate

DATA = 0x10000000
STACK = 0x7FFF0000


def ialu(dst=-1, src1=-1, src2=-1, value=None):
    return TraceRecord(0x400000, OC_IALU, dst=dst, src1=src1, src2=src2,
                       value=value)


def load(dst, base_reg=8, addr=DATA, region=REGION_DATA,
         mode=MODE_GLOBAL, pc=0x400100, value=None):
    return TraceRecord(pc, OC_LOAD, dst=dst, src1=base_reg, addr=addr,
                       mode=mode, region=region, value=value)


def store(data_reg, base_reg=8, addr=DATA, region=REGION_DATA,
          mode=MODE_GLOBAL, pc=0x400200):
    return TraceRecord(pc, OC_STORE, src1=base_reg, src2=data_reg,
                       addr=addr, mode=mode, region=region)


def no_vp(config):
    return replace(config, value_predict=False)


def base_config(**overrides):
    return replace(conventional_config(2), value_predict=False,
                   **overrides)


class TestCoreDataflow:
    def test_independent_ops_bounded_by_width(self):
        trace = Trace("t", [ialu(dst=0) for _ in range(160)])
        result = simulate(trace, base_config())
        # 16-wide: 160 ops need >= 10 issue cycles (plus pipeline fill).
        assert 10 <= result.cycles <= 20

    def test_dependent_chain_serialises(self):
        records = [ialu(dst=5)]
        records += [ialu(dst=5, src1=5) for _ in range(99)]
        result = simulate(Trace("t", records), base_config())
        assert result.cycles >= 100   # one per chain link

    def test_multiply_latency_on_chain(self):
        records = [TraceRecord(0x400000, OC_IMUL, dst=5, src1=5)
                   for _ in range(20)]
        result = simulate(Trace("t", records), base_config())
        assert result.cycles >= 20 * 6    # imul latency 6

    def test_fu_contention(self):
        # 4 imul/idiv units: 40 independent multiplies need >= 10
        # issue cycles even at infinite width.
        records = [TraceRecord(0x400000, OC_IMUL, dst=0)
                   for _ in range(40)]
        result = simulate(Trace("t", records), base_config())
        assert result.cycles >= 10

    def test_ipc_reported(self):
        trace = Trace("t", [ialu(dst=0) for _ in range(64)])
        result = simulate(trace, base_config())
        assert result.ipc == pytest.approx(64 / result.cycles)


class TestMemorySystem:
    def test_ports_bound_throughput(self):
        # 200 independent loads, same line (all hits after the first):
        # 2 ports -> >= 100 cycles; 16 ports -> much less.
        records = [load(dst=0, addr=DATA) for _ in range(200)]
        two = simulate(Trace("t", records), base_config())
        sixteen = simulate(Trace("t", records),
                           no_vp(conventional_config(16)))
        # The cold miss (~64 cycles) overlaps with issue in both cases
        # (non-blocking cache): 2 ports take ~max(100, 64) cycles, 16
        # ports ~max(13, 64).
        assert two.cycles >= 100
        assert sixteen.cycles <= 90
        assert sixteen.cycles < two.cycles

    def test_load_miss_latency_on_chain(self):
        # A dependent chain of loads to distinct lines: every access
        # goes L1-miss -> L2 (after first L2 fill, still L1 latency +
        # L2).  Just require far slower than hit-chains.
        miss_records = []
        for i in range(20):
            miss_records.append(load(dst=5, base_reg=5,
                                     addr=DATA + i * 4096))
        hit_records = [load(dst=5, base_reg=5, addr=DATA)
                       for _ in range(20)]
        misses = simulate(Trace("t", miss_records), base_config())
        hits = simulate(Trace("t", hit_records), base_config())
        assert misses.cycles > hits.cycles * 2
        assert misses.l1_hit_rate < 0.2
        assert hits.l1_hit_rate > 0.9

    def test_store_to_load_forwarding(self):
        records = []
        for i in range(30):
            addr = DATA + i * 8
            records.append(store(data_reg=0, addr=addr))
            records.append(load(dst=0, addr=addr))
        result = simulate(Trace("t", records), base_config())
        assert result.store_forwards == 30

    def test_forwarding_avoids_ports(self):
        # Forwarded loads skip the cache: with 1 port, pure
        # store+forwarded-load pairs beat store+missing-load pairs.
        paired = []
        for i in range(40):
            addr = DATA + (i % 4) * 8
            paired.append(store(data_reg=0, addr=addr))
            paired.append(load(dst=0, addr=addr))
        result = simulate(Trace("t", paired),
                          base_config(l1_ports=1) if False else
                          no_vp(conventional_config(1)))
        assert result.store_forwards == 40

    def test_conservative_lsq_blocks_on_unknown_store_address(self):
        # A store whose base register is produced by a long multiply
        # chain delays *younger* loads in the LSQ even though they are
        # independent.
        records = [TraceRecord(0x400000, OC_IMUL, dst=9, src1=9)
                   for _ in range(10)]
        records.append(store(data_reg=0, base_reg=9, addr=DATA + 512))
        records += [load(dst=0, addr=DATA + 1024 + i * 8)
                    for i in range(20)]
        blocked = simulate(Trace("t", records), base_config())
        # Same loads without the store in the way.
        free_records = [r for r in records if r.op_class != OC_STORE]
        free = simulate(Trace("t", free_records), base_config())
        assert blocked.cycles > free.cycles


class TestDecoupling:
    def _mixed_trace(self, n=120):
        records = []
        for i in range(n):
            records.append(load(dst=0, addr=DATA + (i % 64) * 8,
                                region=REGION_DATA, mode=MODE_GLOBAL,
                                pc=0x400100))
            records.append(load(dst=0, addr=STACK - (i % 64) * 8,
                                region=REGION_STACK, mode=MODE_STACK,
                                pc=0x400108))
        return Trace("t", records)

    def test_decoupled_beats_conventional_on_mixed_traffic(self):
        trace = self._mixed_trace()
        conventional = simulate(trace, no_vp(conventional_config(2)))
        decoupled = simulate(trace, no_vp(decoupled_config(2, 2)))
        assert decoupled.cycles < conventional.cycles

    def test_oracle_steering_routes_stack_to_lvc(self):
        trace = self._mixed_trace()
        result = simulate(trace,
                          no_vp(decoupled_config(2, 2,
                                                 steering="oracle")))
        assert result.lvc_hit_rate > 0.8   # only cold misses
        assert result.arpt_predictions == 0

    def test_arpt_steering_learns_pointer_loads(self):
        # Pointer-mode (MODE_OTHER) stack loads must reach the LVC via
        # the ARPT after one cold miss each.
        records = [load(dst=0, addr=STACK - (i % 16) * 8,
                        region=REGION_STACK, mode=MODE_OTHER,
                        pc=0x400300)
                   for i in range(300)]
        result = simulate(Trace("t", records),
                          no_vp(decoupled_config(2, 2)))
        assert result.arpt_predictions == 300
        # The in-flight window dispatches a few dozen loads before the
        # first verification trains the table; after that it is exact.
        assert result.arpt_mispredictions <= 80
        assert result.arpt_accuracy > 0.7
        assert result.lvc_hit_rate > 0.0

    def test_mispredicted_ops_are_repaired(self):
        # Alternating regions through one PC defeat the 1-bit entry;
        # every flip must be detected and repaired, never mis-served.
        records = []
        for i in range(60):
            if i % 2:
                records.append(load(dst=0, addr=STACK - 64,
                                    region=REGION_STACK,
                                    mode=MODE_OTHER, pc=0x400300))
            else:
                records.append(load(dst=0, addr=DATA + 64,
                                    region=REGION_DATA,
                                    mode=MODE_OTHER, pc=0x400300))
        config = replace(no_vp(decoupled_config(2, 2)),
                         arpt_context="none")
        result = simulate(Trace("t", records), config)
        assert result.arpt_mispredictions >= 20
        assert result.instructions == 60   # still completes correctly

    def test_lvaq_fast_forwarding(self):
        # Stack store->load pairs forward in the LVAQ.
        records = []
        for i in range(30):
            addr = STACK - (i % 8) * 8
            records.append(store(data_reg=0, addr=addr,
                                 region=REGION_STACK, mode=MODE_STACK))
            records.append(load(dst=0, addr=addr, region=REGION_STACK,
                                mode=MODE_STACK))
        result = simulate(Trace("t", records),
                          no_vp(decoupled_config(2, 2)))
        assert result.store_forwards == 30


class TestIdleCycleSkip:
    """Event-driven idle-cycle skipping trades speed for nothing: every
    TimingResult field of the shipped (always-skipping) machine must
    match the oracle machine walking every cycle."""

    def _assert_same(self, trace, config, hints=None):
        fast = simulate(trace, config, hints=hints)
        slow = oracle_simulate(Trace(trace.name, trace.records), config,
                               hints=hints, idle_skip=False)
        assert fast == slow

    def test_long_memory_stalls(self):
        # A dependent chain of loads to distinct 4 KiB-apart lines:
        # every access misses to L2/memory, leaving long idle gaps
        # the skipper must jump over without changing a single stat.
        records = [load(dst=5, base_reg=5, addr=DATA + i * 4096)
                   for i in range(30)]
        self._assert_same(Trace("t", records), base_config())

    def test_store_fences_and_forwarding(self):
        records = []
        for i in range(40):
            addr = DATA + (i % 4) * 4096
            records.append(store(data_reg=0, addr=addr))
            records.append(load(dst=5, base_reg=5, addr=addr))
        self._assert_same(Trace("t", records), base_config())

    def test_decoupled_mixed_traffic(self):
        records = []
        for i in range(80):
            records.append(load(dst=0, addr=DATA + (i % 64) * 64,
                                region=REGION_DATA, mode=MODE_GLOBAL,
                                pc=0x400100))
            records.append(load(dst=0, addr=STACK - (i % 64) * 8,
                                region=REGION_STACK, mode=MODE_OTHER,
                                pc=0x400108))
        self._assert_same(Trace("t", records),
                          no_vp(decoupled_config(2, 2)))

    def test_value_prediction(self):
        records = [ialu(dst=5, src1=5, value=i) for i in range(120)]
        records += [load(dst=5, base_reg=5, addr=DATA + i * 4096)
                    for i in range(10)]
        self._assert_same(Trace("t", records),
                          replace(conventional_config(2),
                                  value_predict=True))

    def test_figure8_configs(self):
        records = []
        for i in range(50):
            records.append(load(dst=5, base_reg=5,
                                addr=DATA + i * 4096))
            records.append(store(data_reg=5,
                                 addr=STACK - (i % 8) * 8,
                                 region=REGION_STACK, mode=MODE_STACK))
        trace = Trace("t", records)
        for config in figure8_configs()[:4]:
            self._assert_same(trace, config)


class TestValuePrediction:
    def test_stride_chain_accelerated(self):
        # A chained counter with a perfect stride: value prediction
        # breaks the serial dependence.
        records = [ialu(dst=5, src1=5, value=i) for i in range(200)]
        with_vp = simulate(Trace("t", records),
                           replace(conventional_config(2),
                                   value_predict=True))
        without = simulate(Trace("t", records),
                           replace(conventional_config(2),
                                   value_predict=False))
        assert with_vp.vp_bypasses > 150
        assert with_vp.cycles < without.cycles

    def test_random_values_not_predicted(self):
        values = [((i * 2654435761) >> 7) & 0xFFFF for i in range(100)]
        records = [ialu(dst=5, src1=5, value=v) for v in values]
        result = simulate(Trace("t", records),
                          replace(conventional_config(2),
                                  value_predict=True))
        assert result.vp_bypasses < 10


class TestConfigs:
    def test_validation_rules(self):
        with pytest.raises(ValueError):
            MachineConfig(lvc_ports=2, lvaq_size=0,
                          steering="arpt").validate()
        with pytest.raises(ValueError):
            MachineConfig(lvc_ports=2, lvaq_size=96,
                          steering="lsq-only").validate()
        with pytest.raises(ValueError):
            MachineConfig(lvc_ports=0, steering="arpt").validate()

    @pytest.mark.parametrize("fields", [
        dict(l1_ports=0),
        dict(vp_entries=1000),
        dict(branch_predictor="gshare", bpred_entries=3),
        dict(arpt_context="pc"),
        dict(arpt_gbh_bits=-1),
    ])
    def test_component_limits_rejected(self, fields):
        """Limits the cache, predictor and context models enforce are
        checked before any cycle runs, as the oracle's constructors do."""
        config = replace(conventional_config(2), **fields)
        trace = Trace("t", [ialu(dst=0)])
        with pytest.raises(ValueError):
            oracle_simulate(trace, config)
        with pytest.raises(ValueError):
            simulate(trace, config)

    def test_arpt_size_must_be_power_of_two(self):
        config = replace(decoupled_config(2, 2), arpt_size=100)
        trace = Trace("t", [ialu(dst=0)])
        with pytest.raises(ValueError):
            oracle_simulate(trace, config)
        with pytest.raises(ValueError):
            simulate(trace, config)

    def test_figure8_lineup(self):
        names = [c.name for c in figure8_configs()]
        assert names == ["(2+0)", "(3+0) 2cyc", "(3+0) 3cyc", "(4+0)",
                         "(2+2)", "(2+3)", "(3+3)", "(16+0)"]

    def test_paper_charges_4port_cache_extra_latency(self):
        configs = {c.name: c for c in figure8_configs()}
        assert configs["(4+0)"].l1_latency == 3
        assert configs["(2+0)"].l1_latency == 2

    def test_decoupled_queue_split(self):
        config = decoupled_config(3, 3)
        assert config.lsq_size == 96
        assert config.lvaq_size == 96
        assert conventional_config(2).lsq_size == 128

    def test_latency_table_lookup(self):
        config = conventional_config(2)
        assert config.latency_of(OC_IALU) == 1
        assert config.latency_of(OC_IMUL) == 6
        with pytest.raises(KeyError):
            config.latency_of(99)
