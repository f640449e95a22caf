"""Tests for the Figure-2 region classifier."""

from repro.trace.records import (OC_LOAD, OC_STORE, REGION_DATA,
                                 REGION_HEAP, REGION_STACK, Trace,
                                 TraceRecord)
from repro.trace.regions import (MULTI_REGION_CLASSES, REGION_CLASSES,
                                 region_breakdown)

from tests.oracles.scalar import RegionClassifier


def mem(pc, region, load=True):
    return TraceRecord(pc, OC_LOAD if load else OC_STORE, addr=0x10000000,
                       region=region)


def non_mem(pc):
    return TraceRecord(pc, 0)


class TestRegionClassifier:
    def test_single_region_classes(self):
        classifier = RegionClassifier()
        classifier.observe(mem(8, REGION_DATA))
        classifier.observe(mem(16, REGION_HEAP))
        classifier.observe(mem(24, REGION_STACK))
        assert classifier.class_of_pc(8) == "D"
        assert classifier.class_of_pc(16) == "H"
        assert classifier.class_of_pc(24) == "S"

    def test_multi_region_class_accumulates(self):
        classifier = RegionClassifier()
        classifier.observe(mem(8, REGION_DATA))
        classifier.observe(mem(8, REGION_STACK))
        assert classifier.class_of_pc(8) == "D/S"
        classifier.observe(mem(8, REGION_HEAP))
        assert classifier.class_of_pc(8) == "D/H/S"

    def test_non_memory_records_ignored(self):
        classifier = RegionClassifier()
        classifier.observe(non_mem(8))
        assert classifier.breakdown().total_static == 0

    def test_breakdown_counts(self):
        records = [mem(8, REGION_DATA)] * 5 + [mem(16, REGION_STACK)] * 3
        records.append(mem(16, REGION_DATA))
        breakdown = region_breakdown(Trace("t", records))
        assert breakdown.static_counts["D"] == 1
        assert breakdown.static_counts["D/S"] == 1
        assert breakdown.dynamic_counts["D"] == 5
        assert breakdown.dynamic_counts["D/S"] == 4

    def test_fractions_sum_to_one(self):
        records = [mem(8, REGION_DATA), mem(16, REGION_HEAP),
                   mem(24, REGION_STACK), mem(24, REGION_HEAP)]
        breakdown = region_breakdown(Trace("t", records))
        static_total = sum(breakdown.static_fraction(c)
                           for c in REGION_CLASSES)
        dynamic_total = sum(breakdown.dynamic_fraction(c)
                            for c in REGION_CLASSES)
        assert abs(static_total - 1.0) < 1e-12
        assert abs(dynamic_total - 1.0) < 1e-12

    def test_multi_region_fraction(self):
        records = [mem(8, REGION_DATA), mem(8, REGION_STACK),
                   mem(16, REGION_HEAP)]
        breakdown = region_breakdown(Trace("t", records))
        assert abs(breakdown.multi_region_static_fraction - 0.5) < 1e-12

    def test_single_region_pcs_for_hints(self):
        classifier = RegionClassifier()
        classifier.observe(mem(8, REGION_DATA))
        classifier.observe(mem(16, REGION_STACK))
        classifier.observe(mem(24, REGION_DATA))
        classifier.observe(mem(24, REGION_STACK))   # multi -> excluded
        tags = classifier.single_region_pcs()
        assert tags == {8: False, 16: True}

    def test_class_constants_consistent(self):
        assert set(MULTI_REGION_CLASSES) < set(REGION_CLASSES)
        assert len(REGION_CLASSES) == 7
