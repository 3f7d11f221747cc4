"""Unit tests: cost model and benchmark workloads."""

import pytest

from repro.bench.costmodel import (
    DEFAULT_COSTS,
    TCG_EXPANSION,
    OverheadLedger,
    centi,
)
from repro.bench.workload import merged_corpus, replay
from repro.firmware.instrument import InstrumentationMode
from repro.firmware.registry import build_firmware

#: every figure2() row as (firmware, sanitizer, deployment) ->
#: (guest_cycles, overhead in centi-cycles); recorded from the float
#: accounting the integer ledger replaced, which it must reproduce
FIGURE2_GOLDEN = {
    ("OpenWRT-armvirt", "kasan", "embsan-c"): (5905, 775025),
    ("OpenWRT-armvirt", "kasan", "native"): (5905, 831015),
    ("OpenWRT-armvirt", "kcsan", "embsan-c"): (5905, 2587280),
    ("OpenWRT-armvirt", "kcsan", "native"): (5905, 2619060),
    ("OpenWRT-bcm63xx", "kasan", "embsan-d"): (6877, 1240680),
    ("OpenWRT-bcm63xx", "kasan", "native"): (6877, 1117935),
    ("OpenWRT-bcm63xx", "kcsan", "embsan-d"): (6877, 3269760),
    ("OpenWRT-bcm63xx", "kcsan", "native"): (6877, 3571740),
    ("OpenWRT-ipq807x", "kasan", "embsan-c"): (6605, 912050),
    ("OpenWRT-ipq807x", "kasan", "native"): (6605, 993070),
    ("OpenWRT-ipq807x", "kcsan", "embsan-c"): (6605, 3026040),
    ("OpenWRT-ipq807x", "kcsan", "native"): (6605, 3052080),
    ("OpenWRT-mt7629", "kasan", "embsan-c"): (5921, 789975),
    ("OpenWRT-mt7629", "kasan", "native"): (5921, 847345),
    ("OpenWRT-mt7629", "kcsan", "embsan-c"): (5921, 2640640),
    ("OpenWRT-mt7629", "kcsan", "native"): (5921, 2673180),
    ("OpenWRT-rtl839x", "kasan", "embsan-d"): (6570, 1051620),
    ("OpenWRT-rtl839x", "kasan", "native"): (6570, 948280),
    ("OpenWRT-rtl839x", "kcsan", "embsan-d"): (6570, 2644660),
    ("OpenWRT-rtl839x", "kcsan", "native"): (6570, 2884320),
    ("OpenWRT-x86_64", "kasan", "embsan-c"): (6258, 845475),
    ("OpenWRT-x86_64", "kasan", "native"): (6258, 927045),
    ("OpenWRT-x86_64", "kcsan", "embsan-c"): (6258, 2797640),
    ("OpenWRT-x86_64", "kcsan", "native"): (6258, 2817780),
    ("OpenHarmony-rk3566", "kasan", "embsan-c"): (4512, 608975),
    ("OpenHarmony-rk3566", "kasan", "native"): (4512, 652425),
    ("OpenHarmony-rk3566", "kcsan", "embsan-c"): (4512, 2012600),
    ("OpenHarmony-rk3566", "kcsan", "native"): (4512, 1984500),
    ("OpenHarmony-stm32mp1", "kasan", "embsan-d"): (3154, 692800),
    ("OpenHarmony-stm32f407", "kasan", "embsan-d"): (2705, 530480),
    ("InfiniTime", "kasan", "embsan-d"): (1927, 363960),
    ("TP-Link WDR-7660", "kasan", "embsan-d"): (6647, 1041960),
}


class TestCostModel:
    def test_access_cost_modes(self):
        costs = DEFAULT_COSTS
        for sanitizer in ("kasan", "kcsan"):
            for mode in ("c", "d", "native"):
                assert costs.access_cost(sanitizer, mode) > 0

    def test_unknown_sanitizer(self):
        with pytest.raises(ValueError):
            DEFAULT_COSTS.access_cost("msan", "c")

    def test_range_cost_scales_with_size(self):
        costs = DEFAULT_COSTS
        assert costs.range_centi(256, "d") > costs.range_centi(16, "d")
        assert costs.range_centi(1 << 20, "d") == costs.range_centi(4096, "d")
        # base + per-byte x size, in exact integers
        assert costs.range_centi(100, "d", "kcsan") == 360 + 370 * 100

    def test_native_costs_carry_expansion(self):
        # translated routines pay the TCG expansion factor
        ratio = DEFAULT_COSTS.kasan_native_check / TCG_EXPANSION
        assert ratio == pytest.approx(round(ratio, 4))
        assert DEFAULT_COSTS.kasan_native_alloc / TCG_EXPANSION == 15.0

    def test_paper_cost_ordering(self):
        costs = DEFAULT_COSTS
        # hypercall interception is cheaper than probe reconstruction
        assert costs.kasan_c_trap < costs.kasan_d_intercept
        # KCSAN checks cost several times a KASAN check
        assert costs.access_cost("kcsan", "c") > \
            2 * costs.access_cost("kasan", "c")


class TestLedger:
    def test_default_costs_are_whole_centi_cycles(self):
        for name, cycles in DEFAULT_COSTS._asdict().items():
            value = centi(cycles)
            assert isinstance(value, int), name
            assert value / 100 == cycles, name

    def test_converter_rejects_fractional_centi_cycles(self):
        with pytest.raises(ValueError):
            centi(0.333)

    def test_slots_count_and_totals_are_read(self):
        ledger = OverheadLedger()
        scalar = ledger.slot(interception=3.3, checks=2.7)
        assert ledger.slot(interception=3.3, checks=2.7) == scalar
        variable = ledger.slot(range=0.01)
        ledger.counts[scalar] += 3
        ledger.counts[variable] += 9360
        assert ledger.total() == 3 * 600 + 9360
        assert ledger.total("interception") == 990
        saved = ledger.save()
        late = ledger.slot(watchdog=1)
        ledger.counts[late] += 5
        ledger.load(saved)
        assert ledger.counts == saved + [0]
        ledger.reset()
        assert ledger.total() == 0


class TestFigure2Golden:
    def test_figure2_rows_match_recorded_ledger(self):
        from repro.bench.overhead import figure2

        rows = {
            (row.firmware, row.sanitizer, row.deployment):
                (row.guest_cycles, round(row.overhead_cycles * 100))
            for row in figure2()
        }
        assert rows == FIGURE2_GOLDEN

    @pytest.mark.parametrize("firmware, mode, total", [
        ("OpenWRT-armvirt", InstrumentationMode.EMBSAN_C, 775025),
        ("OpenWRT-bcm63xx", InstrumentationMode.EMBSAN_D, 1240680),
    ])
    def test_breakdown_covers_the_replay_window(self, firmware, mode, total):
        """The §4.3 composition and Figure 2 read one post-boot window."""
        from repro.firmware.builder import attach_runtime

        image = build_firmware(firmware, mode=mode, with_bugs=False,
                               boot=False)
        runtime = attach_runtime(image, sanitizers=("kasan",))
        image.boot()
        counters = replay(image, merged_corpus(firmware))
        assert round(counters["overhead_cycles"] * 100) == total
        assert sum(
            round(cycles * 100) for cycles in runtime.breakdown.values()
        ) == total


class TestWorkload:
    def test_corpus_deterministic_and_cached(self):
        first = merged_corpus("InfiniTime", seed=5)
        second = merged_corpus("InfiniTime", seed=5)
        assert first is second  # cached
        texts = [p.serialize() for p in first]
        assert texts == [p.serialize() for p in merged_corpus("InfiniTime", seed=5)]

    def test_replay_counts_cycles(self):
        corpus = merged_corpus("InfiniTime", seed=5)
        image = build_firmware("InfiniTime", mode=InstrumentationMode.NONE,
                               with_bugs=False)
        counters = replay(image, corpus)
        assert counters["guest_cycles"] > 0
        assert counters["overhead_cycles"] == 0  # bare build
        assert counters["total_cycles"] == counters["guest_cycles"]

    def test_identical_guest_work_across_modes(self):
        """The slowdown denominator requirement: guest cycles match."""
        from repro.firmware.builder import attach_runtime

        corpus = merged_corpus("OpenWRT-rtl839x", seed=5)
        bare = build_firmware("OpenWRT-rtl839x",
                              mode=InstrumentationMode.NONE,
                              with_bugs=False)
        bare_counters = replay(bare, corpus)
        sanitized = build_firmware("OpenWRT-rtl839x",
                                   mode=InstrumentationMode.EMBSAN_D,
                                   with_bugs=False, boot=False)
        attach_runtime(sanitized, sanitizers=("kasan",))
        sanitized.boot()
        san_counters = replay(sanitized, corpus)
        assert san_counters["guest_cycles"] == bare_counters["guest_cycles"]
        assert san_counters["overhead_cycles"] > 0
