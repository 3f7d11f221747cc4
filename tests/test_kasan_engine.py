"""Unit tests: the KASAN-functionality engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.checkpoint import _report_to_json
from repro.mem.access import Access, AccessKind
from repro.mem.bus import MemoryBus
from repro.mem.regions import MemoryRegion, Perm
from repro.sanitizers.runtime.kasan import HEAP_REDZONE, KasanEngine
from repro.sanitizers.runtime.reports import BugType, ReportSink
from repro.sanitizers.runtime.shadow import GRANULE, ShadowCode, ShadowMemory

BASE = 0x10000


@pytest.fixture
def engine():
    bus = MemoryBus()
    bus.map(MemoryRegion("ram", BASE, 0x10000, Perm.RW, "ram"))
    return KasanEngine(ShadowMemory(bus), ReportSink())


def read(addr, size=4, pc=0x100):
    return Access(addr, size, False, pc=pc, task=1)


def write(addr, size=4, pc=0x100):
    return Access(addr, size, True, pc=pc, task=1)


class TestHeapLifecycle:
    def test_in_bounds_ok(self, engine):
        engine.on_alloc(BASE, 64, cache=1)
        assert engine.check(read(BASE)) is None
        assert engine.check(write(BASE + 60)) is None

    def test_oob_after_object(self, engine):
        engine.on_alloc(BASE, 64, cache=1)
        report = engine.check(read(BASE + 64))
        assert report.bug_type is BugType.SLAB_OOB
        assert report.alloc_pc == 0  # allocated with default pc

    def test_oob_partial_granule(self, engine):
        engine.on_alloc(BASE, 13, cache=1)
        assert engine.check(read(BASE + 12, 1)) is None
        report = engine.check(read(BASE + 13, 1))
        assert report.bug_type is BugType.SLAB_OOB

    def test_uaf(self, engine):
        engine.on_alloc(BASE, 64, cache=1, pc=0x11)
        engine.on_free(BASE, pc=0x22)
        report = engine.check(read(BASE + 8))
        assert report.bug_type is BugType.UAF
        assert report.alloc_pc == 0x11
        assert report.free_pc == 0x22

    def test_double_free(self, engine):
        engine.on_alloc(BASE, 64, cache=1)
        engine.on_free(BASE)
        engine.on_free(BASE)
        assert engine.sink.has(BugType.DOUBLE_FREE)

    def test_invalid_free(self, engine):
        engine.on_free(BASE + 0x100)
        assert engine.sink.has(BugType.INVALID_FREE)

    def test_realloc_clears_poison(self, engine):
        engine.on_alloc(BASE, 64, cache=1)
        engine.on_free(BASE)
        engine.on_alloc(BASE, 32, cache=1)
        assert engine.check(read(BASE)) is None
        assert engine.check(read(BASE + 32)) is not None

    def test_redzone_clamps_at_live_neighbor(self, engine):
        # heap_4-style packing: neighbour starts 8 bytes past the object
        engine.on_alloc(BASE + 72, 24, cache=0)
        engine.on_alloc(BASE, 64, cache=0)  # redzone would reach BASE+80
        assert engine.check(read(BASE + 72)) is None  # neighbour survives
        assert engine.check(read(BASE + 64)) is not None

    def test_page_alloc_no_redzone(self, engine):
        engine.on_alloc(BASE, 4096, cache=0xFFFF)
        assert engine.check(read(BASE + 4096)) is None

    def test_page_free_poisons(self, engine):
        engine.on_alloc(BASE, 4096, cache=0xFFFF)
        engine.on_free(BASE)
        report = engine.check(read(BASE + 100))
        assert report.bug_type is BugType.UAF

    def test_slab_page_poisons_unallocated(self, engine):
        engine.on_slab_page(BASE, 4096)
        report = engine.check(read(BASE + 128))
        assert report.bug_type is BugType.SLAB_OOB
        engine.on_alloc(BASE + 128, 32, cache=2)
        assert engine.check(read(BASE + 128)) is None


class TestCompileTimeObjects:
    def test_global_redzone(self, engine):
        engine.register_global(BASE + 0x100, 26, 32)
        assert engine.check(read(BASE + 0x100, 4)) is None
        report = engine.check(read(BASE + 0x100 + 26, 1))
        assert report.bug_type is BugType.GLOBAL_OOB

    def test_stack_var_redzones(self, engine):
        addr = BASE + 0x200
        engine.stack_var(addr, 16)
        assert engine.check(write(addr)) is None
        assert engine.check(write(addr - 4)).bug_type is BugType.STACK_OOB
        assert engine.check(write(addr + 16)).bug_type is BugType.STACK_OOB

    def test_stack_clear(self, engine):
        addr = BASE + 0x200
        engine.stack_var(addr, 16)
        engine.stack_clear(addr - 64, 128)
        assert engine.check(write(addr + 16)) is None


class TestSuppression:
    def test_suppressed_checks_skipped(self, engine):
        engine.on_alloc(BASE, 16, cache=1)
        engine.suppress_depth = 1
        assert engine.check(read(BASE + 16)) is None
        engine.suppress_depth = 0
        assert engine.check(read(BASE + 16)) is not None

    def test_fetch_not_checked(self, engine):
        engine.on_alloc(BASE, 16, cache=1)
        fetch = Access(BASE + 16, 4, False, kind=AccessKind.FETCH)
        assert engine.check(fetch) is None

    def test_range_check(self, engine):
        engine.on_alloc(BASE, 64, cache=1)
        assert engine.check_range(BASE, 64, True) is None
        assert engine.check_range(BASE, 65, True) is not None

    def test_null_alloc_ignored(self, engine):
        engine.on_alloc(0, 64, cache=1)
        engine.on_free(0)
        assert engine.sink.count() == 0
        assert engine.live_count() == 0


# ----------------------------------------------------------------------
# repeated reports: built once per dedup key per exec scope
# ----------------------------------------------------------------------
def symbolized_engine(panic=False) -> KasanEngine:
    """An engine whose sink symbolizes pcs to 256-byte 'functions'."""
    bus = MemoryBus()
    bus.map(MemoryRegion("ram", BASE, 0x10000, Perm.RW, "ram"))
    sink = ReportSink(panic_on_report=panic,
                      symbolizer=lambda pc: f"fn_{pc >> 8:x}")
    return KasanEngine(ShadowMemory(bus), sink)


class TestRepeatedReports:
    def test_repeat_counts_against_first_report(self):
        engine = symbolized_engine()
        heard = []
        engine.sink.listeners.append(heard.append)
        engine.on_alloc(BASE, 64, cache=1)
        first = engine.check(read(BASE + 64, pc=0x100))
        # another address and another pc of the same function: same key
        again = engine.check(write(BASE + 72, pc=0x1F0))
        assert again is first
        assert (first.addr, first.is_write, first.pc) == (BASE + 64, False,
                                                          0x100)
        assert engine.sink.reports == [first, first]
        assert heard == [first, first]
        assert engine.sink.count() == 2 and engine.sink.unique_count() == 1
        assert engine.checks == 2
        assert engine.shadow.check_ops == 2

    def test_other_key_is_built(self):
        engine = symbolized_engine()
        engine.on_alloc(BASE, 64, cache=1, pc=0x11)
        oob = engine.check(read(BASE + 64, pc=0x100))
        other_fn = engine.check(read(BASE + 64, pc=0x200))
        engine.on_free(BASE, pc=0x22)
        uaf = engine.check(read(BASE + 8, pc=0x100))
        assert len({id(oob), id(other_fn), id(uaf)}) == 3
        assert [r.dedup_key()[1:] for r in engine.sink.reports] == [
            ("slab-out-of-bounds", "fn_1"), ("slab-out-of-bounds", "fn_2"),
            ("use-after-free", "fn_1")]
        assert (uaf.alloc_pc, uaf.free_pc) == (0x11, 0x22)

    def test_new_exec_scope_builds_again(self):
        engine = symbolized_engine()
        engine.on_alloc(BASE, 64, cache=1)
        first = engine.check(read(BASE + 64))
        engine.sink.begin_exec()
        second = engine.check(read(BASE + 68))
        assert second is not first and second.addr == BASE + 68
        assert engine.sink.unique_count() == 1
        assert engine.sink.unique[first.dedup_key()] is first

    def test_panic_builds_every_hit(self):
        from repro.errors import SanitizerViolation

        engine = symbolized_engine(panic=True)
        engine.on_alloc(BASE, 64, cache=1)
        raised = []
        for addr in (BASE + 64, BASE + 68):
            with pytest.raises(SanitizerViolation) as info:
                engine.check(read(addr))
            raised.append(info.value.report)
        assert raised[0] is not raised[1]
        assert [r.addr for r in engine.sink.reports] == [BASE + 64, BASE + 68]


# ----------------------------------------------------------------------
# lazy shadow dump: rendered on read, frozen at report time
# ----------------------------------------------------------------------
def eager_dump(shadow: ShadowMemory, addr: int, rows: int = 2) -> str:
    """Reference renderer: the shadow dump formatted at report time."""
    region = shadow._find(addr)
    if region is None:
        return ""
    granule = (addr - region.base) // GRANULE
    row_of = granule // 16
    lines = ["Memory state around the buggy address:"]
    for row in range(row_of - rows, row_of + rows + 1):
        first = row * 16
        if first < 0 or first >= len(region.bytes):
            continue
        cells = region.bytes[first:first + 16]
        rendered = " ".join(f"{value:02x}" for value in cells)
        marker = ">" if row == row_of else " "
        lines.append(f"{marker}{region.base + first * GRANULE:#010x}: {rendered}")
        if row == row_of:
            column = granule - first
            lines.append(" " * 12 + "   " * column + " ^^")
    return "\n".join(lines)


#: a region whose shadow ends in a partial 16-byte row
ODD_SIZE = 0x1010


def odd_engine() -> KasanEngine:
    bus = MemoryBus()
    bus.map(MemoryRegion("ram", BASE, ODD_SIZE, Perm.RW, "ram"))
    return KasanEngine(ShadowMemory(bus), ReportSink())


class TestLazyShadowDump:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, ODD_SIZE - 1), st.integers(1, 96),
                           st.sampled_from(list(ShadowCode)[1:])),
                 min_size=1, max_size=6),
        st.integers(0, ODD_SIZE - 1),
        st.integers(1, 8),
    )
    def test_render_matches_eager_dump_after_shadow_changes(
            self, poisons, probe, size):
        engine = odd_engine()
        for offset, length, code in poisons:
            engine.shadow.poison(BASE + offset, length, code)
        report = engine.check(read(BASE + probe, size))
        if report is None:
            return
        expected = eager_dump(engine.shadow, report.addr)
        # the shadow moves on before anyone reads the report
        engine.shadow.unpoison(BASE, ODD_SIZE)
        engine.shadow.poison(BASE, ODD_SIZE, ShadowCode.FREED)
        assert report.shadow_dump == expected
        assert str(report).endswith(expected)
        assert _report_to_json(report)["shadow_dump"] == expected

    @pytest.mark.parametrize("offset", [0, 8, 0x80, ODD_SIZE - 8])
    def test_window_clipped_at_table_ends(self, offset):
        engine = odd_engine()
        engine.shadow.poison(BASE, ODD_SIZE, ShadowCode.REDZONE_HEAP)
        report = engine.check(read(BASE + offset))
        assert report.shadow_dump == eager_dump(engine.shadow, BASE + offset)

    def test_dump_around_unchanged(self):
        engine = odd_engine()
        engine.shadow.poison(BASE + 0x800, 24, ShadowCode.FREED)
        for addr in (BASE, BASE + 0x800, BASE + ODD_SIZE - 1, BASE - 8):
            assert engine.shadow.dump_around(addr) == eager_dump(
                engine.shadow, addr)


def linear_object_before(live, addr):
    """The owner lookup as a scan over every live object (reference)."""
    best = None
    best_base = -1
    for base, info in live.items():
        if base + info.size <= addr <= base + info.size + HEAP_REDZONE:
            if base > best_base:
                best, best_base = info, base
    return best


#: bases packed into a few hundred bytes, so objects sit adjacent,
#: overlap (a page allocation over slab objects) and share end addresses
_bases = st.integers(1, 0x180)
_heap_op = st.one_of(
    st.tuples(st.just("alloc"), _bases, st.integers(1, 64),
              st.sampled_from([1, 2, 0xFFFF])),
    st.tuples(st.just("free"), _bases),
    st.tuples(st.just("save")),
    st.tuples(st.just("restore")),
)


class TestObjectBefore:
    """The end-address index finds the owner the linear scan finds."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_heap_op, max_size=40),
           st.lists(st.integers(0, 0x200), min_size=1, max_size=12))
    def test_index_matches_linear_scan(self, ops, probes):
        engine = odd_engine()
        saved = {}
        for op in ops:
            if op[0] == "alloc":
                engine.on_alloc(BASE + op[1], op[2], op[3])
            elif op[0] == "free":
                engine.on_free(BASE + op[1])
            elif op[0] == "save":
                saved = dict(engine.live)
            else:
                # snapshot restore replaces the map wholesale
                engine.live = dict(saved)
            if engine._ends is not None:
                # a live index moves in step with the map it indexes
                assert engine._ends == sorted(
                    (base + info.size, base)
                    for base, info in engine.live.items())
            # probe between ops too, so the index is live while mutating
            probe = BASE + probes[len(ops) % len(probes)]
            assert engine._object_before(probe) == linear_object_before(
                engine.live, probe)
        for offset in probes:
            addr = BASE + offset
            assert engine._object_before(addr) == linear_object_before(
                engine.live, addr)

    def test_largest_base_wins(self, engine):
        # two objects end at the same address: the later-starting owns it
        engine.on_alloc(BASE, 64, cache=1, pc=0x1)
        engine.on_alloc(BASE + 32, 32, cache=1, pc=0x2)
        assert engine._object_before(BASE + 64).alloc_pc == 0x2
        assert engine._object_before(BASE + 64 + HEAP_REDZONE).alloc_pc == 0x2
        assert engine._object_before(BASE + 65 + HEAP_REDZONE) is None
        engine.on_free(BASE + 32)
        assert engine._object_before(BASE + 64).alloc_pc == 0x1
