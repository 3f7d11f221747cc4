"""Unit + property tests: the unified shadow memory."""

import mmap
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.emulator.arch import arch_by_name
from repro.emulator.machine import Machine
from repro.mem.bus import MemoryBus
from repro.mem.regions import MemoryRegion, MmioRegion, Perm
from repro.sanitizers.runtime.shadow import GRANULE, ShadowCode, ShadowMemory

BASE = 0x1000
SIZE = 0x2000


def make_shadow():
    bus = MemoryBus()
    bus.map(MemoryRegion("ram", BASE, SIZE, Perm.RW, "ram"))
    bus.map(MmioRegion("dev", 0x8000, 0x100))
    return ShadowMemory(bus)


class TestBasics:
    def test_default_addressable(self):
        shadow = make_shadow()
        assert shadow.check(BASE, 8) is None
        assert shadow.check(BASE + SIZE - 8, 8) is None

    def test_device_regions_unshadowed(self):
        shadow = make_shadow()
        shadow.poison(0x8000, 0x10, ShadowCode.FREED)
        assert shadow.check(0x8000, 4) is None

    def test_poison_detects(self):
        shadow = make_shadow()
        shadow.poison(BASE + 64, 32, ShadowCode.FREED)
        bad = shadow.check(BASE + 64, 4)
        assert bad == (BASE + 64, int(ShadowCode.FREED))

    def test_unpoison_clears(self):
        shadow = make_shadow()
        shadow.poison(BASE, 64, ShadowCode.REDZONE_HEAP)
        shadow.unpoison(BASE, 64)
        assert shadow.check(BASE, 64) is None

    def test_partial_granule_tail(self):
        shadow = make_shadow()
        # object of 13 bytes: granule 1 has only 5 valid bytes
        shadow.poison(BASE, 64, ShadowCode.FREED)
        shadow.unpoison(BASE, 13)
        assert shadow.check(BASE, 13) is None
        assert shadow.check(BASE + 12, 1) is None
        assert shadow.check(BASE + 13, 1) is not None
        assert shadow.check(BASE + 8, 8) is not None

    def test_partial_prefix_on_poison(self):
        shadow = make_shadow()
        # poison starting mid-granule keeps the object prefix valid
        shadow.poison(BASE + 5, 16, ShadowCode.REDZONE_HEAP)
        assert shadow.check(BASE, 5) is None
        assert shadow.check(BASE + 5, 1) is not None

    def test_access_spanning_boundary(self):
        shadow = make_shadow()
        shadow.poison(BASE + 8, 8, ShadowCode.REDZONE_GLOBAL)
        bad = shadow.check(BASE + 4, 8)
        assert bad is not None
        assert bad[0] == BASE + 8

    def test_zero_size_noops(self):
        shadow = make_shadow()
        shadow.poison(BASE, 0, ShadowCode.FREED)
        shadow.unpoison(BASE, 0)
        assert shadow.check(BASE, 0) is None

    def test_code_at(self):
        shadow = make_shadow()
        shadow.poison(BASE + 16, 8, ShadowCode.REDZONE_STACK)
        assert shadow.code_at(BASE + 16) == int(ShadowCode.REDZONE_STACK)
        assert shadow.code_at(BASE) == 0

    def test_partial_violation_classified_by_next_granule(self):
        shadow = make_shadow()
        shadow.poison(BASE, 64, ShadowCode.UNALLOCATED)
        shadow.unpoison(BASE, 12)
        bad = shadow.check(BASE + 8, 8)
        assert bad[1] == int(ShadowCode.UNALLOCATED)

    def test_poisoned_bytes_counter(self):
        shadow = make_shadow()
        assert shadow.poisoned_bytes() == 0
        shadow.poison(BASE, 80, ShadowCode.FREED)
        assert shadow.poisoned_bytes() == 10


class TestLargeTables:
    """Big zero tables are anonymous mmaps, not memset bytearrays."""

    def test_x86_machine_shadow_allocates_no_heap_table(self):
        bus = Machine(arch_by_name("x86")).bus
        tracemalloc.start()
        try:
            shadow = ShadowMemory(bus)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 137 MiB of x86 RAM would be a 17 MiB bytearray shadow
        assert peak < 1 << 20
        assert any(isinstance(s.bytes, mmap.mmap) for s in shadow._shadows)

    def test_mmap_table_counts_and_restores(self):
        bus = MemoryBus()
        base = 0x1000_0000
        bus.map(MemoryRegion("dram", base, 16 << 20, Perm.RW, "ram"))
        shadow = ShadowMemory(bus)
        assert isinstance(shadow._shadows[0].bytes, mmap.mmap)
        assert shadow.poisoned_bytes() == 0
        shadow.begin_golden()
        shadow.poison(base + 0x40, 80, ShadowCode.FREED)
        shadow.poison(base + (8 << 20), 16, ShadowCode.REDZONE_HEAP)
        assert shadow.poisoned_bytes() == 12
        assert shadow.check(base + 0x48, 1) == (base + 0x48, 0xFF)
        shadow.restore_golden()
        assert shadow.poisoned_bytes() == 0
        # the golden pages serve every later session
        shadow.poison(base + 0x40, 80, ShadowCode.FREED)
        assert shadow.poisoned_bytes() == 10
        shadow.restore_golden()
        assert shadow.poisoned_bytes() == 0


aligned_offsets = st.integers(0, (SIZE - 256) // GRANULE).map(
    lambda g: g * GRANULE
)
sizes = st.integers(1, 128)


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(offset=aligned_offsets, size=sizes)
    def test_alloc_shape_roundtrip(self, offset, size):
        """unpoison(size) over poison leaves exactly [0, size) valid."""
        shadow = make_shadow()
        addr = BASE + offset
        shadow.poison(addr, 256, ShadowCode.UNALLOCATED)
        shadow.unpoison(addr, size)
        assert shadow.check(addr, size) is None
        assert shadow.check(addr + size, 1) is not None

    @settings(max_examples=100, deadline=None)
    @given(
        offset=aligned_offsets,
        size=sizes,
        probe=st.integers(0, 255),
        probe_size=st.sampled_from([1, 2, 4, 8]),
    )
    def test_check_agrees_with_byte_model(self, offset, size, probe, probe_size):
        """check() must match a naive per-byte validity model."""
        shadow = make_shadow()
        addr = BASE + offset
        shadow.poison(addr, 256, ShadowCode.FREED)
        shadow.unpoison(addr, size)
        start = addr + probe
        valid = all(
            addr <= byte < addr + size or byte >= addr + 256
            for byte in range(start, start + probe_size)
        )
        verdict = shadow.check(start, probe_size)
        assert (verdict is None) == valid

    @settings(max_examples=60, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(aligned_offsets, st.integers(1, 64)), min_size=1,
            max_size=6,
        )
    )
    def test_unpoison_everything_restores(self, spans):
        shadow = make_shadow()
        for offset, size in spans:
            shadow.poison(BASE + offset, size, ShadowCode.REDZONE_HEAP)
        for offset, size in spans:
            shadow.unpoison(BASE + offset,
                            (size + GRANULE - 1) // GRANULE * GRANULE)
        assert shadow.poisoned_bytes() == 0
