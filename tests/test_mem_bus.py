"""Unit tests: memory regions, the system bus and access events."""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BusError
from repro.mem.access import Access, AccessKind
from repro.mem.bus import MemoryBus
from repro.mem.regions import MemoryRegion, MmioRegion, Perm


def make_bus():
    bus = MemoryBus()
    bus.map(MemoryRegion("ram", 0x1000, 0x1000, Perm.RW, "ram"))
    bus.map(MemoryRegion("rom", 0x4000, 0x1000, Perm.RX, "flash"))
    return bus


class TestRegions:
    def test_contains(self):
        region = MemoryRegion("r", 0x100, 0x100)
        assert region.contains(0x100)
        assert region.contains(0x1FF)
        assert region.contains(0x1F0, 0x10)
        assert not region.contains(0x1F0, 0x11)
        assert not region.contains(0xFF)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion("bad", 0, 0)

    def test_fill(self):
        region = MemoryRegion("r", 0, 16, fill=0xAB)
        assert region.read(0, 4) == b"\xab\xab\xab\xab"

    def test_overlap_rejected(self):
        bus = make_bus()
        with pytest.raises(BusError):
            bus.map(MemoryRegion("overlap", 0x1800, 0x1000))

    def test_adjacent_ok(self):
        bus = make_bus()
        bus.map(MemoryRegion("adjacent", 0x2000, 0x1000))
        assert bus.region_named("adjacent").base == 0x2000

    def test_unmap(self):
        bus = make_bus()
        bus.unmap("ram")
        with pytest.raises(BusError):
            bus.region_named("ram")
        with pytest.raises(BusError):
            bus.unmap("ram")


class TestScalarAccess:
    def test_store_load_roundtrip(self):
        bus = make_bus()
        for size, value in ((1, 0xAB), (2, 0xBEEF), (4, 0xDEADBEEF),
                            (8, 0x0123456789ABCDEF)):
            bus.store(0x1100, size, value)
            assert bus.load(0x1100, size) == value

    def test_little_endian(self):
        bus = make_bus()
        bus.store(0x1000, 4, 0x11223344)
        assert bus.load(0x1000, 1) == 0x44
        assert bus.load(0x1003, 1) == 0x11

    def test_value_truncated(self):
        bus = make_bus()
        bus.store(0x1000, 1, 0x1FF)
        assert bus.load(0x1000, 1) == 0xFF

    def test_unmapped_raises(self):
        bus = make_bus()
        with pytest.raises(BusError):
            bus.load(0x9000, 4)
        with pytest.raises(BusError):
            bus.load(0, 4)

    def test_straddling_region_end_raises(self):
        bus = make_bus()
        with pytest.raises(BusError):
            bus.load(0x1FFE, 4)

    def test_write_to_rom_raises(self):
        bus = make_bus()
        with pytest.raises(BusError):
            bus.store(0x4000, 4, 1)

    def test_bad_scalar_size(self):
        bus = make_bus()
        with pytest.raises(BusError):
            bus.load(0x1000, 3)


class TestBulkAccess:
    def test_bytes_roundtrip(self):
        bus = make_bus()
        bus.write_bytes(0x1000, b"hello world")
        assert bus.read_bytes(0x1000, 11) == b"hello world"

    def test_fill(self):
        bus = make_bus()
        bus.fill(0x1000, 8, 0x5A)
        assert bus.read_bytes(0x1000, 8) == b"\x5a" * 8

    def test_copy(self):
        bus = make_bus()
        bus.write_bytes(0x1000, b"abcd")
        bus.copy(0x1200, 0x1000, 4)
        assert bus.read_bytes(0x1200, 4) == b"abcd"

    def test_empty_ops_are_noops(self):
        bus = make_bus()
        bus.write_bytes(0x1000, b"")
        assert bus.read_bytes(0x1000, 0) == b""

    def test_cstring(self):
        bus = make_bus()
        bus.write_bytes(0x1000, b"text\x00junk")
        assert bus.load_cstring(0x1000) == b"text"


class TestObservers:
    def test_observer_sees_accesses(self):
        bus = make_bus()
        seen = []
        bus.add_observer(seen.append)
        bus.store(0x1000, 4, 7, pc=0x42, task=3)
        bus.load(0x1000, 4)
        assert len(seen) == 2
        assert seen[0].is_write and not seen[1].is_write
        assert seen[0].pc == 0x42 and seen[0].task == 3

    def test_observer_ordering_before_effect(self):
        bus = make_bus()
        values = []
        bus.add_observer(
            lambda a: values.append(bus_read(bus, a)) if a.is_write else None
        )

        def bus_read(bus, access):
            with bus.untraced():
                return bus.load(access.addr, 4)

        bus.store(0x1000, 4, 0xAA)
        # the observer ran before the store landed
        assert values == [0]

    def test_untraced_suppresses(self):
        bus = make_bus()
        seen = []
        bus.add_observer(seen.append)
        with bus.untraced():
            bus.store(0x1000, 4, 1)
            with bus.untraced():
                bus.load(0x1000, 4)
        assert seen == []
        bus.load(0x1000, 4)
        assert len(seen) == 1

    def test_remove_observer(self):
        bus = make_bus()
        seen = []
        observer = seen.append
        bus.add_observer(observer)
        bus.remove_observer(observer)
        bus.store(0x1000, 4, 1)
        assert seen == []

    def test_range_kind(self):
        bus = make_bus()
        seen = []
        bus.add_observer(seen.append)
        bus.write_bytes(0x1000, b"xy")
        assert seen[0].kind is AccessKind.RANGE
        assert seen[0].size == 2


class TestUntracedGuard:
    def test_nested_guards_restore_depth(self):
        bus = make_bus()
        with bus.untraced() as outer:
            assert outer is bus
            assert bus._silent_depth == 1
            with bus.untraced() as inner:
                assert inner is bus
                assert bus._silent_depth == 2
            assert bus._silent_depth == 1
        assert bus._silent_depth == 0

    def test_exception_restores_depth(self):
        bus = make_bus()
        with pytest.raises(BusError):
            with bus.untraced():
                with bus.untraced():
                    bus.load(0x9000, 4)
        assert bus._silent_depth == 0
        seen = []
        bus.add_observer(seen.append)
        bus.load(0x1000, 4)
        assert len(seen) == 1

    def test_fault_plan_skips_untraced_load(self):
        class FlipAll:
            def mutate_load(self, addr, size, value):
                return value ^ 1

        bus = make_bus()
        bus.store(0x1000, 4, 0x10)
        bus.fault_plan = FlipAll()
        assert bus.load(0x1000, 4) == 0x11
        with bus.untraced():
            assert bus.load(0x1000, 4) == 0x10


#: every permission combination, not just the named members
ALL_PERMS = [Perm(value) for value in range(8)]


class _LinearScanBus(MemoryBus):
    """Reference bus: a linear scan over the map and IntFlag permissions."""

    def _resolve(self, addr, size, want):
        want = Perm(want)
        for region in self.regions:
            if region.base <= addr < region.base + region.size:
                if addr + size > region.base + region.size:
                    break
                if not region.perm & want:
                    raise BusError(
                        f"permission violation at {addr:#010x}: need "
                        f"{want.name}, region {region.name!r} grants "
                        f"{region.perm!r}",
                        addr=addr,
                    )
                return region
        raise BusError(
            f"unmapped guest access at {addr:#010x} size {size}", addr=addr
        )


def _build(spec, log):
    name, base, size, perm, device = spec
    if not device:
        return MemoryRegion(name, base, size, perm, "ram")
    return MmioRegion(
        name, base, size,
        on_read=lambda off, n: (off * 31 + n) & 0xFFFFFFFF,
        on_write=lambda off, n, value: log.append((name, off, n, value)),
    )


_region_specs = st.lists(
    st.tuples(
        st.integers(0, 15),  # base slot: 0x40 apart, so maps abut or gap
        st.sampled_from([0x20, 0x40, 0x80]),
        st.sampled_from(ALL_PERMS),
        st.integers(0, 4),  # 0 makes a device region
    ),
    min_size=1,
    max_size=6,
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("map"), st.integers(0, 5)),
        st.tuples(st.just("unmap"), st.integers(0, 5)),
        st.tuples(
            st.sampled_from(
                ["load", "store", "read_bytes", "write_bytes", "fetch",
                 "load_silent", "store_silent"]
            ),
            st.integers(0, 5),  # anchor region
            st.booleans(),  # anchor at its base (True) or end (False)
            st.integers(-9, 9),  # offset from the anchor
            st.integers(0, 3),  # size selector
            st.booleans(),  # inside untraced()
        ),
    ),
    max_size=40,
)


class TestCachedResolver:
    """The last-hit resolver against a linear scan, outcome by outcome."""

    @settings(max_examples=200, deadline=None)
    @given(_region_specs, _ops, st.integers(0, 0xFFFFFFFF))
    def test_matches_linear_scan(self, raw_specs, ops, value):
        specs = [
            (f"r{i}", slot * 0x40, size, perm, pick == 0)
            for i, (slot, size, perm, pick) in enumerate(raw_specs)
        ]
        logs = ([], [])
        seen = ([], [])
        buses = (MemoryBus(), _LinearScanBus())
        for bus, log, accesses in zip(buses, logs, seen):
            bus.add_observer(
                lambda a, out=accesses: out.append(
                    (a.addr, a.size, a.is_write, a.kind)
                )
            )
            for spec in specs[::2]:
                try:
                    bus.map(_build(spec, log))
                except BusError:
                    pass

        def run(bus, log, op):
            kind = op[0]
            if kind == "map":
                return bus.map(_build(specs[op[1] % len(specs)], log)).name
            if kind == "unmap":
                # a mapped region, so the cached one is often the victim
                mapped = [region.name for region in bus.regions]
                name = mapped[op[1] % len(mapped)] if mapped else "none"
                return bus.unmap(name)
            _, anchor, at_base, delta, pick, silent = op
            _name, base, size, _perm, _device = specs[anchor % len(specs)]
            addr = max((base if at_base else base + size) + delta, 0)
            scalar = (1, 2, 4, 8)[pick]
            with bus.untraced() if silent else nullcontext():
                if kind == "load":
                    return bus.load(addr, scalar)
                if kind == "store":
                    return bus.store(addr, scalar, value)
                if kind == "read_bytes":
                    return bus.read_bytes(addr, pick * 4)
                if kind == "write_bytes":
                    return bus.write_bytes(addr, bytes(range(pick * 4)))
                if kind == "fetch":
                    return bus.fetch(addr, scalar)
                if kind == "load_silent":
                    return bus.load_silent(addr, min(scalar, 4))
                return bus.store_silent(addr, min(scalar, 4), value)

        for op in ops:
            outcomes = []
            for bus, log in zip(buses, logs):
                try:
                    outcomes.append(("ok", run(bus, log, op)))
                except BusError as exc:
                    outcomes.append(("err", type(exc), str(exc), exc.addr))
            assert outcomes[0] == outcomes[1], op
        assert logs[0] == logs[1]
        assert seen[0] == seen[1]
        fast, ref = (bus.regions for bus in buses)
        assert [r.name for r in fast] == [r.name for r in ref]
        assert [bytes(r.data) for r in fast] == [bytes(r.data) for r in ref]


class TestMmio:
    def test_callbacks(self):
        log = []
        region = MmioRegion(
            "dev", 0x8000, 0x100,
            on_read=lambda off, size: 0x99,
            on_write=lambda off, size, val: log.append((off, val)),
        )
        bus = MemoryBus()
        bus.map(region)
        assert bus.load(0x8000, 4) == 0x99
        bus.store(0x8004, 4, 0x17)
        assert log == [(4, 0x17)]

    def test_fallback_storage(self):
        region = MmioRegion("dev", 0x8000, 0x100)
        bus = MemoryBus()
        bus.map(region)
        bus.store(0x8010, 4, 42)
        assert bus.load(0x8010, 4) == 42


class TestAccess:
    def test_overlap(self):
        a = Access(100, 4, False)
        assert a.overlaps(Access(102, 4, True))
        assert not a.overlaps(Access(104, 4, True))
        assert a.end == 104
