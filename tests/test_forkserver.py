"""Fork-server execution mode: dirty-page delta restore.

The contract under test is *restore ≡ rebuild*: boot is deterministic,
so rewinding to the golden snapshot must reproduce byte-for-byte what a
fresh build-and-boot produces.  Everything else — census identity
across engines, kill/resume, sharding — follows from that one property,
and each class here attacks it from a different angle.
"""

from __future__ import annotations

import enum
from collections import Counter, OrderedDict, defaultdict, deque
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.emulator.arch import arch_by_name
from repro.emulator.devices import (
    DMA_CTRL,
    DMA_DST,
    DMA_LEN,
    DMA_SRC,
    TIMER_COUNT,
    TIMER_CTRL,
    UART_DATA,
)
from repro.emulator.events import EventKind
from repro.emulator.machine import Machine
from repro.emulator.snapshot import Checkpoint, ForkServer, _walkable
from repro.errors import DmaFault, FuzzerError, SnapshotError
from repro.fuzz.campaign import run_campaign
from repro.fuzz.checkpoint import result_digest
from repro.fuzz.coverage import EmulatorCoverage, KcovCoverage
from repro.fuzz.engine import EXEC_MODES, FuzzTarget
from repro.guest.layout import GlobalVar
from repro.mem.dirty import PAGE_SIZE, DirtySet
from repro.mem.regions import MemoryRegion
from repro.sanitizers.runtime.runtime import (
    AllocFnSpec,
    CommonSanitizerRuntime,
    RuntimeConfig,
)
from repro.sanitizers.runtime.shadow import ShadowCode


_MiB = 1 << 20


def _arm_machine(**sizes):
    """An ARM machine with the named regions resized (sizes in bytes)."""
    arch = arch_by_name("arm")
    arch = arch._replace(memory_map=tuple(
        spec._replace(size=sizes.get(spec.name, spec.size))
        for spec in arch.memory_map
    ))
    return Machine(arch, name="resized-arm")


# ----------------------------------------------------------------------
# dirty-set unit behaviour
# ----------------------------------------------------------------------
class TestDirtySet:
    def test_single_page_mark(self):
        dirty = DirtySet()
        dirty.mark("dram", 100, 4)
        assert dirty.pages("dram") == {0}
        assert dirty.spans("dram") == [(0, PAGE_SIZE)]

    def test_straddling_mark(self):
        dirty = DirtySet()
        dirty.mark("dram", PAGE_SIZE - 2, 4)  # crosses pages 0 -> 1
        assert dirty.pages("dram") == {0, 1}
        assert dirty.spans("dram") == [(0, 2 * PAGE_SIZE)]

    def test_spans_merge_contiguous_runs(self):
        dirty = DirtySet()
        for page in (0, 1, 2, 7, 9, 10):
            dirty.mark("dram", page * PAGE_SIZE, 1)
        assert dirty.spans("dram") == [
            (0, 3 * PAGE_SIZE),
            (7 * PAGE_SIZE, 8 * PAGE_SIZE),
            (9 * PAGE_SIZE, 11 * PAGE_SIZE),
        ]

    def test_clear_forgets_pages(self):
        dirty = DirtySet()
        dirty.mark("sram", 0, 3 * PAGE_SIZE + 1)  # partial 4th page
        assert dirty.pages("sram") == {0, 1, 2, 3}
        assert dirty.page_count() == 4
        dirty.clear()
        assert dirty.page_count() == 0
        assert dirty.spans("sram") == []

    def test_regions_tracked_independently(self):
        dirty = DirtySet()
        dirty.mark("dram", 0, 1)
        dirty.mark("sram", PAGE_SIZE, 1)
        assert sorted(dirty.region_names()) == ["dram", "sram"]
        assert dirty.pages("flash") == set()


# ----------------------------------------------------------------------
# satellite: Checkpoint.rollback flushes TBs only when it must
# ----------------------------------------------------------------------
class TestCheckpointTbInvalidation:
    PROGRAM = """
        movi t0, 0
        movi t1, 4
    loop:
        addi t0, t0, 1
        blt  t0, t1, loop
        call tail
        hlt
    tail:
        movi s0, 7
        ret
    """

    def _machine_with_code(self):
        from repro.isa.assembler import assemble

        machine = Machine(arch_by_name("arm"), name="tb-test")
        flash = machine.arch.region("flash")
        sram = machine.arch.region("sram")
        machine.bus.write_bytes(
            flash.base, assemble(self.PROGRAM, base=flash.base).image)
        engine = machine.add_cpu(pc=flash.base, sp=sram.base + sram.size)
        engine.run()
        assert engine.tb_cache  # the loop translated into cached blocks
        return machine, engine

    def test_data_only_rollback_keeps_every_tb(self):
        machine, engine = self._machine_with_code()
        dram = machine.arch.region("dram")
        flushes = engine.tb_flush_count
        invals = engine.tb_invalidations
        cached = len(engine.tb_cache)

        checkpoint = Checkpoint(machine)
        machine.bus.store(dram.base + dram.size - 64, 4, 0xDEAD)
        checkpoint.rollback()

        assert engine.tb_flush_count == flushes
        assert engine.tb_invalidations == invals
        assert len(engine.tb_cache) == cached

    def test_code_rollback_invalidates_without_full_flush(self):
        machine, engine = self._machine_with_code()
        flushes = engine.tb_flush_count
        invals = engine.tb_invalidations
        cached = len(engine.tb_cache)
        code_addr = min(b.pc for b in engine.tb_cache.values())

        checkpoint = Checkpoint(machine)
        machine.bus.store(code_addr, 4, 0)
        checkpoint.rollback()

        assert engine.tb_flush_count == flushes  # surgical, not a flush
        assert engine.tb_invalidations > invals
        assert 0 < len(engine.tb_cache) < cached

    def test_empty_journal_rollback_is_free(self):
        machine, engine = self._machine_with_code()
        flushes = engine.tb_flush_count
        checkpoint = Checkpoint(machine)
        assert checkpoint.rollback() == 0
        assert engine.tb_flush_count == flushes


# ----------------------------------------------------------------------
# fork server mechanics on a bare machine
# ----------------------------------------------------------------------
class TestForkServerRestore:
    def test_restore_copies_only_dirty_pages(self, machine):
        dram = next(r for r in machine.bus.regions if r.kind == "dram")
        fork = ForkServer(machine)
        machine.bus.write_bytes(dram.base, b"x" * 10)
        machine.bus.store(dram.base + 5 * PAGE_SIZE, 4, 0xBEEF)
        stats = fork.restore()
        assert stats.pages == 2
        assert machine.bus.read_bytes(dram.base, 10) == b"\x00" * 10
        assert machine.bus.load(dram.base + 5 * PAGE_SIZE, 4) == 0

    def test_clean_restore_is_zero_pages(self, machine):
        fork = ForkServer(machine)
        assert fork.restore().pages == 0

    def test_reloaded_device_reads_as_captured(self, machine):
        # one UART byte reloads the UART once; the reload rewinds its
        # epoch, so later clean restores skip every provider
        fork = ForkServer(machine)
        machine.bus.store(machine.uart.base + UART_DATA, 1, ord("x"))
        reloaded = [fork.restore().providers_reloaded for _ in range(4)]
        assert reloaded == [1, 0, 0, 0]
        assert bytes(machine.uart.output) == b""

    def test_dirty_set_cleared_after_restore(self, machine):
        dram = next(r for r in machine.bus.regions if r.kind == "dram")
        fork = ForkServer(machine)
        machine.bus.store(dram.base, 4, 1)
        fork.restore()
        assert fork.restore().pages == 0

    def test_region_mapped_after_capture_raises(self, machine):
        fork = ForkServer(machine)
        machine.bus.map(
            MemoryRegion("late-ram", 0x7000_0000, PAGE_SIZE, kind="sram"))
        with pytest.raises(SnapshotError, match="late-ram"):
            fork.restore()

    def test_region_remapped_after_capture_raises(self, machine):
        sram = machine.bus.region_named("sram")
        machine.bus.write_bytes(sram.base, b"golden!!")
        fork = ForkServer(machine)
        # same name, same size, fresh (zeroed) backing buffer
        machine.bus.unmap("sram")
        machine.bus.map(MemoryRegion(
            "sram", sram.base, sram.size, sram.perm, kind=sram.kind))
        with pytest.raises(SnapshotError, match="sram"):
            fork.restore()

    def test_capture_copies_no_ram(self, machine):
        fork = ForkServer(machine)
        device = sum(
            region.size for region in machine.bus.regions
            if region.kind == "device"
        )
        assert fork.ram_bytes() == device

    def test_golden_bytes_track_pages_written_not_ram_size(self):
        held = {}
        for scale in (1, 2):
            machine = _arm_machine(dram=scale * 64 * _MiB)
            dram = machine.bus.region_named("dram")
            fork = ForkServer(machine)
            captured = fork.ram_bytes()
            for page in range(8):
                machine.bus.store(dram.base + page * PAGE_SIZE, 4, 0xAB)
            written = fork.ram_bytes()
            fork.restore()
            # a page kept once serves every later session
            for page in range(8):
                machine.bus.store(dram.base + page * PAGE_SIZE, 4, 0xCD)
            held[scale] = (captured, written, fork.ram_bytes())
        assert held[2] == held[1]
        captured, written, rewritten = held[1]
        assert written == captured + 8 * PAGE_SIZE
        assert rewritten == written

    def test_checkpoint_rollback_across_capture_restores_golden(self, machine):
        # the journal armed before capture: its rewind is a write the
        # fork server has not seen yet
        dram = machine.bus.region_named("dram")
        checkpoint = Checkpoint(machine)
        machine.bus.write_bytes(dram.base, b"golden!!")
        fork = ForkServer(machine)
        checkpoint.rollback()
        assert machine.bus.read_bytes(dram.base, 8) == b"\x00" * 8
        fork.restore()
        assert machine.bus.read_bytes(dram.base, 8) == b"golden!!"

    def test_restore_cost_tracks_dirty_pages_not_ram_size(self):
        """Doubling RAM must not change the per-restore cost profile."""
        timings = {}
        for scale in (1, 2):
            machine = _arm_machine(dram=scale * 64 * _MiB)
            dram = next(r for r in machine.bus.regions if r.kind == "dram")
            fork = ForkServer(machine)
            fork.restore()  # warm-up: page in the restore path itself
            samples = []
            for _ in range(5):
                for page in range(8):
                    machine.bus.store(dram.base + page * PAGE_SIZE, 4, 0xAB)
                stats = fork.restore()
                assert stats.pages == 8
                samples.append(stats.us)
            timings[scale] = min(samples)
        # identical dirty work on a machine with twice the RAM: the
        # delta restore must stay within noise, nowhere near 2x.  The
        # bound is generous because the absolute times are tens of
        # microseconds, but a full-copy regression (O(RAM)) would blow
        # past it by orders of magnitude.
        assert timings[2] < timings[1] * 10 + 200


# ----------------------------------------------------------------------
# differential restore: every RAM write path against a fresh build
# ----------------------------------------------------------------------
#: small regions keep two builds per example cheap; >= 1 MiB keeps the
#: mmap path
_DIFF_SIZES = dict(dram=2 * _MiB, sram=_MiB, flash=64 << 10)
#: writes land around the first few page boundaries of a region
_offsets = st.builds(
    lambda page, delta: max(page * PAGE_SIZE + delta, 0),
    st.integers(0, 6), st.integers(-24, 24),
)
_region_names = st.sampled_from(["dram", "sram"])
_bulk = st.integers(1, 2 * PAGE_SIZE + 40)
_write_op = st.one_of(
    st.tuples(st.just("store"), _region_names, _offsets,
              st.sampled_from([1, 2, 4, 8]), st.integers(0, 2**64 - 1)),
    st.tuples(st.just("store_silent"), _region_names, _offsets,
              st.sampled_from([1, 2, 4]), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("write_bytes"), _region_names, _offsets,
              st.binary(min_size=1, max_size=96)),
    st.tuples(st.just("fill"), _region_names, _offsets, _bulk,
              st.integers(0, 255)),
    st.tuples(st.just("copy"), _region_names, _offsets, _region_names,
              _offsets, _bulk),
    st.tuples(st.just("dma"), _region_names, _offsets, _region_names,
              _offsets, _bulk),
    st.tuples(st.just("poison"), _region_names, _offsets, _bulk,
              st.sampled_from(list(ShadowCode)[1:])),
    st.tuples(st.just("unpoison"), _region_names, _offsets, _bulk),
)
_op = st.one_of(
    _write_op,
    st.tuples(st.just("rollback"), st.lists(_write_op, max_size=4)),
)


def _apply(machine, runtime, op) -> None:
    bus = machine.bus
    kind = op[0]
    if kind == "rollback":
        checkpoint = Checkpoint(machine)
        for inner in op[1]:
            _apply(machine, runtime, inner)
        checkpoint.rollback()
        return
    region = bus.region_named(op[1])
    addr = region.base + op[2]
    if kind == "store":
        bus.store(addr, op[3], op[4])
    elif kind == "store_silent":
        bus.store_silent(addr, op[3], op[4])
    elif kind == "write_bytes":
        bus.write_bytes(addr, op[3])
    elif kind == "fill":
        bus.fill(addr, op[3], op[4])
    elif kind == "copy":
        bus.copy(bus.region_named(op[3]).base + op[4], addr, op[5])
    elif kind == "dma":
        dma = machine.dma.base
        bus.store(dma + DMA_SRC, 4, addr)
        bus.store(dma + DMA_DST, 4, bus.region_named(op[3]).base + op[4])
        bus.store(dma + DMA_LEN, 4, op[5])
        try:
            bus.store(dma + DMA_CTRL, 4, 1)
        except DmaFault:
            pass  # overlapping windows: refused before any byte moves
    elif kind == "poison":
        runtime.shadow.poison(addr, op[3], op[4])
    else:
        runtime.shadow.unpoison(addr, op[3])


#: allocator entry points the differential machine's runtime probes
_DIFF_ALLOCATORS = (
    AllocFnSpec(0x0800_1000, "alloc", "kmalloc"),
    AllocFnSpec(0x0800_2000, "free", "kfree"),
)


def _diff_machine():
    """A machine in the golden state the differential test restores to.

    Built the same way every time, so a second call is the fresh-build
    oracle for a restored first one.
    """
    machine = _arm_machine(**_DIFF_SIZES)
    runtime = CommonSanitizerRuntime(
        machine, RuntimeConfig(mode="d", alloc_fns=_DIFF_ALLOCATORS)).attach()
    # a planned probe of every shape: keyed call/ret (the runtime),
    # keyed vmcall and catch-all call (coverage), catch-all ret (a hook)
    KcovCoverage(machine)
    EmulatorCoverage(machine)
    machine.hooks.add(EventKind.RET, lambda event: None)
    # golden content worth restoring: data in RAM, poison in shadow
    dram = machine.bus.region_named("dram")
    machine.bus.fill(dram.base + PAGE_SIZE - 64, 128, 0x5A)
    runtime.shadow.poison(dram.base + 16, 48, ShadowCode.REDZONE_HEAP)
    return machine, runtime


def _runtime_image(runtime):
    """The runtime's semantic state and shadow bytes, read side-effect free."""
    return (runtime._save_semantic(),
            [bytes(shadow.bytes) for shadow in runtime.shadow._shadows])


def _probe_plan(machine):
    """Each probe table's keys and handler functions, in order."""
    def shape(handlers):
        return tuple(getattr(h, "__func__", None) or h.__code__
                     for h in handlers)

    return tuple(
        ({key: shape(hs) for key, hs in table.keyed.items()},
         shape(table.default))
        for table in (machine.calls, machine.rets, machine.vmcalls)
    )


class TestDifferentialRestore:
    """Delta restore ≡ fresh build, over every RAM write path."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.lists(_op, max_size=10), min_size=1, max_size=4))
    def test_restore_matches_fresh_build(self, sessions):
        machine, runtime = _diff_machine()
        fresh, fresh_runtime = _diff_machine()
        fork = ForkServer(machine)
        for session in sessions:
            for op in session:
                _apply(machine, runtime, op)
            fork.restore()
            for region in machine.bus.regions:
                oracle = fresh.bus.region_named(region.name)
                assert bytes(region.data) == bytes(oracle.data), region.name
            assert _runtime_image(runtime) == _runtime_image(fresh_runtime)
            # restore neither drops nor duplicates a planned probe
            assert _probe_plan(machine) == _probe_plan(fresh)


    def test_board_devices_match_fresh_build(self):
        """The UART, timer and DMA rewind through the provider list.

        The UART session prints only the last boot byte: its data
        register does not change, so the reload is skipped unless every
        byte moves the device epoch.
        """
        def build():
            machine, _runtime = _diff_machine()
            for byte in b"boot\n":
                machine.bus.store(machine.uart.base + UART_DATA, 1, byte)
            machine.bus.load(machine.timer.base + TIMER_COUNT, 4)
            return machine

        def reprint_last_byte(machine):
            machine.bus.store(machine.uart.base + UART_DATA, 1, ord("\n"))

        def restart_timer(machine):
            timer = machine.timer.base
            machine.bus.store(timer + TIMER_CTRL, 4, 0)
            machine.bus.load(timer + TIMER_COUNT, 4)
            machine.bus.store(timer + TIMER_CTRL, 4, 1)
            machine.bus.load(timer + TIMER_COUNT, 4)

        def transfer(machine):
            _apply(machine, None, ("dma", "dram", 0, "dram", PAGE_SIZE, 64))

        def board(machine):
            uart, timer, dma = machine.uart, machine.timer, machine.dma
            return (bytes(uart.output), timer.ticks, timer.enabled,
                    dma.src, dma.dst, dma.length, dma.transfers)

        machine, fresh = build(), build()
        fork = ForkServer(machine)
        for session in (reprint_last_byte, restart_timer, transfer):
            session(machine)
            assert board(machine) != board(fresh), session.__name__
            fork.restore()
            assert board(machine) == board(fresh), session.__name__


# ----------------------------------------------------------------------
# host-graph restore: the rehosted kernel's Python objects
# ----------------------------------------------------------------------
class _Obj:
    """A host object the fork server walks (its module makes it so)."""

    __module__ = "repro.os._t"

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


class _Point(NamedTuple):
    x: int
    y: list


class _Tally(list):
    pass


def _forkserver_fuzzer(firmware):
    from repro.firmware.registry import firmware_spec
    from repro.fuzz.syzkaller import SyzkallerFuzzer
    from repro.fuzz.tardis import TardisFuzzer

    cls = (SyzkallerFuzzer if firmware_spec(firmware).fuzzer == "syzkaller"
           else TardisFuzzer)
    fuzzer = cls(firmware, seed=1, exec_mode="forkserver")
    fuzzer.refresh_interval = 10 ** 9
    return fuzzer


def _host_dump(roots):
    """Canonical plain-data dump of the walked host graph.

    Returns ``(dump, objects)``.  A walked object is named by the path
    on which the dump first meets it, and a reference to it is written
    as that path, so two graphs dump equal exactly when they hold equal
    data wired the same way.  ``objects`` maps each path to its object.
    Other objects are written as their type: a fresh build holds fresh
    machines and functions.  Dicts and sets compare as ``==`` does:
    only an ``OrderedDict``'s order counts.
    """
    paths = {}
    objects = {}
    queue = []

    def dump(value, where):
        if _walkable(value):
            if id(value) not in paths:
                paths[id(value)] = where
                objects[where] = value
                queue.append(value)
            return ("ref", paths[id(value)])
        kind = type(value)
        name = kind.__qualname__
        if value is None or isinstance(
                value, (int, float, str, bytes, enum.Enum)):
            return (name, value)
        if isinstance(value, bytearray):
            return (name, bytes(value))
        if isinstance(value, (list, tuple, deque)):
            return (name, getattr(value, "maxlen", None), tuple(
                dump(item, f"{where}[{i}]") for i, item in enumerate(value)))
        if isinstance(value, (set, frozenset)):
            return (name, tuple(sorted(
                repr(dump(item, f"{where}{{}}")) for item in value)))
        if isinstance(value, dict):
            items = [(repr(dump(k, f"{where}{{}}")),
                      repr(dump(v, f"{where}[{k!r}]")))
                     for k, v in value.items()]
            if kind is not OrderedDict:
                items.sort()
            return (name, getattr(value, "default_factory", None),
                    tuple(items))
        return ("opaque", name)

    for index, root in enumerate(roots):
        dump(root, f"root{index}")
    out = {}
    while queue:
        obj = queue.pop(0)
        where = paths[id(obj)]
        out[where] = (type(obj).__qualname__, tuple(
            (attr, dump(value, f"{where}.{attr}"))
            for attr, value in sorted(vars(obj).items())))
    return out, objects


def _host_graph():
    leaf = _Obj(n=7, tag="leaf")
    hidden = _Obj(n=1)  # reached only through a container
    root = _Obj(
        count=3, name="root", flag=True, ratio=0.5, blob=b"\x01",
        free_lists={0: [1, 2], 1: [], 2: [7]},
        nested={"a": {"b": [1, [2, 3]]}},
        members={1, 2, 3},
        ring=deque([1, 2], maxlen=4),
        buf=bytearray(b"abc"),
        pair=(leaf, "x"),
        mixed=(leaf, [1, 2]),
        kids=[hidden, leaf],
        leaf=leaf,
        counts=defaultdict(int, a=1),
        ordered=OrderedDict(a=1, b=2),
        gvars={"g": GlobalVar("g", 0x100, 4, 8, "m")},
        handle=object(),
        hook=lambda: None,
    )
    return root, leaf, hidden


_DATA_ATTRS = ("count", "name", "flag", "ratio", "blob", "free_lists",
               "nested", "members", "ring", "buf", "pair", "mixed", "kids",
               "leaf", "counts", "ordered", "gvars")
_small = st.integers(-3, 300)
_key = st.integers(0, 4)
_host_op = st.one_of(
    st.tuples(st.just("scalar"),
              st.sampled_from(["count", "name", "flag", "ratio", "blob"]),
              st.one_of(_small, st.text(max_size=3), st.none())),
    st.tuples(st.just("list_append"), _key, _small),
    st.tuples(st.just("list_pop"), _key),
    st.tuples(st.just("list_del"), _key),
    st.tuples(st.just("nested"), _small),
    st.tuples(st.just("set_add"), _small),
    st.tuples(st.just("set_discard"), _small),
    st.tuples(st.just("ring"), _small),
    st.tuples(st.just("buf"), _key, st.integers(0, 255)),
    st.tuples(st.just("buf_extend"), st.binary(max_size=4)),
    st.tuples(st.just("pair")),
    st.tuples(st.just("mixed"), _small),
    st.tuples(st.just("kids_append")),
    st.tuples(st.just("kids_clear")),
    st.tuples(st.just("retype")),
    st.tuples(st.just("leaf_n"), _small),
    st.tuples(st.just("hidden_n"), _small),
    st.tuples(st.just("retarget")),
    st.tuples(st.just("counts"), st.sampled_from("abc")),
    st.tuples(st.just("ordered"), st.sampled_from("abc"), _small),
    st.tuples(st.just("gvar"), st.sampled_from("gh")),
    st.tuples(st.just("add_attr"), st.sampled_from("xyz"), _small),
    st.tuples(st.just("del_attr"), st.sampled_from(_DATA_ATTRS)),
    st.tuples(st.just("leaf_add_attr"), _small),
)


def _apply_host(root, leaf, hidden, op) -> None:
    kind = op[0]
    data = vars(root)
    if kind == "scalar":
        setattr(root, op[1], op[2])
    elif kind == "add_attr":
        setattr(root, f"extra_{op[1]}", op[2])
    elif kind == "del_attr":
        data.pop(op[1], None)
    elif kind == "leaf_n":
        leaf.n = op[1]
    elif kind == "hidden_n":
        hidden.n = op[1]
    elif kind == "leaf_add_attr":
        leaf.extra = op[1]
    elif kind == "retarget":
        root.leaf = _Obj(n=5)
    elif kind == "pair":
        root.pair = (hidden, "y")
    elif kind == "retype" and "counts" in data:
        # equal content, different type: restore must still rebuild
        root.counts = dict(root.counts)
    elif kind == "gvar" and "gvars" in data:
        root.gvars[op[1]] = GlobalVar(op[1], 0x200, 8, 8, "m")
    elif kind == "counts" and "counts" in data:
        root.counts[op[1]] = root.counts.get(op[1], 0) + 1
    elif kind == "ordered" and "ordered" in data:
        root.ordered[op[1]] = op[2]
        root.ordered.move_to_end(op[1], last=False)
    elif kind == "list_append" and "free_lists" in data:
        root.free_lists.setdefault(op[1], []).append(op[2])
    elif kind == "list_pop" and root.__dict__.get("free_lists", {}).get(op[1]):
        root.free_lists[op[1]].pop()
    elif kind == "list_del" and "free_lists" in data:
        root.free_lists.pop(op[1], None)
    elif kind == "nested" and "nested" in data:
        root.nested["a"]["b"][1].append(op[1])
    elif kind == "set_add" and "members" in data:
        root.members.add(op[1])
    elif kind == "set_discard" and "members" in data:
        root.members.discard(op[1])
    elif kind == "ring" and "ring" in data:
        root.ring.append(op[1])
    elif kind == "buf" and "buf" in data:
        root.buf[op[1] % len(root.buf)] = op[2]
    elif kind == "buf_extend" and "buf" in data:
        root.buf.extend(op[1])
    elif kind == "mixed" and "mixed" in data:
        root.mixed[1].append(op[1])
    elif kind == "kids_append" and "kids" in data:
        root.kids.append(_Obj(n=99))
    elif kind == "kids_clear" and "kids" in data:
        root.kids.clear()


class TestHostGraphRestore:
    """The host-object half of restore ≡ rebuild."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.lists(_host_op, max_size=12), min_size=1,
                    max_size=4))
    def test_restore_equals_capture(self, sessions):
        root, leaf, hidden = _host_graph()
        golden, objects = _host_dump([root])
        handle, hook = root.handle, root.hook
        fork = ForkServer(_arm_machine(**_DIFF_SIZES), host_roots=(root,))
        for session in sessions:
            for op in session:
                _apply_host(root, leaf, hidden, op)
            fork.restore()
            restored, restored_objects = _host_dump([root])
            assert restored == golden
            # walkable references keep their identity ...
            assert restored_objects.keys() == objects.keys()
            for path, obj in objects.items():
                assert restored_objects[path] is obj, path
            # ... and so do opaque attributes
            assert root.handle is handle and root.hook is hook
            # container types survive a rebuild, and stay usable
            assert root.counts.default_factory is int
            assert root.ring.maxlen == 4
            assert all(type(v) is GlobalVar for v in root.gvars.values())
            assert type(root.ordered) is OrderedDict

    def test_defaultdict_keeps_its_factory(self, machine):
        root = _Obj(counts=defaultdict(int))
        fork = ForkServer(machine, host_roots=(root,))
        root.counts["a"] += 1
        fork.restore()
        root.counts["b"] += 1  # a plain dict would raise KeyError
        assert root.counts == {"b": 1}

    def test_namedtuple_in_rebuilt_container_keeps_its_class(self, machine):
        var = GlobalVar("g", 0x100, 4, 8, "m")
        root = _Obj(globals={"g": var}, boxed=[(var, [1])])
        fork = ForkServer(machine, host_roots=(root,))
        root.globals["h"] = var._replace(name="h")
        root.boxed[0][1].append(2)
        fork.restore()
        assert root.globals == {"g": var}
        assert root.globals["g"].addr == 0x100
        assert root.boxed == [(var, [1])]
        assert root.boxed[0][0] is var

    def test_ordered_dict_and_deque_keep_their_type(self, machine):
        root = _Obj(ordered=OrderedDict(a=1), ring=deque([1], maxlen=2),
                    point=_Point(1, [2]))
        fork = ForkServer(machine, host_roots=(root,))
        root.ordered["b"] = 2
        root.ring.extend([5, 6])
        root.point.y.append(3)
        fork.restore()
        assert type(root.ordered) is OrderedDict and root.ordered == {"a": 1}
        assert root.ring == deque([1]) and root.ring.maxlen == 2
        assert type(root.point) is _Point and root.point.y == [2]

    @pytest.mark.parametrize("value", [
        Counter(a=1), _Tally([1]), {"nested": Counter()},
    ], ids=["counter", "list-subclass", "nested-counter"])
    def test_unfaithful_container_refused_at_capture(self, machine, value):
        with pytest.raises(SnapshotError, match="faithfully"):
            ForkServer(machine, host_roots=(_Obj(value=value),))

    def test_live_coroutine_refused_finished_one_cleared(self, machine):
        def body():
            yield

        task = _Obj(done=False, body=body())
        with pytest.raises(SnapshotError, match="live coroutine"):
            ForkServer(machine, host_roots=(task,))
        task.done = True
        fork = ForkServer(machine, host_roots=(task,))
        task.body = body()
        fork.restore()
        assert task.body is None

    @pytest.mark.parametrize("firmware", ["InfiniTime", "OpenWRT-x86_64"])
    def test_host_graph_matches_fresh_build(self, firmware):
        def roots(fuzzer):
            image = fuzzer.target.image
            return (image.kernel, image.ctx)

        fresh, _ = _host_dump(roots(_forkserver_fuzzer(firmware)))
        fuzzer = _forkserver_fuzzer(firmware)
        target = fuzzer.target
        plan = target.fork_server._host_plan
        # restore skips an equal container; that is only sound while
        # element equality is identity
        assert all(type(entry[0]).__eq__ is object.__eq__ for entry in plan)
        assert _host_dump(roots(fuzzer))[0] == fresh
        touched = 0
        for _ in range(5):
            for _ in range(6):
                fuzzer.step()
            touched += _host_dump(roots(fuzzer))[0] != fresh
            restores, rebuilds = target.restores, target.rebuilds
            target.reset()
            assert (target.restores, target.rebuilds) == (
                restores + 1, rebuilds)
            assert _host_dump(roots(fuzzer))[0] == fresh
        assert touched  # the sessions did move the host graph


# ----------------------------------------------------------------------
# FuzzTarget plumbing
# ----------------------------------------------------------------------
class TestFuzzTargetModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(FuzzerError, match="exec mode"):
            FuzzTarget(lambda: None, exec_mode="vmfork")

    def test_modes_registry(self):
        assert EXEC_MODES == ("journal", "forkserver")

    def test_restore_failure_falls_back_to_rebuild(self, monkeypatch):
        from repro.fuzz.tardis import TardisFuzzer

        fuzzer = TardisFuzzer("InfiniTime", seed=1, exec_mode="forkserver")
        target = fuzzer.target
        assert target.fork_server is not None
        first_golden = target._golden_points
        monkeypatch.setattr(
            target.fork_server, "restore",
            lambda: (_ for _ in ()).throw(RuntimeError("region remapped")),
        )
        rebuilds = target.rebuilds
        target.reset()
        # fell back to a full rebuild and captured a fresh golden
        assert target.rebuilds == rebuilds + 1
        assert target.fork_server is not None
        assert target.fork_server.restores == 0
        assert target._golden_points == first_golden  # boot determinism


# ----------------------------------------------------------------------
# exec-mode identity on the two firmware families (the full matrix of
# paths, interrupts, engines and shards is tests/test_determinism.py)
# ----------------------------------------------------------------------
class TestExecModeIdentity:
    def test_census_identity_small_firmware(self):
        journal = run_campaign("InfiniTime", budget=200, seed=1)
        fork = run_campaign("InfiniTime", budget=200, seed=1,
                            exec_mode="forkserver")
        assert result_digest(fork) == result_digest(journal)

    def test_census_identity_linux_firmware(self):
        journal = run_campaign("OpenWRT-armvirt", budget=150, seed=2)
        fork = run_campaign("OpenWRT-armvirt", budget=150, seed=2,
                            exec_mode="forkserver")
        assert result_digest(fork) == result_digest(journal)

    def test_forkserver_actually_restores(self):
        from repro.fuzz.tardis import TardisFuzzer

        fuzzer = TardisFuzzer("InfiniTime", seed=1, exec_mode="forkserver")
        fuzzer.run(120)
        assert fuzzer.target.restores > 0
        assert fuzzer.target.rebuilds == 1  # only the initial build
