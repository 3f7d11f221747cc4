"""The rehosted-guest memory path's clean tests, against the full path.

A rehosted kernel's checked load or store is first offered to the
runtime's clean test: on EMBSAN-C the instrumented access asks the
vmcall plan's clean test before issuing ``SAN_LOAD``/``SAN_STORE``, and
on EMBSAN-D the bus asks its sole observer's test before building an
``Access``.  Either test applies only while the runtime is the only
subscriber, so a build with one extra no-op bus observer and one extra
no-op catch-all vmcall subscriber runs every access down the full path.
The differential here runs random programs on both builds and requires
the same outcome, counter for counter and bit for bit.

Also pinned here: the slice-write shadow transitions against a
per-granule reference model, and fault-injected campaigns (which the
benchmark never runs) by their result digests.
"""

from __future__ import annotations

import hashlib
import json
import mmap

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.emulator.events import EventKind
from repro.emulator.hypercalls import Hypercall
from repro.firmware.builder import attach_runtime
from repro.firmware.registry import build_firmware
from repro.mem.dirty import PAGE_SIZE, DirtySet
from repro.sanitizers.runtime.shadow import (
    GRANULE,
    ShadowCode,
    ShadowMemory,
)

#: (firmware, build mode it runs in)
_FIRMWARE = (("OpenWRT-armvirt", "c"), ("InfiniTime", "d"))
_SANITIZERS = (("kasan",), ("kasan", "kcsan"))

_obj = st.integers(0, 5)
#: offsets reach the redzone before and after an object, its partial
#: tail granule and, once freed, its quarantined body
_off = st.integers(-24, 72)
_width = st.sampled_from((1, 2, 4))

_op = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 64)),
    st.tuples(st.just("free"), _obj),
    st.tuples(st.just("ld"), _obj, _off, _width),
    st.tuples(st.just("st"), _obj, _off, _width, st.integers(0, 0xFFFF)),
    st.tuples(st.just("atomic_st"), _obj, _off, st.integers(0, 0xFFFF)),
    st.tuples(st.just("atomic_add"), _obj, _off, st.integers(1, 9)),
    st.tuples(st.just("raw_ld32"), _obj, _off),
    st.tuples(st.just("raw_st32"), _obj, _off, st.integers(0, 0xFFFF)),
    st.tuples(st.just("memset"), _obj, _off, st.integers(1, 40)),
    st.tuples(st.just("write_bytes"), _obj, _off,
              st.binary(min_size=1, max_size=24)),
    # runtime gates flipped mid-run, and a delayed interrupt queued
    st.tuples(st.just("toggle"),
              st.sampled_from(("enabled", "in_allocator", "suppress",
                               "kasan_suppress"))),
    st.tuples(st.just("irq"), st.integers(1, 3)),
    st.tuples(st.just("mmio"), st.sampled_from((0, 4))),
)


def _noop(*_args) -> None:
    pass


def _build(firmware: str, sanitizers, reference: bool,
           cycle_budget: float):
    image = build_firmware(firmware, boot=False)
    runtime = attach_runtime(image, sanitizers=sanitizers)
    image.boot()
    machine = image.machine
    if reference:
        machine.bus.add_observer(_noop)
        machine.hooks.add(EventKind.VMCALL, _noop)
    machine.set_watchdog(insn_budget=None, cycle_budget=cycle_budget)
    dirty = DirtySet()
    machine.bus.attach_dirty(dirty)
    return image, runtime, dirty


def _fast_paths(image, runtime) -> tuple:
    """(EMBSAN-C vmcall clean test live, EMBSAN-D bus clean test live)."""
    machine = image.machine
    return (bool(machine.vmcalls.clean), machine.bus._clean is not None)


def _run(firmware: str, sanitizers, sizes, ops, reference: bool,
         cycle_budget: float) -> dict:
    image, runtime, dirty = _build(firmware, sanitizers, reference,
                                   cycle_budget)
    ctx, machine = image.ctx, image.machine
    mm = image.kernel.mm
    alloc, free = (
        next(fn for fn in mm.functions.values() if fn.allocator == kind)
        for kind in ("alloc", "free")
    )
    outcome = []
    kasan = runtime.kasan
    with ctx.kthread_frame(alloc.addr + 0x400):
        objects = [alloc(ctx, size) for size in sizes]
        for op in ops:
            kind = op[0]
            try:
                if kind == "alloc":
                    objects.append(alloc(ctx, op[1]))
                    result = objects[-1]
                elif kind == "toggle":
                    gate = op[1]
                    if gate == "enabled":
                        runtime.enabled = not runtime.enabled
                    elif gate == "in_allocator":
                        ctx.in_allocator ^= 1
                    elif gate == "suppress":
                        runtime._suppress ^= 1
                    else:
                        kasan.suppress_depth ^= 1
                    result = None
                elif kind == "irq":
                    machine._pending_irqs.append([op[1], 7, "test"])
                    result = None
                elif kind == "mmio":
                    # device registers have no shadow: checked, never bad
                    result = ctx.ld32(machine.timer.base + op[1])
                else:
                    base = objects[op[1] % len(objects)]
                    if kind == "free":
                        result = free(ctx, base)
                    else:
                        addr = (base + op[2]) & 0xFFFFFFFF
                        result = _access(ctx, kind, addr, op)
            except Exception as exc:  # both builds must fail alike
                result = f"{type(exc).__name__}: {exc}"
            # interrupts drain per hypercall: their timing shows whether
            # a settled access still ran vmcall's tail
            outcome.append((result, machine.irqs_delivered))
    watchdog = machine.watchdog
    ram = {
        name: {
            page: bytes(
                machine.bus.region_named(name).data[
                    page * PAGE_SIZE:(page + 1) * PAGE_SIZE])
            for page in dirty.pages(name)
        }
        for name in dirty.region_names()
    }
    emitted = [getattr(hook, "emitted", None) for hook in ctx.san_hooks]
    return {
        "fast_paths": _fast_paths(image, runtime),
        "outcome": outcome,
        "reports": [
            (report.dedup_key(), report.addr, report.size)
            for report in runtime.sink.reports
        ],
        "stats": runtime.stats(),
        "ledger": machine.ledger.save(),
        "watchdog": (watchdog.cycles, watchdog.trips),
        "guest_cycles": machine._charged_guest_cycles,
        "irqs": (machine.irqs_delivered, list(map(list,
                                                  machine._pending_irqs))),
        "emitted": emitted,
        "ram": ram,
        "shadow": [
            hashlib.sha256(shadow.bytes[:]).hexdigest()
            for shadow in runtime.shadow._shadows
        ],
    }


def _access(ctx, kind: str, addr: int, op):
    if kind == "ld":
        return {1: ctx.ld8, 2: ctx.ld16, 4: ctx.ld32}[op[3]](addr)
    if kind == "st":
        return {1: ctx.st8, 2: ctx.st16, 4: ctx.st32}[op[3]](addr, op[4])
    if kind == "atomic_st":
        return ctx.atomic_st32(addr, op[3])
    if kind == "atomic_add":
        return ctx.atomic_add32(addr, op[3])
    if kind == "raw_ld32":
        return ctx.raw_ld32(addr)
    if kind == "raw_st32":
        return ctx.raw_st32(addr, op[3])
    if kind == "memset":
        return ctx.memset(addr, 0xA5, op[3])
    return ctx.write_bytes(addr, op[3])


class TestRehostedClean:
    """Clean tests on ≡ every access down the full path."""

    @pytest.mark.parametrize("sanitizers", _SANITIZERS,
                             ids=lambda s: "+".join(s))
    @pytest.mark.parametrize("firmware,mode", _FIRMWARE,
                             ids=[name for name, _mode in _FIRMWARE])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sizes=st.lists(st.integers(1, 64), min_size=1, max_size=4),
           ops=st.lists(_op, min_size=1, max_size=40),
           cycle_budget=st.sampled_from((5_000_000.0, 5_000_000.0, 900.0)))
    def test_fast_build_matches_full_path(self, firmware, mode, sanitizers,
                                          sizes, ops, cycle_budget):
        fast = _run(firmware, sanitizers, sizes, ops, False, cycle_budget)
        full = _run(firmware, sanitizers, sizes, ops, True, cycle_budget)
        # the reference build really runs the full path, and the fast one
        # really has the clean test wherever the sanitizer set allows it
        kasan_alone = sanitizers == ("kasan",)
        assert full.pop("fast_paths") == (False, False)
        assert fast.pop("fast_paths") == (kasan_alone and mode == "c",
                                          kasan_alone and mode == "d")
        assert fast == full

    def test_clean_test_follows_the_vmcall_plan(self):
        image, runtime, _dirty = _build("OpenWRT-armvirt", ("kasan",),
                                        False, 5_000_000.0)
        machine = image.machine
        accesses = {int(Hypercall.SAN_LOAD), int(Hypercall.SAN_STORE)}
        assert set(machine.vmcalls.clean) == accesses
        machine.hooks.add(EventKind.VMCALL, _noop)
        assert machine.vmcalls.clean == {}
        machine.hooks.remove(EventKind.VMCALL, _noop)
        assert set(machine.vmcalls.clean) == accesses
        # a subscriber keyed on another number leaves the accesses alone
        machine.vmcalls.add(_noop, keys=(Hypercall.SAN_ALLOC,))
        assert set(machine.vmcalls.clean) == accesses
        machine.vmcalls.remove(_noop)
        runtime.detach()
        assert machine.vmcalls.clean == {}

    def test_bus_clean_test_only_for_a_sole_observer(self):
        image, runtime, _dirty = _build("InfiniTime", ("kasan",), False,
                                        5_000_000.0)
        bus = image.machine.bus
        assert bus._clean is runtime._clean_cb
        # a MEM_ACCESS hook subscriber goes on the bus ahead of the runtime
        image.machine.hooks.add(EventKind.MEM_ACCESS, _noop)
        assert bus._clean is None
        image.machine.hooks.remove(EventKind.MEM_ACCESS, _noop)
        assert bus._clean is runtime._clean_cb
        runtime.detach()
        assert bus._clean is None and bus._observers == ()


# ----------------------------------------------------------------------
# slice-write shadow transitions
# ----------------------------------------------------------------------
class _ReferenceShadow:
    """Per-granule model of ShadowMemory's poison/unpoison/golden."""

    def __init__(self, base: int, size: int):
        self.base = base
        self.end = base + size
        self.table = bytearray((size + GRANULE - 1) // GRANULE)
        self.dirty = set()
        self.golden = None

    def _mark(self, first: int, last: int) -> None:
        if self.golden is None:
            return
        for page in range(first >> 12, (last >> 12) + 1):
            if page not in self.dirty:
                self.dirty.add(page)
                self.golden.setdefault(
                    page, bytes(self.table[page << 12:(page + 1) << 12]))

    def poison(self, start: int, size: int, code: int) -> None:
        if size <= 0 or not self.base <= start < self.end:
            return
        end = min(start + size, self.end)
        first = (start - self.base) // GRANULE
        last = (end - self.base + GRANULE - 1) // GRANULE
        self._mark(first, max(last - 1, first))
        if start % GRANULE:
            self.table[first] = start % GRANULE
            first += 1
        for idx in range(first, last):
            self.table[idx] = code

    def unpoison(self, start: int, size: int) -> None:
        if size <= 0 or not self.base <= start < self.end:
            return
        end = min(start + size, self.end)
        first = (start - self.base) // GRANULE
        full_last = (end - self.base) // GRANULE
        self._mark(first, max(full_last, first))
        for idx in range(first, full_last):
            self.table[idx] = 0
        if end % GRANULE and full_last < len(self.table):
            self.table[full_last] = end % GRANULE

    def begin_golden(self) -> None:
        self.dirty.clear()
        self.golden = {}

    def restore_golden(self) -> None:
        for page in self.dirty:
            image = self.golden[page]
            self.table[page << 12:(page << 12) + len(image)] = image
        self.dirty.clear()


class _Bus:
    """Just enough of a MemoryBus for ShadowMemory: its RAM regions."""

    def __init__(self, regions):
        self.regions = regions


class _Region:
    kind = "sram"

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size


#: (base, size) of the two shadowed regions: a small bytearray-backed
#: one whose size is no multiple of a granule, and one whose 2 MiB
#: shadow table is mmap-backed (see filled_buffer)
_REGIONS = ((0x1000, 0x30005), (0x4000_0000, 16 << 20))

_span = st.tuples(
    st.sampled_from(range(len(_REGIONS))),
    st.integers(-40, 0x9000),  # from the region start, or its end
    st.booleans(),
    st.integers(0, 0x9000),
)
_shadow_op = st.one_of(
    st.tuples(st.just("poison"), _span,
              st.sampled_from([int(code) for code in ShadowCode
                               if code >= 0x80])),
    st.tuples(st.just("unpoison"), _span, st.just(0)),
    st.tuples(st.just("begin_golden"), _span, st.just(0)),
    st.tuples(st.just("restore_golden"), _span, st.just(0)),
)


def _start(span) -> tuple:
    """(region index, start, size); a negative offset starts outside."""
    index, offset, from_end, size = span
    base, region_size = _REGIONS[index]
    start = base + region_size - offset if from_end else base + offset
    return index, start, size


class TestShadowSliceWrites:
    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(_shadow_op, min_size=1, max_size=30))
    def test_matches_per_granule_model(self, ops):
        shadow = ShadowMemory(_Bus([_Region(*r) for r in _REGIONS]))
        models = [_ReferenceShadow(*r) for r in _REGIONS]
        for name, span, code in ops:
            index, start, size = _start(span)
            if name == "poison":
                shadow.poison(start, size, code)
                models[index].poison(start, size, code)
            elif name == "unpoison":
                shadow.unpoison(start, size)
                models[index].unpoison(start, size)
            else:
                getattr(shadow, name)()
                for model in models:
                    getattr(model, name)()
        assert isinstance(shadow._shadows[1].bytes, mmap.mmap)
        for live, model in zip(shadow._shadows, models):
            assert live.bytes[:] == model.table
            assert live.dirty == model.dirty
            assert live.golden == model.golden


class TestInlineMetering:
    """Scalar guest accesses meter exactly like ``charge_guest(2)``."""

    @pytest.mark.parametrize("budget", (1.0, 7.0, 40.0, 41.0))
    @pytest.mark.parametrize("op", ("ld32", "st16", "atomic_add32"))
    def test_trip_matches_charge_guest(self, op, budget):
        from repro.errors import GuestHang

        def drive(step) -> tuple:
            image = build_firmware("InfiniTime")
            machine, ctx = image.machine, image.ctx
            addr = image.kernel.mm.pvPortMalloc(ctx, 16)
            watchdog = machine.set_watchdog(cycle_budget=budget)
            start = machine._charged_guest_cycles
            done = 0
            with ctx.kthread_frame(0x0800_1000) as frame:
                try:
                    while True:
                        step(ctx, machine, addr)
                        done += 1
                except GuestHang as hang:
                    trip = (hang.kind, hang.pc, hang.cycles)
            return (done, trip, watchdog.cycles, watchdog.trips,
                    machine._charged_guest_cycles - start,
                    machine.ledger.save(), frame.counter)

        def inline(ctx, machine, addr):
            if op == "ld32":
                ctx.ld32(addr)
            elif op == "st16":
                ctx.st16(addr, 7)
            else:
                ctx.atomic_add32(addr, 1)

        def charged(ctx, machine, addr):
            for _ in range(2 if op == "atomic_add32" else 1):
                machine.charge_guest(2)
                ctx._advance_pc()

        assert drive(inline) == drive(charged)


# ----------------------------------------------------------------------
# fault-injected campaigns
# ----------------------------------------------------------------------
_FAULTS = ("alloc:p=0.05;bitflip:0x0-0xfffffff0:p=0.002;irq:delay=3,p=0.25;"
           "irq-storm:line=9,count=4,p=0.02;seed=3")

#: the first 16 hex digits of each campaign's result digest, recorded
#: before the rehosted memory path took its clean tests
_FAULT_DIGESTS = {
    "OpenWRT-armvirt": "682b89ad62263606",
    "InfiniTime": "ea1133b664108aef",
    "OpenWRT-x86_64": "da7fe9075f31d41d",
}


class TestFaultCampaignDigests:
    """A fault plan sends every access hypercall out (irq-storm draws
    from the plan's RNG per hypercall) and bit-flips guest loads; the
    campaigns' results must not move."""

    @pytest.mark.parametrize("exec_mode", ("journal", "forkserver"))
    @pytest.mark.parametrize("firmware", sorted(_FAULT_DIGESTS))
    def test_digest(self, firmware, exec_mode):
        from repro.fuzz.campaign import run_campaign
        from repro.fuzz.checkpoint import result_to_json

        result = run_campaign(firmware, budget=150, seed=5, faults=_FAULTS,
                              exec_mode=exec_mode)
        blob = json.dumps(result_to_json(result), sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest[:16] == _FAULT_DIGESTS[firmware]
