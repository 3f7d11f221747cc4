"""Unit tests: guest layout, context, modules and frames."""

import inspect

import pytest

from repro.emulator.events import EventKind
from repro.errors import FirmwareBuildError
from repro.guest.layout import FUNC_SLOT_SIZE, GuestLayout
from repro.guest.module import GuestModule, _guestfn_table, guestfn


class Counter(GuestModule):
    location = "test/counter"

    def __init__(self):
        super().__init__(name="counter")
        self.global_addr = 0

    def on_install(self, ctx):
        self.global_addr = self.declare_global(ctx, "count", 8)

    @guestfn(name="bump")
    def bump(self, ctx, delta):
        value = ctx.ld32(self.global_addr) + delta
        ctx.st32(self.global_addr, value)
        return value

    @guestfn(name="scratch")
    def scratch(self, ctx, size):
        buf = ctx.frame.var(size, "buf")
        ctx.memset(buf, 0xAA, size)
        return ctx.ld8(buf)

    @guestfn(name="take_alloc", allocator="alloc", size_arg=0)
    def take_alloc(self, ctx, size):
        return self.global_addr  # toy allocator


class TestLayout:
    def test_text_slots_distinct(self, machine):
        layout = GuestLayout(machine)
        a = layout.alloc_text("fn_a")
        b = layout.alloc_text("fn_b")
        assert b == a + FUNC_SLOT_SIZE
        assert layout.function_at(a + 8) == "fn_a"
        assert layout.function_at(b) == "fn_b"

    def test_global_alignment(self, machine):
        layout = GuestLayout(machine)
        var1 = layout.alloc_global("g1", 13, "m")
        var2 = layout.alloc_global("g2", 7, "m")
        assert var1.addr % 8 == 0 and var2.addr % 8 == 0
        assert var2.addr >= var1.addr + 13 + var1.redzone

    def test_stacks_grow_down(self, machine):
        layout = GuestLayout(machine)
        top1 = layout.alloc_stack()
        top2 = layout.alloc_stack()
        assert top2 < top1

    def test_blob_symbolization(self, machine):
        layout = GuestLayout(machine)
        layout.register_blob("svc", 0x0830_0000, 0x100)
        assert layout.function_at(0x0830_0040) == "svc"
        assert layout.function_at(0x0840_0000).startswith("0x")


class TestModule:
    def test_install_and_call(self, machine, ctx):
        module = Counter().install(ctx)
        assert module.bump(ctx, 5) == 5
        assert module.bump(ctx, 3) == 8

    def test_call_events_emitted(self, machine, ctx):
        calls, rets = [], []
        machine.hooks.add(EventKind.CALL, calls.append)
        machine.hooks.add(EventKind.RET, rets.append)
        module = Counter().install(ctx)
        module.bump(ctx, 2)
        assert calls[-1].name == "bump"
        assert calls[-1].args[0] == 2
        assert rets[-1].retval == 2
        assert rets[-1].target == module.functions["bump"].addr

    def test_symbols_registered(self, machine, ctx):
        module = Counter().install(ctx)
        addr = module.functions["bump"].addr
        assert machine.symbols["counter.bump"] == addr
        assert machine.symbol_at(addr) == "counter.bump"

    def test_stripped_module_has_no_symbols(self, machine, ctx):
        class Closed(Counter):
            stripped = True

        Closed().install(ctx)
        assert not any("bump" in name for name in machine.symbols)

    def test_double_install_rejected(self, machine, ctx):
        module = Counter().install(ctx)
        with pytest.raises(FirmwareBuildError):
            module.install(ctx)

    def test_non_int_args_rejected(self, machine, ctx):
        module = Counter().install(ctx)
        with pytest.raises(TypeError):
            module.bump(ctx, "five")

    def test_allocator_metadata(self, machine, ctx):
        module = Counter().install(ctx)
        fn = module.functions["take_alloc"]
        assert fn.allocator == "alloc"
        assert fn.size_arg == 0
        assert module.alloc_fns() == [fn]

    def test_guestfn_table_matches_getmembers(self, monkeypatch):
        # install reads a per-class cache; it must hold exactly what an
        # instance-level getmembers scan finds at install time, in the
        # same order, for every module class the catalog installs
        from repro.firmware.registry import all_firmware, build_firmware

        seen = set()
        install = GuestModule.install

        def checked_install(self, ctx):
            scanned = []
            for attr, member in inspect.getmembers(self, callable):
                raw = getattr(member, "__func__", member)
                if getattr(raw, "_guestfn", False):
                    scanned.append((attr, raw))
            assert _guestfn_table(type(self)) == tuple(scanned), type(self)
            seen.add(type(self))
            return install(self, ctx)

        monkeypatch.setattr(GuestModule, "install", checked_install)
        for spec in all_firmware():
            build_firmware(spec.name,
                           driver=spec.driver_factory is not None)
        assert len(seen) >= 20


class TestContext:
    def test_stack_vars_inside_guest_memory(self, machine, ctx):
        module = Counter().install(ctx)
        assert module.scratch(ctx, 24) == 0xAA

    def test_pcs_symbolize_to_function(self, machine, ctx):
        module = Counter().install(ctx)
        pcs = []
        machine.hooks.add(EventKind.MEM_ACCESS, lambda a: pcs.append(a.pc))
        module.bump(ctx, 1)
        assert all(
            ctx.layout.function_at(pc) == "counter.bump" for pc in pcs
        )

    def test_caller_pc(self, machine, ctx):
        module = Counter().install(ctx)
        observed = []

        class Probe(Counter):
            @guestfn(name="outer")
            def outer(self, inner_ctx, x):
                observed.append(inner_ctx.caller_pc())
                return x

        probe = Probe().install(ctx)
        probe.outer(ctx, 1)  # top-level: caller == self
        assert ctx.layout.function_at(observed[0]).endswith("outer")

    def test_kthread_frame(self, machine, ctx):
        addr = ctx.layout.alloc_text("kthread.test")
        with ctx.kthread_frame(addr):
            assert ctx.current_pc() == addr
        assert ctx.current_pc() == 0

    def test_cov_disabled_by_default(self, machine, ctx):
        events = []
        machine.hooks.add(EventKind.VMCALL, events.append)
        ctx.cov(1)
        assert events == []

    def test_work_charges_guest(self, machine, ctx):
        before = machine.guest_cycles
        ctx.work(37)
        assert machine.guest_cycles == before + 37

    def test_atomic_flag_propagates(self, machine, ctx):
        module = Counter().install(ctx)
        flags = []
        machine.hooks.add(EventKind.MEM_ACCESS, lambda a: flags.append(a.atomic))

        class AtomicUser(Counter):
            @guestfn(name="sync")
            def sync(self, inner_ctx, _unused):
                inner_ctx.atomic_add32(module.global_addr, 1)
                return 0

        AtomicUser().install(ctx).sync(ctx, 0)
        assert flags and all(flags)
