"""The probe plan: keyed CALL/RET/VMCALL dispatch.

A :class:`~repro.emulator.hooks.ProbeTable` must dispatch exactly what
broadcast did — the same handlers, in registration order — while a
``HookRegistry`` subscriber to CALL/RET/VMCALL still receives the full
event stream through its catch-all adapter.  The campaign tests pin the
whole-system form of that: adding a catch-all subscriber changes no
byte of a campaign's result.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.emulator.events import CallEvent, EventKind, RetEvent, VmcallEvent
from repro.emulator.hooks import ProbeTable
from repro.emulator.hypercalls import Hypercall
from repro.emulator.machine import Machine
from repro.fuzz.campaign import run_campaign
from repro.fuzz.checkpoint import result_digest
from repro.fuzz.coverage import EmulatorCoverage, KcovCoverage
from repro.guest.module import GuestModule, guestfn
from repro.isa.assembler import assemble
from repro.sanitizers.runtime.runtime import (
    AllocFnSpec,
    CommonSanitizerRuntime,
    RuntimeConfig,
)


def _tables(table: ProbeTable):
    return dict(table.keyed), table.default


def _plan(machine: Machine):
    return tuple(
        _tables(table)
        for table in (machine.calls, machine.rets, machine.vmcalls)
    )


class TestProbeTable:
    def test_empty_table_serves_nothing(self):
        table = ProbeTable()
        assert table.keyed == {} and table.default == ()

    def test_keyed_then_catch_all_keeps_registration_order(self):
        table = ProbeTable()
        keyed, every = object(), object()
        table.add(keyed, keys=(7, 9))
        table.add(every)
        assert table.keyed == {7: (keyed, every), 9: (keyed, every)}
        assert table.default == (every,)

    def test_catch_all_then_keyed_keeps_registration_order(self):
        table = ProbeTable()
        keyed, every = object(), object()
        table.add(every)
        table.add(keyed, keys=(7,))
        assert table.keyed == {7: (every, keyed)}
        assert table.default == (every,)

    def test_interleaved_order_per_key(self):
        table = ProbeTable()
        a, b, c, d = (object() for _ in range(4))
        table.add(a, keys=(1,))
        table.add(b)
        table.add(c, keys=(1, 2))
        table.add(d)
        assert table.keyed == {1: (a, b, c, d), 2: (b, c, d)}
        assert table.default == (b, d)

    def test_remove_restores_prior_tables(self):
        table = ProbeTable()
        first, keyed, every = object(), object(), object()
        table.add(first, keys=(3,))
        before = _tables(table)
        table.add(keyed, keys=(3, 4))
        table.add(every)
        table.remove(every)
        table.remove(keyed)
        assert _tables(table) == before
        table.remove(keyed)  # missing handlers are ignored
        assert _tables(table) == before

    def test_keys_are_plain_ints(self):
        table = ProbeTable()
        table.add(object(), keys=(Hypercall.COV_TRACE_PC,))
        (key,) = table.keyed
        assert type(key) is int and key == Hypercall.COV_TRACE_PC


class TestCatchAllAdapter:
    def test_hook_subscription_joins_the_plan_and_leaves_it(self, machine):
        before = _plan(machine)
        record = [].append
        for kind in (EventKind.CALL, EventKind.RET, EventKind.VMCALL):
            machine.hooks.add(kind, record)
        assert machine.calls.default and machine.rets.default
        assert machine.vmcalls.default
        assert machine.hooks.has_handlers(EventKind.CALL)
        machine.hooks.remove(EventKind.CALL, record)
        assert not machine.hooks.has_handlers(EventKind.CALL)
        machine.hooks.clear()
        assert _plan(machine) == before

    def test_vmcall_event_is_a_copy(self, machine):
        seen = []
        machine.hooks.add(EventKind.VMCALL, seen.append)
        args = [0x100, 4]
        machine.vmcall(Hypercall.SAN_LOAD, args, pc=0x20, task=3)
        assert seen == [VmcallEvent(Hypercall.SAN_LOAD, [0x100, 4], 0x20, 3)]
        assert seen[0].args is not args

    def test_rehosted_events_carry_the_visible_name(self, machine, ctx):
        class Closed(GuestModule):
            stripped = True

            @guestfn(name="hidden")
            def hidden(self, ctx, value):
                return value + 1

        class Open(GuestModule):
            @guestfn(name="shown")
            def shown(self, ctx, value):
                return value * 2

        calls, rets = [], []
        machine.hooks.add(EventKind.CALL, calls.append)
        machine.hooks.add(EventKind.RET, rets.append)
        closed = Closed(name="closed").install(ctx)
        shown = Open(name="open").install(ctx)
        closed.hidden(ctx, 4)
        shown.shown(ctx, 4)
        hidden_addr = closed.functions["hidden"].addr
        shown_addr = shown.functions["shown"].addr
        assert [(e.target, e.name) for e in calls] == [
            (hidden_addr, None), (shown_addr, "shown")]
        assert rets == [RetEvent(hidden_addr, 5, 0, None),
                        RetEvent(shown_addr, 8, 0, "shown")]

    def test_isa_events_resolve_symbols(self, machine):
        flash = machine.arch.region("flash")
        program = assemble("""
                movi a0, 5
                call double
                hlt
            double:
                add a0, a0, a0
                ret
        """, base=flash.base)
        with machine.bus.untraced():
            machine.bus.region_named("flash").write(flash.base, program.image)
        double = program.all_labels["double"]
        machine.add_symbols({"double": double})
        calls, rets = [], []
        machine.hooks.add(EventKind.CALL, calls.append)
        machine.hooks.add(EventKind.RET, rets.append)
        core = machine.add_cpu(pc=flash.base, sp=0)
        core.run(max_steps=100)
        assert [(e.target, e.name, e.args[0]) for e in calls] == [
            (double, "double", 5)]
        assert isinstance(calls[0], CallEvent)
        # an ISA return is keyed by the RET instruction's pc, unnamed
        ret_pc = double + 8
        assert rets == [RetEvent(ret_pc, 10, 0, None)]


# ----------------------------------------------------------------------
# runtime and coverage registration
# ----------------------------------------------------------------------
_ALLOCATORS = (
    AllocFnSpec(0x0800_1000, "alloc", "kmalloc"),
    AllocFnSpec(0x0800_2000, "free", "kfree"),
)


class TestRegistration:
    @pytest.mark.parametrize("mode", ["c", "d"])
    def test_attach_detach_leaves_the_machine_as_it_was(self, machine, mode):
        # subscribers already in place must keep their slots and order
        EmulatorCoverage(machine)
        KcovCoverage(machine)
        machine.hooks.add(EventKind.RET, lambda event: None)
        machine.bus.add_observer(lambda access: None)
        before = (_plan(machine), machine.bus._observers)
        runtime = CommonSanitizerRuntime(
            machine, RuntimeConfig(mode=mode, alloc_fns=_ALLOCATORS)).attach()
        assert (_plan(machine), machine.bus._observers) != before
        runtime.detach()
        assert (_plan(machine), machine.bus._observers) == before

    def test_mode_d_probes_exactly_the_allocators(self, machine):
        runtime = CommonSanitizerRuntime(
            machine, RuntimeConfig(mode="d", alloc_fns=_ALLOCATORS)).attach()
        keys = {spec.addr for spec in _ALLOCATORS}
        assert set(machine.calls.keyed) == keys == set(machine.rets.keyed)
        assert machine.calls.default == machine.rets.default == ()
        assert _tables(machine.vmcalls) == ({}, ())
        assert machine.bus._observers == (runtime._probe_cb,)
        assert not machine.hooks.has_handlers(EventKind.MEM_ACCESS)

    def test_mode_c_is_one_catch_all_vmcall_probe(self, machine):
        runtime = CommonSanitizerRuntime(
            machine, RuntimeConfig(mode="c")).attach()
        assert machine.vmcalls.default == (runtime._on_vmcall,)
        assert machine.vmcalls.keyed == {}
        assert _tables(machine.calls) == _tables(machine.rets) == ({}, ())
        assert machine.bus._observers == ()

    def test_mode_c_counts_every_hypercall(self, machine):
        runtime = CommonSanitizerRuntime(
            machine, RuntimeConfig(mode="c")).attach()
        for number in (Hypercall.SAN_STACK_ENTER, Hypercall.COV_TRACE_PC,
                       Hypercall.PUTC, 0x7F):
            machine.vmcall(number, [0x41, 0, 0])
        assert runtime.events_handled == 4

    def test_coverage_probes(self, machine):
        kcov = KcovCoverage(machine)
        emu = EmulatorCoverage(machine)
        assert machine.vmcalls.keyed == {
            int(Hypercall.COV_TRACE_PC): (kcov._on_trace_pc,)}
        assert machine.vmcalls.default == ()
        assert machine.calls.default == (emu._on_call,)
        machine.vmcall(Hypercall.SAN_LOAD, [0x99])
        machine.vmcall(Hypercall.COV_TRACE_PC, [0x1234])
        assert kcov.points == {0x1234}


# ----------------------------------------------------------------------
# whole campaigns: the plan is equivalent to broadcast
# ----------------------------------------------------------------------
@pytest.mark.parametrize("firmware, kinds", [
    # EMBSAN-D with emulator-level coverage
    ("InfiniTime", (EventKind.CALL, EventKind.RET)),
    # EMBSAN-C with kcov: every hypercall reaches the runtime
    ("OpenWRT-x86_64", (EventKind.CALL, EventKind.RET, EventKind.VMCALL)),
    # guest ISA code: calls and returns come from the TCG engine
    ("TP-Link WDR-7660", (EventKind.CALL, EventKind.RET)),
])
def test_catch_all_subscriber_changes_no_result(monkeypatch, firmware, kinds):
    plain = result_digest(run_campaign(firmware, budget=120, seed=1))
    seen = Counter()
    build = Machine.__init__

    def subscribed(self, *args, **kwargs):
        build(self, *args, **kwargs)
        for kind in (EventKind.CALL, EventKind.RET, EventKind.VMCALL):
            self.hooks.add(kind, lambda event, kind=kind: seen.update([kind]))

    monkeypatch.setattr(Machine, "__init__", subscribed)
    observed = result_digest(run_campaign(firmware, budget=120, seed=1))
    assert observed == plain
    for kind in kinds:
        assert seen[kind] > 0, kind
