"""Unit tests: machine, devices, hooks, hypercalls, snapshots."""

import pytest

from repro.emulator.arch import ARCHS, arch_by_name
from repro.emulator.devices import DMA_CTRL, DMA_DST, DMA_LEN, DMA_SRC, UART_DATA
from repro.emulator.events import EventKind
from repro.emulator.hypercalls import Hypercall
from repro.emulator.machine import GuestPanic
from repro.emulator.snapshot import ForkServer
from repro.mem.access import AccessKind


class TestArch:
    def test_all_archs_resolvable(self):
        for name in ("arm", "mips", "x86"):
            arch = arch_by_name(name)
            assert arch.region("flash").size > 0
            assert arch.region("dram").size > 0

    def test_unknown_arch(self):
        with pytest.raises(KeyError):
            arch_by_name("riscv")

    def test_trap_insns_differ(self):
        traps = {arch.trap_insn for arch in ARCHS.values()}
        assert traps == {"hvc", "syscall", "vmcall"}

    def test_memory_maps_do_not_overlap(self):
        for arch in ARCHS.values():
            spans = sorted((r.base, r.base + r.size) for r in arch.memory_map)
            for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
                assert e1 <= s2, arch.name


class TestMachineBoard:
    def test_devices_mapped(self, machine):
        assert machine.uart is not None
        assert machine.timer is not None
        assert machine.dma is not None

    def test_uart_capture_and_event(self, machine):
        seen = []
        machine.hooks.add(EventKind.CONSOLE, seen.append)
        base = machine.uart.base
        for byte in b"ok":
            machine.bus.store(base + UART_DATA, 1, byte)
        assert machine.console_text() == "ok"
        assert [e.byte for e in seen] == [0x6F, 0x6B]

    def test_timer_ticks(self, machine):
        base = machine.timer.base
        first = machine.bus.load(base, 4)
        second = machine.bus.load(base, 4)
        assert second == first + 1

    def test_dma_transfer_visible_to_observers(self, machine):
        dram = machine.arch.region("dram")
        machine.bus.write_bytes(dram.base, b"payload!")
        kinds = []
        machine.hooks.add(EventKind.MEM_ACCESS, lambda a: kinds.append(a.kind))
        base = machine.dma.base
        with machine.bus.untraced():
            pass  # ensure tracing is on for the programmed transfer
        machine.bus.store(base + DMA_SRC, 4, dram.base)
        machine.bus.store(base + DMA_DST, 4, dram.base + 0x100)
        machine.bus.store(base + DMA_LEN, 4, 8)
        machine.bus.store(base + DMA_CTRL, 4, 1)
        assert machine.bus.read_bytes(dram.base + 0x100, 8) == b"payload!"
        assert AccessKind.DMA in kinds


class TestBusFanout:
    """The MEM_ACCESS fan-out sits on the bus only while it is heard."""

    def test_fresh_machine_has_no_bus_observers(self, machine):
        assert machine.bus._observers == ()

    def test_subscription_attaches_ahead_of_earlier_observers(self, machine):
        order = []
        machine.bus.add_observer(lambda a: order.append("bus"))
        machine.hooks.add(EventKind.CONSOLE, lambda e: None)
        assert len(machine.bus._observers) == 1
        machine.hooks.add(EventKind.MEM_ACCESS, lambda a: order.append("hook"))
        assert machine.bus._observers[0] is machine._bus_fanout
        machine.bus.store(machine.arch.region("dram").base, 4, 1)
        assert order == ["hook", "bus"]
        second = machine.hooks.add(EventKind.MEM_ACCESS, lambda a: None)
        assert machine.bus._observers.count(machine._bus_fanout) == 1
        machine.hooks.remove(EventKind.MEM_ACCESS, second)
        assert machine.bus._observers[0] is machine._bus_fanout

    def test_last_removal_detaches(self, machine):
        handler = machine.hooks.add(EventKind.MEM_ACCESS, lambda a: None)
        machine.hooks.remove(EventKind.MEM_ACCESS, handler)
        assert machine.bus._observers == ()

    def test_clear_detaches(self, machine):
        machine.bus.add_observer(lambda a: None)
        machine.hooks.add(EventKind.MEM_ACCESS, lambda a: None)
        machine.hooks.clear()
        assert machine._bus_fanout not in machine.bus._observers
        assert len(machine.bus._observers) == 1
        machine.hooks.add(EventKind.MEM_ACCESS, lambda a: None)
        machine.hooks.clear(EventKind.MEM_ACCESS)
        assert machine._bus_fanout not in machine.bus._observers


class TestHypercalls:
    def test_ready(self, machine):
        fired = []
        machine.hooks.add(EventKind.READY, fired.append)
        machine.vmcall(Hypercall.READY, [])
        machine.vmcall(Hypercall.READY, [])
        assert machine.ready
        assert len(fired) == 1  # READY only signals once

    def test_panic_raises(self, machine):
        with pytest.raises(GuestPanic):
            machine.vmcall(Hypercall.PANIC, [0x7])
        assert machine.panicked == 0x7

    def test_vmcall_event_payload(self, machine):
        seen = []
        machine.hooks.add(EventKind.VMCALL, seen.append)
        machine.vmcall(Hypercall.SAN_LOAD, [0x100, 4], pc=0x2000, task=5)
        assert seen[0].number == Hypercall.SAN_LOAD
        assert seen[0].args == [0x100, 4]
        assert seen[0].pc == 0x2000 and seen[0].task == 5


class TestTasks:
    def test_switch_emits_event(self, machine):
        seen = []
        machine.hooks.add(EventKind.TASK_SWITCH, seen.append)
        machine.switch_task(3)
        machine.switch_task(3)  # no-op
        machine.switch_task(1)
        assert [(e.prev, e.next) for e in seen] == [(0, 3), (3, 1)]

    def test_engines_follow_task(self, machine):
        core = machine.add_cpu(pc=0, sp=0)
        machine.switch_task(9)
        assert core.state.task == 9


class TestCycles:
    def test_accounting_split(self, machine):
        machine.charge_guest(100)
        ledger = machine.ledger
        ledger.counts[ledger.slot(native=40.5)] += 1
        assert machine.guest_cycles == 100
        assert machine.total_cycles == 140.5
        machine.reset_counters()
        assert machine.total_cycles == 0


class TestSnapshot:
    def test_restore_memory_and_engine(self, machine):
        """A fork-server restore rewinds RAM and engine state, writing
        the register list in place: specialized TCG thunks bind it by
        identity."""
        dram = machine.arch.region("dram")
        core = machine.add_cpu(pc=0x1234, sp=0x2000)
        regs = core.state.regs
        machine.bus.write_bytes(dram.base, b"before")
        fork = ForkServer(machine)
        machine.bus.write_bytes(dram.base, b"AFTER!")
        core.state.pc = 0x9999
        core.state.write(3, 77)
        fork.restore()
        assert machine.bus.read_bytes(dram.base, 6) == b"before"
        assert core.state.pc == 0x1234
        assert core.state.read(3) == 0
        assert core.state.regs is regs

    def test_restore_state_providers(self, machine):
        """The fork server captures registered host-side state (shadow
        memory, quarantine, ...) alongside guest RAM, so a restore
        rewinds the sanitizer's view of the heap together with the heap
        itself.  A plain save_state/load_state pair is enough."""

        class Provider:
            def __init__(self):
                self.value = {"x": 1}

            def save_state(self):
                return dict(self.value)

            def load_state(self, saved):
                self.value = dict(saved)

        provider = Provider()
        machine.state_providers.append(provider)
        fork = ForkServer(machine)
        provider.value["x"] = 99
        fork.restore()
        assert provider.value == {"x": 1}

    def test_board_devices_are_providers_not_periphs(self, machine):
        board = (machine.uart, machine.timer, machine.dma)
        assert all(device in machine.state_providers for device in board)
        assert machine.periphs == []

    def test_runtime_registers_as_state_provider(self, linux_c):
        image, runtime = linux_c
        assert runtime in image.ctx.machine.state_providers
        runtime.detach()
        assert runtime not in image.ctx.machine.state_providers
