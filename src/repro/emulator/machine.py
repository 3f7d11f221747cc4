"""The Machine: bus + engines + devices + hook dispatch + cycle accounting.

One :class:`Machine` hosts one firmware instance.  It is deliberately
similar in role to a QEMU board model: the firmware (rehosted Python
kernel and/or EVM32 binaries) runs *inside* it, while sanitizers,
fuzzers and the Prober observe it from *outside* — through the probe
plan (``calls``, ``rets``, ``vmcalls``) and the hook registry — never by
patching the guest.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.costmodel import OverheadLedger
from repro.emulator.arch import Arch
from repro.emulator.devices import DMA_IRQ, DmaEngine, Timer, Uart
from repro.emulator.events import (
    CallEvent,
    ConsoleEvent,
    EventKind,
    InterruptEvent,
    RetEvent,
    TaskSwitchEvent,
    VmcallEvent,
)
from repro.emulator.hooks import HookRegistry, ProbeTable
from repro.emulator.hypercalls import Hypercall
from repro.emulator.watchdog import Watchdog
from repro.errors import GuestFault
from repro.isa.cpu import Cpu
from repro.isa.tcg import TcgEngine
from repro.mem.bus import MemoryBus
from repro.mem.regions import MemoryRegion, Perm


#: the hypercalls the machine acts on itself, as plain ints: reading an
#: IntEnum member off its class costs more than the compare
_READY = int(Hypercall.READY)
_PANIC = int(Hypercall.PANIC)
_PUTC = int(Hypercall.PUTC)


class GuestPanic(GuestFault):
    """The guest invoked its panic path (``Hypercall.PANIC``)."""


class Machine:
    """An emulated embedded platform instance."""

    def __init__(self, arch: Arch, name: str = "machine"):
        self.arch = arch
        self.name = name
        self.bus = MemoryBus()
        #: the MEM_ACCESS fan-out, bound once so it can be detached by
        #: identity; it sits on the bus only while someone subscribes
        self._bus_fanout = self._on_bus_access
        #: the probe plan (see emulator/hooks.py): guest calls and returns
        #: keyed by call target, hypercalls keyed by number
        self.calls = ProbeTable()
        self.rets = ProbeTable()
        self.vmcalls = ProbeTable()
        #: the symbol a rehosted function's CALL/RET events carry, by
        #: entry address (None for a stripped module's functions)
        self.fn_names: Dict[int, Optional[str]] = {}
        self.hooks = HookRegistry(
            on_change=self._sync_bus_fanout, plan=self._plan_subscriber
        )
        self.engines: List[object] = []
        #: callbacks fired when an execution engine is attached; the
        #: Common Sanitizer Runtime uses this to inject TCG probes into
        #: engines created after it attached (e.g. at guest boot)
        self.engine_listeners: List[object] = []
        self.symbols: Dict[str, int] = {}

        self.ready = False
        self.panicked: Optional[int] = None
        self.current_task = 0

        # cycle accounting: guest work vs sanitizer-added overhead
        self._charged_guest_cycles = 0
        self.ledger = OverheadLedger()

        #: optional hang guard shared by every engine and charge_guest
        self.watchdog = None
        #: optional deterministic fault-injection plan (see emulator/faults.py)
        self.fault_plan = None
        #: delayed interrupts: [remaining_ticks, irq, device] triples, FIFO
        self._pending_irqs: List[list] = []
        self.irqs_delivered = 0
        #: objects with save_state()/load_state() captured and rewound by
        #: the fork server, so host-side state (board devices, shadow
        #: memory, allocator maps) stays coherent with guest memory
        self.state_providers: List[object] = []
        #: modeled peripherals (repro.periph.DeviceModel) attached via
        #: :meth:`attach_periph`; harvested as the periph.* counters
        self.periphs: List[object] = []

        self._build_board()

    # ------------------------------------------------------------------
    # board construction
    # ------------------------------------------------------------------
    def _build_board(self) -> None:
        self.uart: Optional[Uart] = None
        self.timer: Optional[Timer] = None
        self.dma: Optional[DmaEngine] = None
        for spec in self.arch.memory_map:
            if spec.kind == "device":
                if spec.name == "uart":
                    device = self.uart = Uart(
                        spec.base, on_byte=self._on_console_byte)
                elif spec.name == "timer":
                    device = self.timer = Timer(spec.base)
                elif spec.name == "dma":
                    device = self.dma = DmaEngine(
                        spec.base, self.bus, on_complete=self._on_dma_complete
                    )
                else:
                    continue
                # a provider like any attached periph, but not listed in
                # periphs: the periph.* counters cover modeled devices only
                self.bus.map(device.region)
                self.state_providers.append(device)
            else:
                perm = Perm.RWX if spec.kind == "flash" else Perm.RW
                self.bus.map(
                    MemoryRegion(spec.name, spec.base, spec.size, perm, spec.kind)
                )

    def attach_periph(self, device):
        """Map a modeled peripheral (:mod:`repro.periph`) onto the bus.

        The device picks up three integrations for free: its MMIO
        region joins the address space, its functional state joins the
        fork server's provider list (register files, ring indices and
        pending work restore coherently), and it is listed
        for ``periph.*`` observability harvesting.  The default board
        never calls this, so device-less firmware is untouched.
        """
        self.bus.map(device.region)
        self.periphs.append(device)
        self.state_providers.append(device)
        return device

    def free_mmio_base(self) -> int:
        """The lowest address above every mapped region (periph homes)."""
        return max(region.end for region in self.bus.regions)

    def _on_bus_access(self, access) -> None:
        self.hooks.emit(EventKind.MEM_ACCESS, access)

    def _sync_bus_fanout(self) -> None:
        """Route bus accesses into the hooks only while MEM_ACCESS is heard.

        With no MEM_ACCESS handler the fan-out is detached, so the bus
        builds no ``Access`` at all.  It re-attaches ahead of every other
        bus observer, so hook subscribers keep seeing each access first.
        """
        bus = self.bus
        fanout = self._bus_fanout
        attached = fanout in bus._observers
        if self.hooks.has_handlers(EventKind.MEM_ACCESS):
            if not attached:
                bus._set_observers((fanout,) + bus._observers)
        elif attached:
            bus.remove_observer(fanout)

    def _on_console_byte(self, byte: int) -> None:
        hooks = self.hooks
        if hooks.has_handlers(EventKind.CONSOLE):
            hooks.emit(EventKind.CONSOLE, ConsoleEvent(byte))

    def _on_dma_complete(self) -> None:
        self.raise_irq(DMA_IRQ, device="dma")

    # ------------------------------------------------------------------
    # hardening: watchdog + fault injection + interrupts
    # ------------------------------------------------------------------
    def set_watchdog(
        self,
        insn_budget: Optional[int] = None,
        cycle_budget: Optional[float] = None,
    ):
        """Arm a :class:`~repro.emulator.watchdog.Watchdog` on this machine.

        The watchdog is shared by every attached engine (present and
        future) and by :meth:`charge_guest`, so both EVM32 code and
        rehosted Python kernels are guarded.  Passing no budgets disarms.
        """
        if insn_budget is None and cycle_budget is None:
            self.clear_watchdog()
            return None
        self.watchdog = Watchdog(
            insn_budget=insn_budget, cycle_budget=cycle_budget, machine=self
        )
        for engine in self.engines:
            engine.watchdog = self.watchdog
        return self.watchdog

    def clear_watchdog(self) -> None:
        """Disarm the watchdog on the machine and every engine."""
        self.watchdog = None
        for engine in self.engines:
            engine.watchdog = None

    def set_fault_plan(self, plan):
        """Install a :class:`~repro.emulator.faults.FaultPlan` (or None).

        The plan is consulted by the bus (read bit-flips), the rehosted
        allocators (injected allocation failures) and :meth:`raise_irq`
        (dropped/delayed interrupts).
        """
        self.fault_plan = plan
        self.bus.fault_plan = plan
        return plan

    def raise_irq(self, irq: int, device: str = "board") -> bool:
        """Deliver a device interrupt, subject to the fault plan.

        Returns True when the interrupt was delivered immediately; a
        dropped interrupt returns False and a delayed one is queued until
        enough :meth:`tick_irqs` steps elapse.
        """
        plan = self.fault_plan
        if plan is not None:
            action, delay = plan.irq_action(irq)
            if action == "drop":
                return False
            if action == "delay":
                self._pending_irqs.append([delay, irq, device])
                return False
        self._deliver_irq(irq, device)
        return True

    def _deliver_irq(self, irq: int, device: str = "board") -> None:
        self.irqs_delivered += 1
        hooks = self.hooks
        if hooks.has_handlers(EventKind.INTERRUPT):
            hooks.emit(EventKind.INTERRUPT, InterruptEvent(irq, device))

    def tick_irqs(self) -> None:
        """Advance delayed-interrupt countdowns by one step.

        Called from the hypercall path so delayed interrupts drain at
        deterministic points in the guest's own timeline rather than on a
        host clock.
        """
        if not self._pending_irqs:
            return
        still: List[list] = []
        for entry in self._pending_irqs:
            entry[0] -= 1
            if entry[0] <= 0:
                self._deliver_irq(entry[1], entry[2])
            else:
                still.append(entry)
        self._pending_irqs = still

    # ------------------------------------------------------------------
    # execution engines
    # ------------------------------------------------------------------
    def add_cpu(self, pc: int = 0, sp: int = 0, engine: str = "tcg"):
        """Attach an execution engine for EVM32 code.

        ``engine`` selects the implementation: ``"tcg"`` (translation
        blocks, specialized closures — the default) or ``"interp"`` (the
        reference single-step :class:`Cpu`, kept as the test oracle).
        """
        if engine == "tcg":
            core = TcgEngine(self.bus, pc=pc, sp=sp, hypercall=self._hypercall)
        elif engine == "interp":
            core = Cpu(self.bus, pc=pc, sp=sp, hypercall=self._hypercall)
        else:
            raise ValueError(f"unknown engine kind {engine!r}")
        core.call_probes.append(self._on_isa_call)
        core.ret_probes.append(self._on_isa_ret)
        core.watchdog = self.watchdog
        self.engines.append(core)
        for listener in self.engine_listeners:
            listener(core)
        return core

    def _on_isa_call(self, pc: int, target: int, args: List[int], lr: int) -> None:
        calls = self.calls
        task = self.current_task
        for handler in calls.keyed.get(target, calls.default):
            handler(pc, target, args, task)

    def _on_isa_ret(self, pc: int, retval: int) -> None:
        # an ISA return is keyed by the RET instruction's own pc
        rets = self.rets
        task = self.current_task
        for handler in rets.keyed.get(pc, rets.default):
            handler(pc, retval, task)

    # ------------------------------------------------------------------
    # catch-all adapters: HookRegistry subscribers to CALL/RET/VMCALL
    # ------------------------------------------------------------------
    def _plan_subscriber(self, kind: EventKind, handler):
        """The probe table and event-building adapter for a hook
        subscriber to a planned kind; None for a broadcast kind."""
        names = self.fn_names
        if kind is EventKind.CALL:
            symbol_at = self.symbol_at

            def on_call(pc: int, target: int, args: List[int],
                        task: int) -> None:
                # rehosted functions carry their visible name; ISA call
                # targets resolve through the symbol table
                name = names[target] if target in names else symbol_at(target)
                handler(CallEvent(pc, target, args, task, name))

            return self.calls, on_call
        if kind is EventKind.RET:
            def on_ret(target: int, retval: int, task: int) -> None:
                handler(RetEvent(target, retval, task, names.get(target)))

            return self.rets, on_ret
        if kind is EventKind.VMCALL:
            def on_vmcall(number: int, args: List[int], pc: int,
                          task: int) -> None:
                handler(VmcallEvent(number, list(args), pc, task))

            return self.vmcalls, on_vmcall
        return None

    # ------------------------------------------------------------------
    # hypercalls
    # ------------------------------------------------------------------
    def _hypercall(self, engine, number: int) -> Optional[int]:
        args = [engine.state.read(i) for i in range(1, 5)]
        return self.vmcall(number, args, pc=engine.state.pc)

    def vmcall(
        self, number: int, args: List[int], pc: int = 0, task: Optional[int] = None
    ) -> Optional[int]:
        """Dispatch a hypercall (from ISA trap or rehosted guest code)."""
        if task is None:
            task = self.current_task
        vmcalls = self.vmcalls
        for handler in vmcalls.keyed.get(number, vmcalls.default):
            handler(number, args, pc, task)
        if self._pending_irqs:
            self.tick_irqs()
        plan = self.fault_plan
        if plan is not None:
            storm = plan.irq_storm()
            if storm is not None:
                irq, count = storm
                for _ in range(count):
                    self._deliver_irq(irq, device="irq-storm")
        if number == _READY:
            self.mark_ready()
        elif number == _PANIC:
            self.panicked = args[0] if args else 0
            raise GuestPanic(f"guest panic code {self.panicked:#x} at pc {pc:#x}")
        elif number == _PUTC and self.uart is not None:
            self.uart.region.write(self.uart.base, bytes([args[0] & 0xFF]))
        return None

    def mark_ready(self) -> None:
        """Record the ready-to-run state and notify observers once."""
        if not self.ready:
            self.ready = True
            self.hooks.emit(EventKind.READY, None)

    # ------------------------------------------------------------------
    # guest scheduling
    # ------------------------------------------------------------------
    def switch_task(self, task: int) -> None:
        """Record a guest scheduler context switch."""
        prev = self.current_task
        if prev == task:
            return
        self.current_task = task
        for engine in self.engines:
            engine.state.task = task
        hooks = self.hooks
        if hooks.has_handlers(EventKind.TASK_SWITCH):
            hooks.emit(EventKind.TASK_SWITCH, TaskSwitchEvent(prev, task))

    # ------------------------------------------------------------------
    # symbols
    # ------------------------------------------------------------------
    def add_symbols(self, symbols: Dict[str, int]) -> None:
        """Register symbol-name -> address mappings (empty when stripped)."""
        self.symbols.update(symbols)
        self._addr_to_name = {addr: name for name, addr in self.symbols.items()}

    def symbol_at(self, addr: int) -> Optional[str]:
        """Reverse-resolve an address to a symbol name, if known."""
        table = getattr(self, "_addr_to_name", None)
        if table is None:
            return None
        return table.get(addr)

    def resolve(self, name: str) -> int:
        """Resolve a symbol name to its address."""
        return self.symbols[name]

    # ------------------------------------------------------------------
    # cycle accounting
    # ------------------------------------------------------------------
    def charge_guest(self, cycles: int) -> None:
        """Account guest work not tied to an ISA engine (rehosted code).

        When a watchdog is armed this is also its metering point for
        rehosted kernels: a kernel wedged in a Python-side loop still
        charges cycles here and trips the cycle budget with a
        :class:`~repro.errors.GuestHang`.
        """
        self._charged_guest_cycles += cycles
        watchdog = self.watchdog
        if watchdog is not None:
            watchdog.cycles += cycles
            budget = watchdog.cycle_budget
            if budget is not None and watchdog.cycles > budget:
                watchdog.trip_cycles(self.current_task)

    @property
    def guest_cycles(self) -> int:
        """Guest work: ISA engine cycles plus charged rehosted cycles."""
        return self._charged_guest_cycles + sum(
            engine.cycles for engine in self.engines
        )

    @property
    def overhead_cycles(self) -> float:
        """Sanitizer-added work (host checks or translated routines)."""
        return self.ledger.total() / 100

    @property
    def total_cycles(self) -> float:
        """Guest work plus sanitizer overhead; Figure 2 divides these."""
        return self.guest_cycles + self.overhead_cycles

    def reset_counters(self) -> None:
        """Zero all cycle counters (start of a measured workload)."""
        self._charged_guest_cycles = 0
        self.ledger.reset()
        for engine in self.engines:
            engine.cycles = 0
            engine.insn_count = 0

    # ------------------------------------------------------------------
    def console_text(self) -> str:
        """Everything the guest printed so far."""
        return self.uart.text() if self.uart is not None else ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.name!r}, arch={self.arch.name!r}, ready={self.ready})"
