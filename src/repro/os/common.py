"""Scaffolding shared by every rehosted kernel.

Provides the kernel base class (boot sequencing, console output, task
management, bug switchboard) and the cooperative scheduler used to
interleave kernel tasks deterministically — which is what makes the
seeded data races observable by KCSAN-style detection.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.emulator.devices import UART_DATA
from repro.emulator.hypercalls import Hypercall
from repro.emulator.machine import Machine
from repro.errors import GuestFault
from repro.guest.context import GuestContext
from repro.guest.module import GuestModule


class BugSwitchboard:
    """Controls which seeded defects are live in a build.

    A kernel build enables the defects matching its firmware/version;
    modules query :meth:`enabled` at the seeded site.  ``triggered``
    records ground truth — which defects actually executed — so tests
    can distinguish "sanitizer missed it" from "path never ran".
    """

    def __init__(self, enabled: Optional[set] = None):
        self._enabled = set(enabled or ())
        self.triggered: List[str] = []

    def enable(self, bug_id: str) -> None:
        """Arm one defect."""
        self._enabled.add(bug_id)

    def enabled(self, bug_id: str) -> bool:
        """True when the defect is armed; records the trigger."""
        if bug_id in self._enabled:
            self.triggered.append(bug_id)
            return True
        return False

    def armed(self) -> set:
        """The set of armed defect ids."""
        return set(self._enabled)


class KernelTask:
    """One kernel task driven by the cooperative scheduler.

    ``body`` is a generator function ``(ctx) -> Iterator[None]``; each
    ``yield`` is a preemption point.  ``fn_addr`` is the task entry's
    guest text address so the task's accesses symbolize correctly.
    """

    def __init__(
        self,
        tid: int,
        name: str,
        body: Callable[[GuestContext], Iterator],
        fn_addr: int = 0,
    ):
        self.tid = tid
        self.name = name
        self.body = body
        self.fn_addr = fn_addr
        self._gen: Optional[Iterator] = None
        self.done = False

    def step(self, ctx: GuestContext) -> bool:
        """Advance the task one slice; returns False when finished."""
        if self.done:
            return False
        if self._gen is None:
            self._gen = self.body(ctx)
        try:
            with ctx.kthread_frame(self.fn_addr):
                next(self._gen)
            return True
        except StopIteration:
            self.done = True
            return False


class Scheduler:
    """Deterministic round-robin over kernel tasks."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.tasks: List[KernelTask] = []
        self._next_tid = 2  # tid 0 = boot, tid 1 = the syscall issuer
        self.switches = 0

    def spawn(
        self,
        name: str,
        body: Callable[[GuestContext], Iterator],
        fn_addr: int = 0,
    ) -> KernelTask:
        """Create a task; it runs on subsequent :meth:`tick` calls."""
        task = KernelTask(self._next_tid, name, body, fn_addr=fn_addr)
        self._next_tid += 1
        self.tasks.append(task)
        return task

    def tick(self, ctx: GuestContext, slices: int = 1) -> int:
        """Give every live task ``slices`` time slices; returns steps run."""
        steps = 0
        for _ in range(slices):
            for task in list(self.tasks):
                if task.done:
                    continue
                self.machine.switch_task(task.tid)
                self.switches += 1
                if task.step(ctx):
                    steps += 1
                else:
                    self.tasks.remove(task)
        self.machine.switch_task(1)
        return steps


class KernelBase(GuestModule):
    """Common behaviour for all rehosted kernels.

    Subclasses set :attr:`os_name` and :attr:`banner`, implement
    :meth:`do_boot`, and may expose a syscall table for fuzzing.
    """

    os_name = "generic"
    #: printed on the console when boot completes; the Prober's
    #: category-2/3 dry run locks onto this as the ready-to-run signal.
    banner = "generic kernel ready."

    def __init__(
        self,
        machine: Machine,
        bugs: Optional[BugSwitchboard] = None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name or self.os_name)
        self.machine = machine
        self.bugs = bugs if bugs is not None else BugSwitchboard()
        self.sched = Scheduler(machine)
        self.modules: List[GuestModule] = []
        self.booted = False
        #: the build decides whether READY is signalled by hypercall
        #: (instrumented builds) or only by the console banner.
        self.ready_hypercall = True
        #: the ``driver`` fuzz surface: op number -> handler(ctx, a0, a1, a2),
        #: populated by driver modules at install time (empty on default
        #: builds, so the syscall surface and census are untouched)
        self.driver_ops: dict = {}
        #: op number -> (name, arg choice hints) used by the interface
        #: spec builder; parallel to :attr:`driver_ops`
        self.driver_templates: dict = {}

    # ------------------------------------------------------------------
    def add_module(self, module: GuestModule) -> GuestModule:
        """Attach (and, post-install, wire up) a kernel module."""
        self.modules.append(module)
        return module

    # ------------------------------------------------------------------
    def boot(self, ctx: GuestContext) -> None:
        """Install the kernel + modules, run subclass boot, signal ready."""
        if self.booted:
            raise GuestFault("kernel booted twice")
        self.install(ctx)
        for module in self.modules:
            module.install(ctx)
        self.machine.switch_task(1)
        self.do_boot(ctx)
        self.printk(ctx, self.banner + "\n")
        if self.ready_hypercall:
            self.machine.vmcall(Hypercall.READY, [])
        self.booted = True

    def do_boot(self, ctx: GuestContext) -> None:
        """Subclass hook: initialize allocators and subsystems."""

    # ------------------------------------------------------------------
    def register_driver_op(self, nr: int, handler, name: str,
                           arg_hints=()) -> None:
        """Expose one driver entry point on the ``driver`` fuzz surface.

        ``handler(ctx, a0, a1, a2) -> int`` is typically a bound
        guest function, so calls emit CALL/RET events and symbolize.
        ``arg_hints`` is a per-argument tuple of interesting concrete
        choices the interface spec turns into generators.
        """
        if nr in self.driver_ops:
            raise GuestFault(f"driver op {nr} registered twice")
        self.driver_ops[nr] = handler
        self.driver_templates[nr] = (name, tuple(arg_hints))

    def driver_invoke(self, ctx: GuestContext, nr: int,
                      a0: int = 0, a1: int = 0, a2: int = 0) -> int:
        """Dispatch one ``driver``-surface call (ioctl-style)."""
        handler = self.driver_ops.get(nr)
        ctx.machine.charge_guest(4)
        if handler is None:
            return -1
        return handler(ctx, a0, a1, a2)

    def probe_workload(self, ctx: GuestContext) -> None:
        """Benign post-boot self-test exercising the allocators.

        The Prober's category-2/3 dry runs watch this activity to
        identify allocator entry points behaviourally; firmware whose
        boot path allocates little would otherwise be unprobeable
        without manual hints (§3.2).
        """

    # ------------------------------------------------------------------
    def printk(self, ctx: GuestContext, text: str) -> None:
        """Write to the console UART's data register, byte by byte."""
        machine = self.machine
        uart = machine.uart
        if uart is None:
            for byte in text.encode():
                machine.vmcall(Hypercall.PUTC, [byte])
            return
        # device stores are uncached/uninstrumented in real kernels, so
        # each byte goes straight to the UART model's MMIO write
        mmio_write = uart.region.on_write
        for byte in text.encode():
            machine.charge_guest(2)
            mmio_write(UART_DATA, 1, byte)

    def panic(self, ctx: GuestContext, code: int) -> None:
        """Guest panic: raises :class:`repro.emulator.machine.GuestPanic`."""
        self.machine.vmcall(Hypercall.PANIC, [code])
