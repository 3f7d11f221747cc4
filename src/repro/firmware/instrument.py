"""Compile-time sanitizer instrumentation (the EMBSAN-C build pass).

When a firmware's build system supports sanitizer instrumentation
(category-1 firmware, §3.2), EMBSAN compiles the firmware against a
*dummy sanitizer library* whose every API is a trap instruction.  Here
the pass installs :class:`CompileTimeInstrumentation` hooks on the guest
context: every access, allocator event, global registration and stack
variable issues the corresponding ``SAN_*`` hypercall, exactly what the
dummy library's ``vmcall`` stubs produce on real hardware.

EMBSAN-D builds install nothing: the firmware runs uninstrumented and
the runtime watches the bus.  Native-sanitizer builds install the hooks
from :mod:`repro.sanitizers.native` instead.
"""

from __future__ import annotations

import enum

from repro.emulator.hypercalls import Hypercall
from repro.guest.context import GuestContext, SanHooks

_SAN_LOAD = int(Hypercall.SAN_LOAD)
_SAN_STORE = int(Hypercall.SAN_STORE)


class InstrumentationMode(enum.Enum):
    """How a firmware build was produced."""

    NONE = "none"  #: bare build, no sanitizer artifacts (baseline runs)
    EMBSAN_C = "embsan-c"  #: compile-time dummy-library hypercalls
    EMBSAN_D = "embsan-d"  #: unmodified build; dynamic interception only
    NATIVE = "native"  #: the OS's own in-guest sanitizer compiled in


class CompileTimeInstrumentation(SanHooks):
    """Emits dummy-sanitizer-library hypercalls from instrumented code.

    ``check_reads``/``check_writes`` mirror KASAN's instrumentation
    knobs; both default on.  The same hypercalls serve every sanitizer
    in the merged specification (§3.1): one ``SAN_LOAD`` carries the
    union of the arguments KASAN and KCSAN need (address, size, marked
    flag).
    """

    def __init__(self, check_reads: bool = True, check_writes: bool = True):
        self.check_reads = check_reads
        self.check_writes = check_writes
        self.emitted = 0

    # -- scalar accesses ------------------------------------------------
    # the vmcall plan's clean test settles a clean access, leaving only
    # vmcall's interrupt tick; a fault plan's irq storm draws per call
    def on_load(self, ctx: GuestContext, addr: int, size: int,
                atomic: bool = False) -> None:
        if not self.check_reads:
            return
        self.emitted += 1
        machine = ctx.machine
        clean = machine.vmcalls.clean.get(_SAN_LOAD)
        if (clean is None or machine.fault_plan is not None
                or not clean(addr, size)):
            machine.vmcall(
                Hypercall.SAN_LOAD, [addr, size, int(atomic)],
                pc=ctx.current_pc(), task=machine.current_task,
            )
        elif machine._pending_irqs:
            machine.tick_irqs()

    def on_store(self, ctx: GuestContext, addr: int, size: int,
                 atomic: bool = False) -> None:
        if not self.check_writes:
            return
        self.emitted += 1
        machine = ctx.machine
        clean = machine.vmcalls.clean.get(_SAN_STORE)
        if (clean is None or machine.fault_plan is not None
                or not clean(addr, size)):
            machine.vmcall(
                Hypercall.SAN_STORE, [addr, size, int(atomic)],
                pc=ctx.current_pc(), task=machine.current_task,
            )
        elif machine._pending_irqs:
            machine.tick_irqs()

    # -- bulk interceptors ------------------------------------------------
    def on_range(self, ctx: GuestContext, addr: int, size: int,
                 is_write: bool) -> None:
        self.emitted += 1
        number = Hypercall.SAN_RANGE_WRITE if is_write else Hypercall.SAN_RANGE_READ
        ctx.machine.vmcall(
            number, [addr, size], pc=ctx.current_pc(),
            task=ctx.machine.current_task,
        )

    # -- allocator hooks ---------------------------------------------------
    def on_alloc(self, ctx: GuestContext, addr: int, size: int, cache: int) -> None:
        self.emitted += 1
        ctx.machine.vmcall(
            Hypercall.SAN_ALLOC, [addr, size, cache],
            pc=ctx.caller_pc(), task=ctx.machine.current_task,
        )

    def on_free(self, ctx: GuestContext, addr: int) -> None:
        self.emitted += 1
        ctx.machine.vmcall(
            Hypercall.SAN_FREE, [addr],
            pc=ctx.caller_pc(), task=ctx.machine.current_task,
        )

    def on_slab_page(self, ctx: GuestContext, addr: int, size: int) -> None:
        self.emitted += 1
        ctx.machine.vmcall(
            Hypercall.SAN_SLAB_PAGE, [addr, size],
            pc=ctx.caller_pc(), task=ctx.machine.current_task,
        )

    def on_mark_init(self, ctx: GuestContext, addr: int, size: int) -> None:
        self.emitted += 1
        ctx.machine.vmcall(
            Hypercall.SAN_MARK_INIT, [addr, size],
            pc=ctx.caller_pc(), task=ctx.machine.current_task,
        )

    # -- compile-time-only object registration ----------------------------
    def on_global(self, ctx: GuestContext, addr: int, size: int,
                  redzone: int) -> None:
        self.emitted += 1
        ctx.machine.vmcall(Hypercall.SAN_GLOBAL_REG, [addr, size, redzone])

    def on_stack_enter(self, ctx: GuestContext, base: int, size: int) -> None:
        self.emitted += 1
        ctx.machine.vmcall(Hypercall.SAN_STACK_ENTER, [base, size])

    def on_stack_var(self, ctx: GuestContext, addr: int, size: int) -> None:
        self.emitted += 1
        ctx.machine.vmcall(Hypercall.SAN_STACK_VAR, [addr, size])

    def on_stack_leave(self, ctx: GuestContext, base: int, size: int) -> None:
        self.emitted += 1
        ctx.machine.vmcall(Hypercall.SAN_STACK_LEAVE, [base, size])
