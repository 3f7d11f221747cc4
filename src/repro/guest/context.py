"""Guest execution context for rehosted kernel code.

A :class:`GuestContext` is what every rehosted kernel function receives
as its first argument.  It provides the *only* sanctioned way for kernel
code to touch memory — scalar and bulk operations that go through the
machine's bus (hence through sanitizer probes), report realistic program
counters, and charge guest cycles.

Sanitizer build hooks
---------------------
``san_hooks`` carries the effects of the firmware build mode:

* an EMBSAN-C build installs hooks that emit dummy-library hypercalls
  (``SAN_LOAD``/``SAN_STORE``/``SAN_ALLOC``/...) before each operation;
* a native-sanitizer build installs hooks that run the in-guest check
  routine directly (charged as translated guest cycles);
* an EMBSAN-D build installs no hooks at all — the runtime watches the
  bus and probes the allocator entry points in the machine's call plan.

With KASAN alone, a checked scalar access meets one clean-shadow test:
EMBSAN-C hooks offer it to the vmcall plan's clean test before issuing
the hypercall, and the EMBSAN-D bus to its sole observer's before
building an ``Access``.  ``_load``/``_store`` meter guest cycles and the
watchdog and advance the pc in line; ``raw_ld32``/``raw_st32`` use the
bus's silent scalar paths (exactly an untraced access).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.emulator.hypercalls import Hypercall
from repro.emulator.machine import Machine
from repro.errors import GuestFault
from repro.guest.layout import DEFAULT_REDZONE, GuestLayout, STACK_SIZE

#: pc slots per guest function; accesses cycle through them.
_PC_SLOTS = 64
_CALL_CYCLES = 4
_VAR_ALIGN = 8
#: bound once: reading an IntEnum member off its class is an enum
#: attribute lookup, paid on every guest call of a kcov build
_COV_TRACE_PC = Hypercall.COV_TRACE_PC


class SanHooks:
    """Interface for build-time sanitizer hooks; all methods optional no-ops."""

    def on_load(
        self, ctx: "GuestContext", addr: int, size: int, atomic: bool = False
    ) -> None:
        """Before an instrumented load."""

    def on_store(
        self, ctx: "GuestContext", addr: int, size: int, atomic: bool = False
    ) -> None:
        """Before an instrumented store."""

    def on_range(
        self, ctx: "GuestContext", addr: int, size: int, is_write: bool
    ) -> None:
        """Before an instrumented bulk (memcpy-family) operation."""

    def on_alloc(
        self, ctx: "GuestContext", addr: int, size: int, cache: int
    ) -> None:
        """After an allocator returned an object."""

    def on_free(self, ctx: "GuestContext", addr: int) -> None:
        """Before an allocator releases an object."""

    def on_slab_page(self, ctx: "GuestContext", addr: int, size: int) -> None:
        """A fresh page was handed to a slab cache (kasan_poison_slab)."""

    def on_mark_init(self, ctx: "GuestContext", addr: int, size: int) -> None:
        """A span became initialized (__GFP_ZERO, copy_from_user)."""

    def on_global(
        self, ctx: "GuestContext", addr: int, size: int, redzone: int
    ) -> None:
        """At boot, for each instrumented global object."""

    def on_stack_enter(self, ctx: "GuestContext", base: int, size: int) -> None:
        """On entering a frame that owns stack variables."""

    def on_stack_var(self, ctx: "GuestContext", addr: int, size: int) -> None:
        """For each declared stack variable inside the frame."""

    def on_stack_leave(self, ctx: "GuestContext", base: int, size: int) -> None:
        """On leaving a frame that owned stack variables."""


class GuestFrame:
    """One guest call frame; hands out stack-variable addresses."""

    __slots__ = ("ctx", "fn_addr", "base", "sp", "counter", "vars", "entered")

    def __init__(self, ctx: "GuestContext", fn_addr: int, sp: int):
        self.ctx = ctx
        self.fn_addr = fn_addr
        self.base = sp
        self.sp = sp
        self.counter = 0
        self.vars: List[tuple] = []
        self.entered = False

    def var(self, size: int, name: str = "") -> int:
        """Declare a stack variable of ``size`` bytes; returns its address.

        Instrumented builds surround it with poisoned redzone (the space
        is reserved in every build so layout does not depend on mode).
        """
        ctx = self.ctx
        pad = DEFAULT_REDZONE
        total = _align(size + pad, _VAR_ALIGN) + pad
        self.sp -= total
        addr = self.sp + pad
        self.vars.append((addr, size, name))
        if not self.entered:
            self.entered = True
            ctx.san_hooks_stack_enter(self.base)
        for hook in ctx.san_hooks:
            hook.on_stack_var(ctx, addr, size)
        return addr

    def buffer(self, data: bytes, name: str = "") -> int:
        """Declare a stack variable initialized with ``data``."""
        addr = self.var(len(data), name)
        self.ctx.write_bytes(addr, data)
        return addr


class GuestContext:
    """Execution context shared by all rehosted code on one machine."""

    def __init__(self, machine: Machine, layout: Optional[GuestLayout] = None):
        self.machine = machine
        self.layout = layout if layout is not None else GuestLayout(machine)
        self.bus = machine.bus
        self.san_hooks: List[SanHooks] = []
        self._frames: List[GuestFrame] = []
        self._stack_tops: Dict[int, int] = {}
        self._boot_stack = self.layout.alloc_stack(STACK_SIZE)
        self._stack_tops[0] = self._boot_stack
        #: set true while executing allocator internals; sanitizer
        #: runtimes suppress checks in this state (allocator metadata is
        #: not instrumented in real kernels either).
        self.in_allocator = 0

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def alloc_fault(self, size: int) -> bool:
        """True when the machine's fault plan fails this allocation.

        Every rehosted allocator (kmalloc, pvPortMalloc, LOS_MemAlloc,
        memPartAlloc) asks before carving an object; an injected failure
        is indistinguishable from heap exhaustion to the caller.
        """
        plan = self.machine.fault_plan
        return plan is not None and plan.fail_alloc(size, pc=self.current_pc())

    # ------------------------------------------------------------------
    # call mechanics
    # ------------------------------------------------------------------
    def call(self, fn, args: Sequence[int]):
        """Invoke a guest function, running the machine's CALL/RET probes."""
        machine = self.machine
        frames = self._frames
        addr = fn.addr
        if frames:
            top = frames[-1]
            caller_pc = top.fn_addr + 8 * (top.counter % _PC_SLOTS)
        else:
            caller_pc = 0
        int_args = [int(a) & 0xFFFFFFFF for a in args[:4]]
        calls = machine.calls
        task = machine.current_task
        for handler in calls.keyed.get(addr, calls.default):
            handler(caller_pc, addr, int_args, task)
        machine.charge_guest(_CALL_CYCLES)
        if self.kcov_enabled:
            # kcov instruments every function entry; fold the leading
            # argument nibble in so distinct operation shapes separate
            point = (addr << 4) | (int_args[0] & 0xF if int_args else 0)
            machine.vmcall(_COV_TRACE_PC, [point & 0xFFFFFFFF])

        sp = frames[-1].sp if frames else self._task_stack_top()
        frame = GuestFrame(self, addr, sp)
        frames.append(frame)
        try:
            result = fn.pyfunc(self, *args)
        finally:
            if frame.entered:
                self.san_hooks_stack_leave(frame)
            frames.pop()
        retval = int(result) & 0xFFFFFFFF if isinstance(result, int) else 0
        rets = machine.rets
        task = machine.current_task
        for handler in rets.keyed.get(addr, rets.default):
            handler(addr, retval, task)
        return result

    def _task_stack_top(self) -> int:
        task = self.machine.current_task
        top = self._stack_tops.get(task)
        if top is None:
            top = self.layout.alloc_stack(STACK_SIZE)
            self._stack_tops[task] = top
        return top

    def kthread_frame(self, fn_addr: int):
        """Context manager: a pseudo call frame for a kernel task slice.

        Gives task-body accesses a symbolizable pc without a CALL event
        (task bodies are resumed, not called).
        """
        return _KthreadFrame(self, fn_addr)

    @property
    def frame(self) -> GuestFrame:
        """The innermost guest frame."""
        if not self._frames:
            raise GuestFault("no active guest frame")
        return self._frames[-1]

    def current_pc(self) -> int:
        """A realistic pc inside the currently executing guest function."""
        if not self._frames:
            return 0
        frame = self._frames[-1]
        return frame.fn_addr + 8 * (frame.counter % _PC_SLOTS)

    def caller_pc(self) -> int:
        """The pc of the *caller* of the current guest function.

        Allocator hooks report this (like KASAN's ``_RET_IP_``) so free
        and alloc sites attribute to the kernel code using the
        allocator, not the allocator itself.
        """
        if len(self._frames) >= 2:
            frame = self._frames[-2]
            return frame.fn_addr + 8 * (frame.counter % _PC_SLOTS)
        return self.current_pc()

    def _advance_pc(self) -> int:
        if not self._frames:
            return 0
        frame = self._frames[-1]
        pc = frame.fn_addr + 8 * (frame.counter % _PC_SLOTS)
        frame.counter += 1
        return pc

    def where(self, pc: int) -> str:
        """Symbolize a pc using the firmware layout."""
        return self.layout.function_at(pc)

    # ------------------------------------------------------------------
    # scalar memory operations
    # ------------------------------------------------------------------
    # _load and _store inline Machine.charge_guest(2) (watchdog metering
    # included) and _advance_pc(); keep the three in step
    def _load(self, addr: int, size: int, atomic: bool = False) -> int:
        addr &= 0xFFFFFFFF
        if not self.in_allocator:
            for hook in self.san_hooks:
                hook.on_load(self, addr, size, atomic)
        machine = self.machine
        machine._charged_guest_cycles += 2
        watchdog = machine.watchdog
        if watchdog is not None:
            watchdog.cycles += 2
            budget = watchdog.cycle_budget
            if budget is not None and watchdog.cycles > budget:
                watchdog.trip_cycles(machine.current_task)
        frames = self._frames
        if frames:
            frame = frames[-1]
            pc = frame.fn_addr + 8 * (frame.counter % _PC_SLOTS)
            frame.counter += 1
        else:
            pc = 0
        return self.bus.load(addr, size, pc, machine.current_task, atomic)

    def _store(self, addr: int, size: int, value: int, atomic: bool = False) -> None:
        addr &= 0xFFFFFFFF
        if not self.in_allocator:
            for hook in self.san_hooks:
                hook.on_store(self, addr, size, atomic)
        machine = self.machine
        machine._charged_guest_cycles += 2
        watchdog = machine.watchdog
        if watchdog is not None:
            watchdog.cycles += 2
            budget = watchdog.cycle_budget
            if budget is not None and watchdog.cycles > budget:
                watchdog.trip_cycles(machine.current_task)
        frames = self._frames
        if frames:
            frame = frames[-1]
            pc = frame.fn_addr + 8 * (frame.counter % _PC_SLOTS)
            frame.counter += 1
        else:
            pc = 0
        self.bus.store(addr, size, value, pc, machine.current_task, atomic)

    def ld8(self, addr: int) -> int:
        """Load an unsigned byte."""
        return self._load(addr, 1)

    def ld16(self, addr: int) -> int:
        """Load an unsigned halfword."""
        return self._load(addr, 2)

    def ld32(self, addr: int) -> int:
        """Load an unsigned word."""
        return self._load(addr, 4)

    def st8(self, addr: int, value: int) -> None:
        """Store a byte."""
        self._store(addr, 1, value)

    def st16(self, addr: int, value: int) -> None:
        """Store a halfword."""
        self._store(addr, 2, value)

    def st32(self, addr: int, value: int) -> None:
        """Store a word."""
        self._store(addr, 4, value)

    def atomic_st32(self, addr: int, value: int) -> None:
        """Atomic (marked) word store."""
        self._store(addr, 4, value, atomic=True)

    def atomic_add32(self, addr: int, delta: int) -> int:
        """Atomic read-modify-write add; returns the new value."""
        value = (self._load(addr, 4, atomic=True) + delta) & 0xFFFFFFFF
        self._store(addr, 4, value, atomic=True)
        return value

    # ------------------------------------------------------------------
    # bulk memory operations
    # ------------------------------------------------------------------
    def read_bytes(self, addr: int, size: int) -> bytes:
        """Guest bulk read (one RANGE access)."""
        if size == 0:
            return b""
        if not self.in_allocator:
            for hook in self.san_hooks:
                hook.on_range(self, addr, size, False)
        self.machine.charge_guest(1 + size // 8)
        return self.bus.read_bytes(
            addr, size, pc=self._advance_pc(), task=self.machine.current_task
        )

    def write_bytes(self, addr: int, payload: bytes) -> None:
        """Guest bulk write (one RANGE access)."""
        if not payload:
            return
        if not self.in_allocator:
            for hook in self.san_hooks:
                hook.on_range(self, addr, len(payload), True)
        self.machine.charge_guest(1 + len(payload) // 8)
        self.bus.write_bytes(
            addr, payload, pc=self._advance_pc(), task=self.machine.current_task
        )

    def memset(self, addr: int, value: int, size: int) -> None:
        """Guest memset."""
        self.write_bytes(addr, bytes([value & 0xFF]) * size)

    def memcpy(self, dst: int, src: int, size: int) -> None:
        """Guest memcpy (a bulk read then a bulk write)."""
        self.write_bytes(dst, self.read_bytes(src, size))

    # ------------------------------------------------------------------
    # raw (host-side, unobserved) access — loader/debugger use only
    # ------------------------------------------------------------------
    def raw_read(self, addr: int, size: int) -> bytes:
        """Untraced read: never use from kernel logic paths."""
        with self.bus.untraced():
            return self.bus.read_bytes(addr, size)

    def raw_write(self, addr: int, payload: bytes) -> None:
        """Untraced write: never use from kernel logic paths."""
        with self.bus.untraced():
            self.bus.write_bytes(addr, payload)

    def raw_ld32(self, addr: int) -> int:
        """Untraced word load (allocator metadata helper)."""
        return self.bus.load_untraced(addr & 0xFFFFFFFF, 4)

    def raw_st32(self, addr: int, value: int) -> None:
        """Untraced word store (allocator metadata helper)."""
        self.bus.store_silent(addr & 0xFFFFFFFF, 4, value)

    # ------------------------------------------------------------------
    # sanitizer-hook helpers
    # ------------------------------------------------------------------
    def add_san_hooks(self, hooks: SanHooks) -> None:
        """Install build-mode sanitizer hooks (instrumentation pass)."""
        self.san_hooks.append(hooks)

    def notify_alloc(self, addr: int, size: int, cache: int = 0) -> None:
        """Called by allocators after carving out an object.

        Nested allocator calls (a slab refilling from the buddy, a large
        kfree forwarding pages back) are internal backing-store traffic,
        not object lifetime events, so only the outermost allocator call
        reports.
        """
        if self.in_allocator > 1:
            return
        for hook in self.san_hooks:
            hook.on_alloc(self, addr, size, cache)

    def notify_free(self, addr: int) -> None:
        """Called by allocators before releasing an object."""
        if self.in_allocator > 1:
            return
        for hook in self.san_hooks:
            hook.on_free(self, addr)

    def notify_slab_page(self, addr: int, size: int) -> None:
        """Called by the slab when it takes a fresh backing page."""
        for hook in self.san_hooks:
            hook.on_slab_page(self, addr, size)

    def notify_init(self, addr: int, size: int) -> None:
        """Called where the kernel guarantees a span is initialized
        (zeroing allocators, copy_from_user destinations)."""
        for hook in self.san_hooks:
            hook.on_mark_init(self, addr, size)

    def register_global(self, addr: int, size: int, redzone: int) -> None:
        """Called at boot for every firmware global object."""
        for hook in self.san_hooks:
            hook.on_global(self, addr, size, redzone)

    def san_hooks_stack_enter(self, base: int) -> None:
        """Notify hooks that a frame with stack variables was entered."""
        for hook in self.san_hooks:
            hook.on_stack_enter(self, base, STACK_SIZE)

    def san_hooks_stack_leave(self, frame: GuestFrame) -> None:
        """Notify hooks that a frame with stack variables was left."""
        for hook in self.san_hooks:
            hook.on_stack_leave(self, frame.sp, frame.base - frame.sp)

    # ------------------------------------------------------------------
    def work(self, cycles: int) -> None:
        """Charge pure-compute guest work (loops, parsing, checksums)."""
        self.machine.charge_guest(cycles)

    #: set by the firmware build when kcov-style coverage is compiled in
    kcov_enabled = False

    def cov(self, marker: int = 0) -> None:
        """kcov-style coverage beacon (compiled in only when the build
        enables it; Tardis-style OS-agnostic coverage does not need it)."""
        if self.kcov_enabled:
            point = (self.current_pc() ^ (marker * 0x9E3779B1)) & 0xFFFFFFFF
            self.machine.charge_guest(1)
            self.machine.vmcall(_COV_TRACE_PC, [point])


class _KthreadFrame:
    """Context manager pushing/popping a pseudo frame for a task slice."""

    __slots__ = ("ctx", "frame")

    def __init__(self, ctx: GuestContext, fn_addr: int):
        self.ctx = ctx
        self.frame = GuestFrame(ctx, fn_addr, ctx._task_stack_top())

    def __enter__(self) -> GuestFrame:
        self.ctx._frames.append(self.frame)
        return self.frame

    def __exit__(self, *exc) -> None:
        frames = self.ctx._frames
        if frames and frames[-1] is self.frame:
            frames.pop()


def _align(value: int, boundary: int) -> int:
    return (value + boundary - 1) // boundary * boundary
