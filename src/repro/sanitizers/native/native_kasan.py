"""Native (in-guest) KASAN baseline."""

from __future__ import annotations

from typing import Callable, Optional

from repro.bench.costmodel import CostModel, DEFAULT_COSTS
from repro.emulator.machine import Machine
from repro.guest.context import GuestContext, SanHooks
from repro.mem.access import Access, AccessKind
from repro.sanitizers.runtime.kasan import KasanEngine
from repro.sanitizers.runtime.reports import ReportSink
from repro.sanitizers.runtime.shadow import ShadowMemory


class NativeKasan(SanHooks):
    """KASAN compiled into the kernel, with shadow kept in guest terms.

    The engine logic is shared with the Common Sanitizer Runtime; what
    differs is where the cost lands — every check executes as translated
    guest code, counted in the machine's overhead ledger at the native
    (expansion-multiplied) constants.
    """

    def __init__(
        self,
        machine: Machine,
        costs: CostModel = DEFAULT_COSTS,
        panic_on_report: bool = False,
        symbolizer: Optional[Callable[[int], str]] = None,
    ):
        self.machine = machine
        self.costs = costs
        self.shadow = ShadowMemory(machine.bus)
        self.sink = ReportSink(panic_on_report=panic_on_report, symbolizer=symbolizer)
        self.engine = KasanEngine(self.shadow, self.sink)
        self.enabled = True
        ledger = machine.ledger
        self._counts = ledger.counts
        self._check = ledger.slot(native=costs.kasan_native_check)
        self._alloc = ledger.slot(native=costs.kasan_native_alloc)
        self._stack_var = ledger.slot(native=costs.kasan_native_alloc / 2)
        self._range = ledger.slot(native=0.01)

    # -- scalar accesses ------------------------------------------------
    def on_load(self, ctx: GuestContext, addr: int, size: int,
                atomic: bool = False) -> None:
        if not self.enabled:
            return
        self._counts[self._check] += 1
        self.engine.check(
            Access(addr, size, False, ctx.current_pc(), self.machine.current_task)
        )

    def on_store(self, ctx: GuestContext, addr: int, size: int,
                 atomic: bool = False) -> None:
        if not self.enabled:
            return
        self._counts[self._check] += 1
        self.engine.check(
            Access(addr, size, True, ctx.current_pc(), self.machine.current_task)
        )

    def on_range(self, ctx: GuestContext, addr: int, size: int,
                 is_write: bool) -> None:
        if not self.enabled:
            return
        self._counts[self._range] += self.costs.range_centi(
            size, "native", "kasan")
        self.engine.check(
            Access(addr, size, is_write, ctx.current_pc(),
                   self.machine.current_task, kind=AccessKind.RANGE)
        )

    # -- allocator hooks ---------------------------------------------------
    def on_alloc(self, ctx: GuestContext, addr: int, size: int, cache: int) -> None:
        self._counts[self._alloc] += 1
        self.engine.on_alloc(addr, size, cache, ctx.caller_pc(),
                             self.machine.current_task)

    def on_free(self, ctx: GuestContext, addr: int) -> None:
        self._counts[self._alloc] += 1
        self.engine.on_free(addr, ctx.caller_pc(), self.machine.current_task)

    def on_slab_page(self, ctx: GuestContext, addr: int, size: int) -> None:
        self._counts[self._alloc] += 1
        self.engine.on_slab_page(addr, size)

    # -- compile-time object registration ----------------------------------
    def on_global(self, ctx: GuestContext, addr: int, size: int,
                  redzone: int) -> None:
        self.engine.register_global(addr, size, redzone)

    def on_stack_var(self, ctx: GuestContext, addr: int, size: int) -> None:
        self._counts[self._stack_var] += 1
        self.engine.stack_var(addr, size)

    def on_stack_leave(self, ctx: GuestContext, base: int, size: int) -> None:
        self.engine.stack_clear(base, size)

    # ------------------------------------------------------------------
    @property
    def reports(self) -> ReportSink:
        """The baseline's report sink."""
        return self.sink
