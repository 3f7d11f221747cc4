"""Native (in-guest) KCSAN baseline."""

from __future__ import annotations

from typing import Callable, Optional

from repro.bench.costmodel import CostModel, DEFAULT_COSTS
from repro.emulator.machine import Machine
from repro.guest.context import GuestContext, SanHooks
from repro.mem.access import Access
from repro.sanitizers.runtime.kcsan import KcsanEngine
from repro.sanitizers.runtime.reports import ReportSink


class NativeKcsan(SanHooks):
    """KCSAN compiled into the kernel; watchpoint logic runs translated."""

    def __init__(
        self,
        machine: Machine,
        costs: CostModel = DEFAULT_COSTS,
        panic_on_report: bool = False,
        symbolizer: Optional[Callable[[int], str]] = None,
    ):
        self.machine = machine
        self.costs = costs
        self.sink = ReportSink(panic_on_report=panic_on_report, symbolizer=symbolizer)
        self.engine = KcsanEngine(self.sink)
        self.enabled = True
        ledger = machine.ledger
        self._counts = ledger.counts
        self._check = ledger.slot(native=costs.kcsan_native_check)
        self._range = ledger.slot(native=0.01)

    def on_load(self, ctx: GuestContext, addr: int, size: int,
                atomic: bool = False) -> None:
        if not self.enabled:
            return
        self._counts[self._check] += 1
        self.engine.check(
            Access(addr, size, False, ctx.current_pc(),
                   self.machine.current_task, atomic=atomic)
        )

    def on_store(self, ctx: GuestContext, addr: int, size: int,
                 atomic: bool = False) -> None:
        if not self.enabled:
            return
        self._counts[self._check] += 1
        self.engine.check(
            Access(addr, size, True, ctx.current_pc(),
                   self.machine.current_task, atomic=atomic)
        )

    def on_range(self, ctx: GuestContext, addr: int, size: int,
                 is_write: bool) -> None:
        if not self.enabled:
            return
        from repro.mem.access import AccessKind

        self._counts[self._range] += self.costs.range_centi(
            size, "native", "kcsan")
        self.engine.check(
            Access(addr, size, is_write, ctx.current_pc(),
                   self.machine.current_task, kind=AccessKind.RANGE)
        )

    @property
    def reports(self) -> ReportSink:
        """The baseline's report sink."""
        return self.sink
