"""Instruction/cycle-budget watchdog for guest run loops.

Rehosted firmware routinely wedges: a driver spins on a status bit that
never flips, a boot loop keeps re-entering the same handler, an EVM32
replay suite branches back on itself.  Without a guard the campaign loop
inherits the hang.  A :class:`Watchdog` sits beside the execution
engines and the rehosted-code cycle accountant and converts a blown
budget into a structured :class:`~repro.errors.GuestHang` carrying the
trip PC and a short backtrace of recently executed block PCs.

The watchdog meters two independent budgets:

``insn_budget``
    ISA instructions retired since the last :meth:`reset`.  Consumed by
    ``Cpu.run`` per instruction, and metered by ``TcgEngine.run`` once
    per executed translation block with :meth:`consume`'s exact effects
    inlined in its block loop, so a TCG trip overshoots by at most one
    block.

``cycle_budget``
    Guest cycles charged since the last :meth:`reset`.  Metered in line
    by ``Machine.charge_guest`` and by the guest context's scalar
    loads and stores, which is how rehosted Python kernels account
    their work — a kernel spinning in a scheduler loop trips this
    budget even though no ISA engine is running.

Watchdog bookkeeping is sanitizer-style overhead, not guest work: each
check counts one :data:`CHECK_COST` charge in the machine's overhead
ledger so the Figure-2 cost split stays honest (see
``docs/cost_model.md``).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.bench.costmodel import OverheadLedger
from repro.errors import GuestHang

#: overhead cycles charged per watchdog check (one compare + add)
CHECK_COST = 1

#: default number of recent block PCs retained for hang backtraces
BACKTRACE_DEPTH = 16


class Watchdog:
    """A per-machine guard that bounds how long a guest may run unobserved.

    Budgets are measured from the most recent :meth:`reset`; fuzz targets
    reset the watchdog before every program so the budget is per-input,
    not per-campaign.  A ``None``/0 budget disables that dimension.
    """

    def __init__(
        self,
        insn_budget: Optional[int] = None,
        cycle_budget: Optional[float] = None,
        machine=None,
        backtrace_depth: int = BACKTRACE_DEPTH,
    ):
        self.insn_budget = insn_budget or None
        self.cycle_budget = cycle_budget or None
        self.machine = machine
        #: each check adds 1 to this slot of the machine's overhead
        #: ledger (a machine-less watchdog keeps a ledger of its own)
        ledger = machine.ledger if machine is not None else OverheadLedger()
        self.ledger_counts = ledger.counts
        self.check_slot = ledger.slot(watchdog=CHECK_COST)
        self.insns = 0
        self.cycles = 0.0
        self.trips = 0
        self._ring: deque = deque(maxlen=backtrace_depth)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Re-arm both budgets (start of a new input or measured window)."""
        self.insns = 0
        self.cycles = 0.0
        self._ring.clear()

    def backtrace(self) -> tuple:
        """Recently executed block PCs, oldest first."""
        return tuple(self._ring)

    # ------------------------------------------------------------------
    def consume(self, insns: int, pc: int = 0, task: int = 0) -> None:
        """Account ``insns`` retired instructions ending at ``pc``.

        Raises :class:`GuestHang` once the instruction budget is blown.
        """
        self.insns += insns
        self._ring.append(pc)
        self.ledger_counts[self.check_slot] += 1
        budget = self.insn_budget
        if budget is not None and self.insns > budget:
            self._trip("insn", pc, task)

    def trip_cycles(self, task: int = 0) -> None:
        """Raise the cycle-budget :class:`GuestHang`, charging the check;
        callers meter ``cycles`` against the budget in line."""
        self.ledger_counts[self.check_slot] += 1
        self._trip("cycle", 0, task)

    # ------------------------------------------------------------------
    def _trip(self, kind: str, pc: int, task: int) -> None:
        self.trips += 1
        budget = self.insn_budget if kind == "insn" else self.cycle_budget
        raise GuestHang(
            f"guest hang: {kind} budget {budget} exhausted at pc {pc:#x} "
            f"(task {task}, {self.insns} insns, {self.cycles:g} cycles)",
            pc=pc,
            insns=self.insns,
            cycles=self.cycles,
            backtrace=self.backtrace(),
            kind=kind,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Watchdog(insn_budget={self.insn_budget}, "
            f"cycle_budget={self.cycle_budget}, insns={self.insns}, "
            f"cycles={self.cycles:g}, trips={self.trips})"
        )
