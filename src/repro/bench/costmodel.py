"""Calibrated per-event sanitizer costs, in guest-cycle units.

Figure 2 reports slowdown *ratios* on a real testbed; our substrate
counts deterministic guest cycles instead of wall-clock time, so the
per-check constants below are the single calibration point of the whole
reproduction (see DESIGN.md, "Calibration note").

The constants encode the paper's §4.3 profiling findings directly:

* EMBSAN pays **interception** cost — a hypercall exit (cheap, EMBSAN-C)
  or a TCG probe with symbolic argument reconstruction and a host
  context switch (dearer, EMBSAN-D) — but its check routine then runs at
  *native host speed*.
* Native sanitizers pay no interception, but their check routines are
  guest code that runs *translated*, i.e. expanded by the TCG expansion
  factor, which is why EMBSAN-C can beat native KASAN.

KCSAN-functionality checks cost several times a KASAN check (watchpoint
set-up/scan), which produces the paper's ~5-6x band.

Every constant is a whole number of centi-cycles, so a machine keeps its
sanitizer-added cycles in an :class:`OverheadLedger` of integer counts
and no sum ever rounds.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: translation expansion: host ops emitted per guest op (QEMU/TCG-like).
TCG_EXPANSION = 2.4


class CostModel(NamedTuple):
    """Per-event sanitizer costs (guest-cycle units)."""

    # -- KASAN functionality, per scalar access ------------------------
    kasan_c_trap: float = 1.2  #: guest-side hypercall issue (EMBSAN-C)
    kasan_c_check: float = 8.55  #: host-native shadow check (EMBSAN-C)
    kasan_d_intercept: float = 3.3  #: probe dispatch + arg reconstruction
    kasan_d_check: float = 2.7  #: host-native shadow check (EMBSAN-D)
    kasan_native_check: float = 3.4375 * TCG_EXPANSION  #: translated routine

    # -- KASAN functionality, per allocator event ----------------------
    kasan_c_alloc: float = 8.0
    kasan_d_alloc: float = 40.0
    kasan_native_alloc: float = 15.0 * TCG_EXPANSION

    # -- KCSAN functionality, per scalar access ------------------------
    kcsan_c_trap: float = 1.2
    kcsan_c_check: float = 32.8
    kcsan_d_intercept: float = 3.3
    kcsan_d_check: float = 20.7
    kcsan_native_check: float = 13.75 * TCG_EXPANSION

    # -- KMSAN functionality (extension; compile-time only, like the
    #    real KMSAN).  No paper band exists: values sit between the
    #    KASAN and KCSAN check costs, reflecting per-byte shadow updates.
    kmsan_c_trap: float = 1.2
    kmsan_c_check: float = 14.0
    kmsan_c_alloc: float = 10.0

    # -- range (memcpy-family) interceptors ------------------------------
    # per-byte: a range check walks one shadow byte per granule, so its
    # cost scales with the span like the guest's own copy loop does.
    # The relative weights encode where each deployment pays: the
    # hypercall fast path amortizes the KASAN walk; dynamic
    # interception reconstructs per chunk.
    kasan_range_c: float = 0.50
    kasan_range_d: float = 0.90
    kasan_range_native: float = 0.10
    kcsan_range_c: float = 2.20
    kcsan_range_d: float = 3.70
    kcsan_range_native: float = 2.40

    # ------------------------------------------------------------------
    def access_cost(self, sanitizer: str, mode: str) -> float:
        """Total added cycles for one checked scalar access.

        ``sanitizer`` is "kasan" or "kcsan"; ``mode`` is "c", "d" or
        "native".
        """
        if sanitizer == "kasan":
            return {
                "c": self.kasan_c_trap + self.kasan_c_check,
                "d": self.kasan_d_intercept + self.kasan_d_check,
                "native": self.kasan_native_check,
            }[mode]
        if sanitizer == "kcsan":
            return {
                "c": self.kcsan_c_trap + self.kcsan_c_check,
                "d": self.kcsan_d_intercept + self.kcsan_d_check,
                "native": self.kcsan_native_check,
            }[mode]
        raise ValueError(f"unknown sanitizer {sanitizer!r}")

    def alloc_cost(self, mode: str) -> float:
        """Total added cycles for one allocator event (KASAN family)."""
        return {
            "c": self.kasan_c_alloc,
            "d": self.kasan_d_alloc,
            "native": self.kasan_native_alloc,
        }[mode]

    def range_centi(self, size: int, mode: str, sanitizer: str = "kasan") -> int:
        """Added centi-cycles for a checked bulk operation of ``size`` bytes."""
        base = {"c": 2.0, "d": 3.6, "native": 2.5 * TCG_EXPANSION}[mode]
        per_byte = getattr(self, f"{sanitizer}_range_{mode}")
        return centi(base) + centi(per_byte) * min(size, 4096)


#: the calibrated instance used everywhere unless a bench overrides it.
DEFAULT_COSTS = CostModel()

#: the §4.3 composition: the categories the sanitizer runtime charges
BREAKDOWN = ("interception", "checks", "allocator", "range")


def centi(cycles: float) -> int:
    """``cycles`` as integer centi-cycles, the ledger's unit.

    Raises :class:`ValueError` unless ``cycles`` is a whole number of
    centi-cycles (up to float representation error): the ledger never
    rounds a charge.
    """
    value = round(cycles * 100)
    if abs(cycles * 100 - value) > 1e-6:
        raise ValueError(f"{cycles!r} is not a whole number of centi-cycles")
    return value


class OverheadLedger:
    """One machine's sanitizer-added cycles, kept as integer counts.

    A *slot* is one kind of charged event, declared once with its cost
    per category: a :data:`BREAKDOWN` category for the sanitizer
    runtime, ``native`` for in-guest sanitizers, ``watchdog`` for budget
    checks.  A hot path then adds 1 to ``counts[slot]``; a variable
    charge (a range check) declares a slot of one centi-cycle and adds
    its exact centi-cycle amount.  Totals are computed when read, so the
    order of charges never matters.  ``counts`` is only ever changed in
    place, because hot paths hold it.
    """

    __slots__ = ("counts", "_costs", "_slots")

    def __init__(self) -> None:
        self.counts: List[int] = []
        #: per slot: ((category, centi-cycles per count), ...)
        self._costs: List[Tuple[Tuple[str, int], ...]] = []
        self._slots: Dict[Tuple[Tuple[str, int], ...], int] = {}

    def slot(self, **cycles: float) -> int:
        """The slot whose every count charges ``cycles`` per category."""
        key = tuple((category, centi(cost)) for category, cost in cycles.items())
        index = self._slots.get(key)
        if index is None:
            index = self._slots[key] = len(self.counts)
            self.counts.append(0)
            self._costs.append(key)
        return index

    def total(self, category: Optional[str] = None) -> int:
        """Centi-cycles charged, in all or in one category."""
        return sum(
            count * cost
            for count, costs in zip(self.counts, self._costs) if count
            for name, cost in costs if category is None or name == category
        )

    def reset(self) -> None:
        """Zero every count (start of a measured workload)."""
        self.counts[:] = [0] * len(self.counts)

    def save(self) -> List[int]:
        """The counts, for :meth:`load`."""
        return list(self.counts)

    def load(self, saved: List[int]) -> None:
        """Rewind to saved counts; a slot declared since counts 0."""
        self.counts[:] = saved + [0] * (len(self.counts) - len(saved))
