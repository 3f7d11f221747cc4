"""Sanitizer reports and the report sink.

Report text follows the KASAN/KCSAN dmesg shape so downstream tooling
(dedup, reproducer triage, the fuzzers' crash oracles) can treat EMBSAN
output like native sanitizer output — the soundness-replay experiment
(§4.2) relies on the two being comparable.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.errors import SanitizerViolation


class BugType(enum.Enum):
    """Bug classes reported by the engines."""

    SLAB_OOB = "slab-out-of-bounds"
    GLOBAL_OOB = "global-out-of-bounds"
    STACK_OOB = "stack-out-of-bounds"
    UAF = "use-after-free"
    DOUBLE_FREE = "double-free"
    INVALID_FREE = "invalid-free"
    WILD_ACCESS = "wild-memory-access"
    NULL_DEREF = "null-ptr-deref"
    DATA_RACE = "data-race"
    UNINIT_READ = "uninit-value"  #: KMSAN-functionality extension
    HANG = "guest-hang"  #: watchdog-detected wedge (crash oracle, not a sanitizer)

    @property
    def census_class(self) -> str:
        """The coarse Table-3 class: OOB / UAF / Double Free / Race."""
        if self in (BugType.SLAB_OOB, BugType.GLOBAL_OOB, BugType.STACK_OOB,
                    BugType.WILD_ACCESS, BugType.NULL_DEREF):
            return "OOB Access"
        if self is BugType.UAF:
            return "UAF"
        if self in (BugType.DOUBLE_FREE, BugType.INVALID_FREE):
            return "Double Free"
        if self is BugType.UNINIT_READ:
            return "Uninit Value"
        if self is BugType.HANG:
            return "Hang"
        return "Race"


class SanitizerReport:
    """One sanitizer finding.

    ``shadow_window`` is an alternative to a rendered ``shadow_dump``:
    any object whose ``render()`` returns the dump text (a
    :class:`~repro.sanitizers.runtime.shadow.ShadowWindow`).  The text
    is rendered the first time :attr:`shadow_dump` is read, so reports
    nobody prints never pay for formatting.
    """

    def __init__(
        self,
        tool: str,
        bug_type: BugType,
        addr: int,
        size: int,
        is_write: bool,
        pc: int,
        task: int,
        location: str = "",
        detail: str = "",
        alloc_pc: int = 0,
        free_pc: int = 0,
        second_pc: int = 0,
        shadow_dump: str = "",
        shadow_window=None,
    ):
        self.tool = tool
        self.bug_type = bug_type
        self.addr = addr
        self.size = size
        self.is_write = is_write
        self.pc = pc
        self.task = task
        self.location = location
        self.detail = detail
        self.alloc_pc = alloc_pc
        self.free_pc = free_pc
        self.second_pc = second_pc
        self._shadow_dump = shadow_dump
        self._shadow_window = shadow_window

    @property
    def shadow_dump(self) -> str:
        """The dmesg-style shadow dump, rendered on first read."""
        window = self._shadow_window
        if window is not None:
            self._shadow_dump = window.render()
            self._shadow_window = None
        return self._shadow_dump

    def dedup_key(self) -> tuple:
        """Reports with the same key are one bug (syzkaller-style dedup).

        Data races key on the racing word instead of the reporting
        location: the same race observed from either side (syscall path
        vs kthread) is one bug, while two distinct races through the
        same function (neighbouring counters) stay distinct.
        """
        # ``_value_`` is ``value`` without the enum property's two
        # Python-level calls (the fuzzer keys every report it sees)
        if self.bug_type is BugType.DATA_RACE:
            return (self.tool, self.bug_type._value_, self.addr & ~0x3)
        return (self.tool, self.bug_type._value_, self.location)

    def __str__(self) -> str:
        rw = "write" if self.is_write else "read"
        head = (
            f"BUG: {self.tool.upper()}: {self.bug_type.value} in "
            f"{self.location or hex(self.pc)}\n"
            f"{rw} of size {self.size} at addr {self.addr:#010x} "
            f"by task {self.task} pc {self.pc:#010x}"
        )
        lines = [head]
        if self.alloc_pc:
            lines.append(f"allocated at pc {self.alloc_pc:#010x}")
        if self.free_pc:
            lines.append(f"freed at pc {self.free_pc:#010x}")
        if self.second_pc:
            lines.append(f"racing access at pc {self.second_pc:#010x}")
        if self.detail:
            lines.append(self.detail)
        if self.shadow_dump:
            lines.append(self.shadow_dump)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SanitizerReport {self.tool}:{self.bug_type.value} @ {self.location}>"


class ReportSink:
    """Collects reports, deduplicates, optionally panics on first report.

    ``reports`` holds one entry per hit and ``unique`` the first report
    of each dedup key.  Within one *exec scope* a report is built once
    per key: a later hit with the same key is counted through
    :meth:`repeat`, which appends the scope's first report object for
    that key to ``reports`` and hands that object to the listeners
    again, so hit counts and the keys listeners see are exactly those of
    building every report, but a repeat keeps no address or shadow
    window of its own.  The fuzz engine opens a scope per exec (and per
    reproduction replay) with :meth:`begin_exec`; elsewhere a scope
    lasts as long as the sink.
    """

    def __init__(
        self,
        panic_on_report: bool = False,
        symbolizer: Optional[Callable[[int], str]] = None,
    ):
        self.reports: List[SanitizerReport] = []
        self.unique: Dict[tuple, SanitizerReport] = {}
        self.panic_on_report = panic_on_report
        self.symbolizer = symbolizer
        #: observers notified on every (pre-dedup) report
        self.listeners: List[Callable[[SanitizerReport], None]] = []
        #: dedup key -> first report emitted with it in the current scope
        self._scope: Dict[tuple, SanitizerReport] = {}
        #: pc -> symbolized location, memoized for the current scope
        self._locations: Dict[int, str] = {}

    def begin_exec(self) -> None:
        """Open a new exec scope: the next hit of every key is built."""
        self._scope.clear()
        self._locations.clear()

    def emit(self, report: SanitizerReport) -> SanitizerReport:
        """Record a report; returns it (possibly after symbolization)."""
        if not report.location and self.symbolizer is not None:
            report.location = self.symbolizer(report.pc)
        self.reports.append(report)
        key = report.dedup_key()
        self.unique.setdefault(key, report)
        self._scope.setdefault(key, report)
        for listener in self.listeners:
            listener(report)
        if self.panic_on_report:
            raise SanitizerViolation(report)
        return report

    def repeat(self, tool: str, bug_type: BugType,
               pc: int) -> Optional[SanitizerReport]:
        """Count a hit whose report this scope has already built.

        The key is the one a ``tool`` report of ``bug_type`` at ``pc``
        would get (location-keyed: not for data races).  When a report
        with that key was emitted in the current scope, record the hit
        as :meth:`emit` would (one more ``reports`` entry, the
        listeners called) with that first report, and return it.
        Otherwise, or when reports panic, do nothing and return None:
        the caller builds and emits the report.
        """
        if self.panic_on_report:
            return None
        location = self._locations.get(pc)
        if location is None:
            symbolizer = self.symbolizer
            location = self._locations[pc] = (
                symbolizer(pc) if symbolizer is not None else "")
        first = self._scope.get((tool, bug_type._value_, location))
        if first is not None:
            self.reports.append(first)
            for listener in self.listeners:
                listener(first)
        return first

    # ------------------------------------------------------------------
    def count(self) -> int:
        """Total reports including duplicates."""
        return len(self.reports)

    def unique_count(self) -> int:
        """Distinct bugs after dedup."""
        return len(self.unique)

    def locations(self) -> List[str]:
        """Locations of unique reports, sorted."""
        return sorted(report.location for report in self.unique.values())

    def has(self, bug_type: BugType, location_substr: str = "") -> bool:
        """True when a unique report matches type (and location substring)."""
        return any(
            report.bug_type is bug_type
            and (location_substr in report.location)
            for report in self.unique.values()
        )

    def clear(self) -> None:
        """Drop all collected reports (and open a new exec scope)."""
        self.reports.clear()
        self.unique.clear()
        self.begin_exec()
