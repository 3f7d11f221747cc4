"""Coverage collection.

Two collectors mirror the two fuzzers' mechanisms:

* :class:`KcovCoverage` — consumes the ``COV_TRACE_PC`` hypercalls a
  kcov-enabled kernel build emits (Syzkaller's mechanism); it is
  planned on that one hypercall number.
* :class:`EmulatorCoverage` — consumes every guest call at the emulator
  level, as a catch-all call probe; works on any OS, instrumented or
  not (Tardis's OS-agnostic mechanism, usable even on the closed-source
  VxWorks target).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.emulator.hypercalls import Hypercall
from repro.emulator.machine import Machine


class CoverageMap:
    """A cumulative set of coverage points with new-coverage tracking."""

    def __init__(self):
        self.points: Set[int] = set()
        self._epoch_new = 0
        self._epoch_points: Set[int] = set()

    def hit(self, point: int) -> None:
        """Record one coverage point."""
        self._epoch_points.add(point)
        if point not in self.points:
            self.points.add(point)
            self._epoch_new += 1

    def begin_input(self) -> None:
        """Start tracking novelty for one fuzz input."""
        self._epoch_new = 0
        self._epoch_points.clear()

    def new_coverage(self) -> int:
        """Points first seen during the current input."""
        return self._epoch_new

    def input_points(self) -> Set[int]:
        """Every point the current input touched (new or not).

        This is the input's coverage *signature* — what the persistent
        corpus stores per entry and what distillation consumes (see
        ``docs/corpus.md``).
        """
        return set(self._epoch_points)

    def reset(self, points: Optional[Set[int]] = None) -> None:
        """Rewind to ``points`` (empty by default), in place.

        The fork-server refresh path reuses the live map instead of
        building a new one: the probe registered at construction
        must survive (the machine persists across restores), so the map
        object can never be replaced — only rewound.  ``points`` is the
        golden capture's point set — a rebuilt map re-collects boot-time
        coverage on every refresh, so a restored one must hold exactly
        those points too or the two modes' final frontiers diverge.
        """
        self.points.clear()
        if points:
            self.points.update(points)
        self._epoch_new = 0
        self._epoch_points.clear()

    def __len__(self) -> int:
        return len(self.points)


class KcovCoverage(CoverageMap):
    """kcov-style coverage from COV_TRACE_PC hypercalls."""

    def __init__(self, machine: Machine):
        super().__init__()
        machine.vmcalls.add(self._on_trace_pc, keys=(Hypercall.COV_TRACE_PC,))

    def _on_trace_pc(self, number: int, args: List[int], pc: int,
                     task: int) -> None:
        if args:
            self.hit(args[0])


class EmulatorCoverage(CoverageMap):
    """OS-agnostic coverage from emulator-level guest calls."""

    def __init__(self, machine: Machine):
        super().__init__()
        machine.calls.add(self._on_call)

    def _on_call(self, pc: int, target: int, args: List[int],
                 task: int) -> None:
        # function entry is the basic-block proxy; fold in one argument
        # nibble so distinct operation shapes count as distinct coverage
        arg = args[0] & 0xF if args else 0
        self.hit((target << 4) | arg)
