"""Freed-object quarantine records.

The engine-side quarantine remembers *who freed what* so use-after-free
reports can cite the allocation and free sites even long after the
object died.  (Reuse-deferral — the allocator-side quarantine — lives in
the slab allocator and is only enabled by instrumented builds, matching
how Linux's KASAN quarantine is part of the slab itself.)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple, Optional


class FreedObject(NamedTuple):
    """Provenance of one freed allocation."""

    addr: int
    size: int
    alloc_pc: int
    free_pc: int
    task: int


class QuarantineLog:
    """Bounded MRU map of freed objects keyed by base address."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._entries: "OrderedDict[int, FreedObject]" = OrderedDict()
        self.evictions = 0
        self.pushes = 0

    def push(self, entry: FreedObject) -> None:
        """Record a free, evicting the oldest record when full."""
        self.pushes += 1
        self._entries.pop(entry.addr, None)
        self._entries[entry.addr] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def pop(self, addr: int) -> Optional[FreedObject]:
        """Remove and return the record at ``addr`` (on realloc)."""
        return self._entries.pop(addr, None)

    def find(self, addr: int) -> Optional[FreedObject]:
        """Find the freed object whose span contains ``addr``."""
        entry = self._entries.get(addr)
        if entry is not None:
            return entry
        for candidate in reversed(self._entries.values()):
            if candidate.addr <= addr < candidate.addr + candidate.size:
                return candidate
        return None

    def recently_freed(self, addr: int) -> bool:
        """True when ``addr`` is the base of a recorded freed object."""
        return addr in self._entries

    def save_state(self) -> "OrderedDict[int, FreedObject]":
        """Copy the log contents (part of the runtime's golden state)."""
        return OrderedDict(self._entries)

    def load_state(self, saved: "OrderedDict[int, FreedObject]") -> None:
        """Restore contents captured by :meth:`save_state`."""
        self._entries = OrderedDict(saved)

    def __len__(self) -> int:
        return len(self._entries)
