"""KASAN-functionality engine.

The address-sanity logic shared by every deployment mode: EMBSAN-C feeds
it from dummy-library hypercalls, EMBSAN-D from emulator probes, and the
native baseline calls it from inside the guest (paying translated-code
cost).  Only the *event source and cost accounting* differ per mode —
which is precisely the paper's argument for a common runtime.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.mem.access import Access, AccessKind
from repro.sanitizers.runtime.quarantine import FreedObject, QuarantineLog
from repro.sanitizers.runtime.reports import BugType, ReportSink, SanitizerReport
from repro.sanitizers.runtime.shadow import ShadowCode, ShadowMemory

#: redzone poisoned after each heap object (matches the slab pad).
HEAP_REDZONE = 16
#: redzone poisoned around instrumented stack variables.
STACK_REDZONE = 16

_PAGE_CACHE_ID = 0xFFFF

#: above every guest base: ``(end, _NO_BASE)`` sorts after each ``(end, base)``
_NO_BASE = 1 << 64

_CODE_TO_BUG = {
    int(ShadowCode.FREED): BugType.UAF,
    int(ShadowCode.PAGE_FREE): BugType.UAF,
    int(ShadowCode.REDZONE_HEAP): BugType.SLAB_OOB,
    int(ShadowCode.UNALLOCATED): BugType.SLAB_OOB,
    int(ShadowCode.REDZONE_GLOBAL): BugType.GLOBAL_OOB,
    int(ShadowCode.REDZONE_STACK): BugType.STACK_OOB,
}


class AllocInfo(NamedTuple):
    """Host-side record of one live allocation."""

    size: int
    cache: int
    alloc_pc: int
    task: int


class KasanEngine:
    """Shadow-memory address sanitation (OOB / UAF / double-free)."""

    tool = "kasan"

    def __init__(self, shadow: ShadowMemory, sink: ReportSink):
        self.shadow = shadow
        self.sink = sink
        self._live: Dict[int, AllocInfo] = {}
        #: sorted ``(end, base)`` pairs of the live objects; the index
        #: behind :meth:`_object_before`, built lazily (None until first
        #: needed, and again after :attr:`live` is replaced)
        self._ends: Optional[List[Tuple[int, int]]] = None
        self.freed = QuarantineLog()
        #: raised by the runtime while allocator internals execute
        self.suppress_depth = 0
        #: accesses validated; the runtime's inline fast path bumps this
        #: directly when the addressable-granule test already proves an
        #: access clean, so the count is fast-path independent
        self.checks = 0
        #: allocator lifetime events observed (observability counters)
        self.allocs = 0
        self.frees = 0

    @property
    def live(self) -> Dict[int, AllocInfo]:
        """Live allocations by base address.

        Change the map only through :meth:`on_alloc` and
        :meth:`on_free`, or replace it whole by assigning to this
        property (as a fork-server restore does), so the end-address index
        stays in step with it.
        """
        return self._live

    @live.setter
    def live(self, value: Dict[int, AllocInfo]) -> None:
        self._live = value
        self._ends = None

    # ------------------------------------------------------------------
    # allocator state transitions
    # ------------------------------------------------------------------
    def on_alloc(
        self, addr: int, size: int, cache: int, pc: int = 0, task: int = 0
    ) -> None:
        """An object of ``size`` bytes was carved out at ``addr``."""
        if addr == 0 or size <= 0:
            return
        self.allocs += 1
        self.freed.pop(addr)
        live = self._live
        ends = self._ends
        if ends is not None:
            prior = live.get(addr)
            if prior is not None:
                del ends[bisect_left(ends, (addr + prior.size, addr))]
            insort(ends, (addr + size, addr))
        live[addr] = AllocInfo(size, cache, pc, task)
        self.shadow.unpoison(addr, size)
        if cache != _PAGE_CACHE_ID:
            # slab / large-kmalloc objects get a trailing redzone; whole
            # pages do not (KASAN leaves page allocations redzone-free).
            # Tightly packed allocators (heap_4, memPartLib) can place a
            # live neighbour within redzone reach — clamp at it so the
            # neighbour's first bytes stay addressable.
            end = addr + size
            limit = end + HEAP_REDZONE
            for candidate in range(end + 1, limit + 1):
                if candidate in live:
                    limit = candidate
                    break
            if limit > end:
                self.shadow.poison(end, limit - end, ShadowCode.REDZONE_HEAP)

    def on_free(self, addr: int, pc: int = 0, task: int = 0) -> None:
        """An object at ``addr`` is being released."""
        if addr == 0:
            return
        self.frees += 1
        info = self._live.pop(addr, None)
        if info is not None and self._ends is not None:
            ends = self._ends
            del ends[bisect_left(ends, (addr + info.size, addr))]
        if info is None:
            bug = (
                BugType.DOUBLE_FREE
                if self.freed.recently_freed(addr)
                else BugType.INVALID_FREE
            )
            prior = self.freed.find(addr)
            self.sink.emit(
                SanitizerReport(
                    self.tool, bug, addr, 0, True, pc, task,
                    free_pc=prior.free_pc if prior else 0,
                )
            )
            return
        code = (
            ShadowCode.PAGE_FREE
            if info.cache == _PAGE_CACHE_ID
            else ShadowCode.FREED
        )
        self.shadow.poison(addr, info.size, code)
        # poison any leading partial granule fully: the object is gone
        self.freed.push(FreedObject(addr, info.size, info.alloc_pc, pc, task))

    def on_slab_page(self, addr: int, size: int) -> None:
        """A fresh page joined a slab cache: poison its unallocated slots."""
        self.shadow.poison(addr, size, ShadowCode.UNALLOCATED)

    # ------------------------------------------------------------------
    # compile-time-only registrations (EMBSAN-C / native builds)
    # ------------------------------------------------------------------
    def register_global(self, addr: int, size: int, redzone: int) -> None:
        """Poison the pad after a firmware global object."""
        self.shadow.poison(addr + size, redzone, ShadowCode.REDZONE_GLOBAL)

    def stack_var(self, addr: int, size: int) -> None:
        """Poison redzones around an instrumented stack variable."""
        self.shadow.poison(addr - STACK_REDZONE, STACK_REDZONE, ShadowCode.REDZONE_STACK)
        self.shadow.poison(addr + size, STACK_REDZONE, ShadowCode.REDZONE_STACK)

    def stack_clear(self, base: int, size: int) -> None:
        """Unpoison a departed stack frame's span."""
        self.shadow.unpoison(base, size)

    # ------------------------------------------------------------------
    # access validation
    # ------------------------------------------------------------------
    def check(self, access: Access) -> Optional[SanitizerReport]:
        """Validate one access against the shadow map.

        Returns the report the access raised, or None.  A poisoned
        access whose dedup key (tool, bug type, symbolized pc) already
        has a report in the sink's current exec scope is counted
        through :meth:`ReportSink.repeat` and returns that first
        report: the owner lookup, quarantine lookup, shadow window and
        report object are built once per key per exec (unless the sink
        panics on reports, when every hit is built).
        """
        if self.suppress_depth:
            return None
        if access.kind is AccessKind.FETCH:
            return None
        self.checks += 1
        verdict = self.shadow.check(access.addr, access.size)
        if verdict is None:
            return None
        bad_addr, code = verdict
        bug = _CODE_TO_BUG.get(code, BugType.WILD_ACCESS)
        first = self.sink.repeat(self.tool, bug, access.pc)
        if first is not None:
            return first
        alloc_pc = free_pc = 0
        if bug is BugType.UAF:
            prior = self.freed.find(bad_addr)
            if prior is not None:
                alloc_pc, free_pc = prior.alloc_pc, prior.free_pc
        elif bug is BugType.SLAB_OOB:
            owner = self._object_before(bad_addr)
            if owner is not None:
                alloc_pc = owner.alloc_pc
        return self.sink.emit(
            SanitizerReport(
                self.tool, bug, bad_addr, access.size, access.is_write,
                access.pc, access.task, alloc_pc=alloc_pc, free_pc=free_pc,
                shadow_window=self.shadow.window_around(bad_addr),
            )
        )

    def check_range(
        self, addr: int, size: int, is_write: bool, pc: int = 0, task: int = 0
    ) -> Optional[SanitizerReport]:
        """Validate a bulk (memcpy-family) operation."""
        return self.check(
            Access(addr, size, is_write, pc, task, kind=AccessKind.RANGE)
        )

    # ------------------------------------------------------------------
    def _object_before(self, addr: int) -> Optional[AllocInfo]:
        """The live object whose redzone ``addr`` most plausibly is.

        That is the one with the largest base among those whose end
        lies in ``[addr - HEAP_REDZONE, addr]``: a bisect of the sorted
        end-address index finds that slice.
        """
        ends = self._ends
        if ends is None:
            ends = self._ends = sorted(
                (base + info.size, base) for base, info in self._live.items()
            )
        lo = bisect_left(ends, (addr - HEAP_REDZONE,))
        hi = bisect_right(ends, (addr, _NO_BASE))
        if lo == hi:
            return None
        return self._live[max(base for _end, base in ends[lo:hi])]

    def live_count(self) -> int:
        """Number of live tracked allocations (diagnostic)."""
        return len(self._live)
