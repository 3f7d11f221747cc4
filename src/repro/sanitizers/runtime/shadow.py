"""Unified shadow memory.

One byte of shadow describes one 8-byte granule of guest memory, using
KASAN's encoding: ``0`` means fully addressable, ``1..7`` means only the
first N bytes of the granule are addressable, and values >= 0x80 are
poison codes identifying *why* the granule is off limits.

"Unified" (§3.3) means a single shadow map serves every sanitizer
functionality in the runtime: KASAN consumes the poison codes, KCSAN
uses addressability to skip uninteresting traffic, and the quarantine
bookkeeping reuses the FREE code.  The map is host-side: the guest
never sees it, which is the core trick that lets EMBSAN sanitize
firmware whose platform could not host shadow memory at all.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.mem.bus import MemoryBus
from repro.mem.regions import MmioRegion, filled_buffer

#: Bytes of guest memory per shadow byte.
GRANULE = 8


class ShadowCode(enum.IntEnum):
    """Poison codes (>= 0x80) stored in shadow bytes."""

    ADDRESSABLE = 0x00
    FREED = 0xFF  #: object freed (KASAN use-after-free)
    REDZONE_HEAP = 0xFA  #: pad after a slab object
    REDZONE_GLOBAL = 0xF9  #: pad after an instrumented global
    REDZONE_STACK = 0xF2  #: pad around an instrumented stack variable
    PAGE_FREE = 0xFE  #: whole page returned to the buddy allocator
    UNALLOCATED = 0xFC  #: slab page space never handed out


#: shadow-byte pages tracked for delta restore (4 KiB of shadow bytes
#: covers 32 KiB of guest memory at GRANULE=8)
_SHADOW_PAGE_SHIFT = 12
_SHADOW_PAGE_SIZE = 1 << _SHADOW_PAGE_SHIFT

#: shadow bytes per row of a rendered shadow dump
_DUMP_ROW = 16


class _RegionShadow:
    """Shadow bytes for one guest memory region."""

    __slots__ = ("base", "size", "end", "bytes", "dirty", "golden")

    def __init__(self, base: int, size: int, fill: int):
        self.base = base
        self.size = size
        self.end = base + size
        granules = (size + GRANULE - 1) // GRANULE
        # a large zero table is an mmap (see filled_buffer): bytearray(n)
        # would memset all of it up front and keep it resident
        self.bytes = filled_buffer(granules, fill)
        #: shadow pages written since the last golden restore
        self.dirty: set = set()
        #: page index -> golden pre-image, kept on the page's first
        #: write after :meth:`ShadowMemory.begin_golden`; None while no
        #: golden capture is live (then nothing is tracked at all)
        self.golden: Optional[Dict[int, bytes]] = None

    def mark_dirty(self, first_granule: int, last_granule: int) -> None:
        """Record the shadow pages covering ``[first, last]`` granules.

        Must run before those granules are written: a page's first mark
        keeps its current bytes as the golden pre-image.
        """
        golden = self.golden
        if golden is None:
            return
        dirty = self.dirty
        first_page = first_granule >> _SHADOW_PAGE_SHIFT
        last_page = last_granule >> _SHADOW_PAGE_SHIFT
        for page in range(first_page, last_page + 1):
            if page in dirty:
                continue
            dirty.add(page)
            if page not in golden:
                lo = page << _SHADOW_PAGE_SHIFT
                golden[page] = bytes(self.bytes[lo:lo + _SHADOW_PAGE_SIZE])


class ShadowWindow(NamedTuple):
    """The shadow rows a KASAN report shows, copied at report time.

    Rendering is deferred until the report text is read — during a fuzz
    campaign most reports are duplicates nobody prints — while the
    copied rows keep the text exactly what it was when reported, even
    if the shadow changes afterwards.
    """

    base: int  #: guest address of the region's first granule
    granule: int  #: granule index of the buggy address
    first_row: int  #: index of the first row held in ``cells``
    cells: bytes  #: the rows' shadow bytes, clipped at the table ends

    def render(self) -> str:
        """The dmesg-KASAN text of :meth:`ShadowMemory.dump_around`."""
        row_of = self.granule // _DUMP_ROW
        lines = ["Memory state around the buggy address:"]
        cells = self.cells
        for offset in range(0, len(cells), _DUMP_ROW):
            row = self.first_row + offset // _DUMP_ROW
            first = row * _DUMP_ROW
            rendered = " ".join(
                f"{value:02x}" for value in cells[offset:offset + _DUMP_ROW]
            )
            marker = ">" if row == row_of else " "
            lines.append(
                f"{marker}{self.base + first * GRANULE:#010x}: {rendered}"
            )
            if row == row_of:
                column = self.granule - first
                lines.append(" " * 12 + "   " * column + " ^^")
        return "\n".join(lines)


class ShadowMemory:
    """Host-side shadow map over a machine's RAM regions.

    Device (MMIO) regions deliberately get no shadow: KASAN never maps
    shadow for device apertures, and the runtime skips checks there.
    """

    def __init__(self, bus: MemoryBus):
        self._shadows: List[_RegionShadow] = []
        for region in bus.regions:
            if isinstance(region, MmioRegion) or region.kind == "device":
                continue
            shadow = _RegionShadow(region.base, region.size, 0)
            self._shadows.append(shadow)
        self._shadows.sort(key=lambda s: s.base)
        #: the region :meth:`_find` resolved last (an empty one at first)
        self._last = _RegionShadow(0, 0, 0)
        self.poison_ops = 0
        self.check_ops = 0
        #: clean accesses proven addressable by :meth:`clear_for` alone
        #: (the inline fast path), a subset of ``check_ops``
        self.fastpath_hits = 0

    # ------------------------------------------------------------------
    # fork-server golden capture (driven by the runtime's provider pair)
    # ------------------------------------------------------------------
    def begin_golden(self) -> None:
        """Make the current shadow image the golden one, copying nothing.

        From here on every shadow page keeps its pre-image the first
        time it is written, so :meth:`restore_golden` can rewind the
        table in O(pages poisoned since), and the capture itself costs
        nothing per shadow byte.
        """
        for shadow in self._shadows:
            shadow.dirty.clear()
            shadow.golden = {}

    def restore_golden(self) -> None:
        """Rewind the shadow pages written since :meth:`begin_golden`."""
        for shadow in self._shadows:
            table = shadow.bytes
            golden = shadow.golden
            for page in shadow.dirty:
                image = golden[page]
                lo = page << _SHADOW_PAGE_SHIFT
                table[lo:lo + len(image)] = image
            shadow.dirty.clear()

    def dirty_pages(self) -> int:
        """Shadow pages written since the golden capture or restore."""
        return sum(len(shadow.dirty) for shadow in self._shadows)

    # ------------------------------------------------------------------
    def _find(self, addr: int) -> Optional[_RegionShadow]:
        last = self._last
        if last.base <= addr < last.end:
            return last
        # linear scan: machines map < 8 RAM regions
        for shadow in self._shadows:
            if shadow.base <= addr < shadow.end:
                self._last = shadow
                return shadow
        return None

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    def poison(self, start: int, size: int, code: ShadowCode) -> None:
        """Mark ``[start, start+size)`` poisoned with ``code``.

        Partial granules at the edges stay addressable up to the object
        boundary (KASAN's first-N-bytes encoding), so only the fully
        covered granules take the poison code; a leading partial granule
        records how many of its bytes remain valid.
        """
        if size <= 0:
            return
        shadow = self._find(start)
        if shadow is None:
            return
        self.poison_ops += 1
        end = min(start + size, shadow.end)
        first = (start - shadow.base) // GRANULE
        last = (end - shadow.base + GRANULE - 1) // GRANULE
        shadow.mark_dirty(first, max(last - 1, first))
        valid_prefix = start % GRANULE
        if valid_prefix:
            # the object sharing this granule keeps its first bytes
            shadow.bytes[first] = valid_prefix
            first += 1
        shadow.bytes[first:last] = bytes((code,)) * (last - first)

    def unpoison(self, start: int, size: int) -> None:
        """Mark ``[start, start+size)`` addressable (partial tail encoded)."""
        if size <= 0:
            return
        shadow = self._find(start)
        if shadow is None:
            return
        self.poison_ops += 1
        end = min(start + size, shadow.end)
        first = (start - shadow.base) // GRANULE
        full_last = (end - shadow.base) // GRANULE
        shadow.mark_dirty(first, max(full_last, first))
        shadow.bytes[first:full_last] = bytes(full_last - first)
        tail = end % GRANULE
        if tail and full_last < len(shadow.bytes):
            shadow.bytes[full_last] = tail

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, addr: int, size: int) -> Optional[Tuple[int, int]]:
        """Validate an access; returns ``(bad_addr, code)`` or None.

        A device-region or out-of-shadow access returns None — the bus
        permission model, not the sanitizer, polices those.
        """
        if size <= 0:
            return None
        shadow = self._find(addr)
        if shadow is None:
            return None
        self.check_ops += 1
        end = addr + size
        idx = (addr - shadow.base) // GRANULE
        granule_start = shadow.base + idx * GRANULE
        table = shadow.bytes
        limit = len(table)
        while granule_start < end and idx < limit:
            value = table[idx]
            if value:
                if value >= 0x80:
                    bad = max(addr, granule_start)
                    return bad, value
                # partial granule: first `value` bytes valid
                access_end_in_granule = min(end, granule_start + GRANULE)
                if access_end_in_granule - granule_start > value:
                    # classify by the poison that follows the object, the
                    # way KASAN inspects the next shadow byte
                    if idx + 1 < limit and table[idx + 1] >= 0x80:
                        code = table[idx + 1]
                    else:
                        code = int(ShadowCode.REDZONE_HEAP)
                    return granule_start + value, code
            idx += 1
            granule_start += GRANULE
        return None

    def clear_for(self, addr: int, size: int) -> bool:
        """Fast path: True when every granule the access touches is 0.

        The inline counterpart of :meth:`check` used by the runtime's
        combined probe: an all-addressable answer needs no poison-code
        classification, no partial-granule arithmetic and no report
        machinery, which covers the overwhelming majority of traffic.  A
        False return says nothing about *why* — the caller falls back to
        the full :meth:`check` walk, which also re-validates partial
        granules the fast path conservatively rejects.

        Counter parity with :meth:`check`: a clean access counts one
        ``check_ops`` here; a dirty access counts nothing (the full check
        the caller then runs contributes the one count); an unshadowed
        access counts nothing on either path.
        """
        if size <= 0:
            return True
        shadow = self._last
        if not shadow.base <= addr < shadow.end:
            shadow = self._find(addr)
            if shadow is None:
                # device/out-of-shadow traffic: the bus polices it, not us
                return True
        base = shadow.base
        table = shadow.bytes
        first = (addr - base) >> 3
        last = (addr + size - 1 - base) >> 3
        if first == last:
            # addr is inside the region, so ``first`` always indexes the
            # table; a multi-granule slice clamps at the region end just
            # like check()'s ``idx < limit`` walk
            if table[first]:
                return False
        elif any(table[first:last + 1]):
            return False
        self.check_ops += 1
        self.fastpath_hits += 1
        return True

    def code_at(self, addr: int) -> int:
        """Raw shadow byte covering ``addr`` (0 when unshadowed)."""
        shadow = self._find(addr)
        if shadow is None:
            return 0
        return shadow.bytes[(addr - shadow.base) // GRANULE]

    # ------------------------------------------------------------------
    def poisoned_bytes(self) -> int:
        """Granule count currently carrying any poison code (diagnostic)."""
        # slice first: iterating an mmap table yields 1-byte bytes
        return sum(
            1
            for shadow in self._shadows
            for value in shadow.bytes[:]
            if value >= 0x80
        )

    def stats(self) -> Dict[str, int]:
        """Operation counters used by overhead analysis."""
        return {
            "poison_ops": self.poison_ops,
            "check_ops": self.check_ops,
            "fastpath_hits": self.fastpath_hits,
        }

    def window_around(self, addr: int, rows: int = 2) -> Optional[ShadowWindow]:
        """Copy the shadow rows :meth:`dump_around` would render.

        ``rows`` rows either side of the one holding ``addr`` (16 shadow
        bytes, 128 guest bytes each), clipped at the table ends; None
        when ``addr`` is unshadowed.
        """
        shadow = self._find(addr)
        if shadow is None:
            return None
        granule = (addr - shadow.base) // GRANULE
        row_of = granule // _DUMP_ROW
        first_row = max(row_of - rows, 0)
        cells = bytes(
            shadow.bytes[first_row * _DUMP_ROW:(row_of + rows + 1) * _DUMP_ROW]
        )
        return ShadowWindow(shadow.base, granule, first_row, cells)

    def dump_around(self, addr: int, rows: int = 2) -> str:
        """Render the shadow bytes around ``addr``, dmesg-KASAN style.

        16 shadow bytes (128 guest bytes) per row, the row holding
        ``addr`` marked with ``^`` under the offending granule.
        """
        window = self.window_around(addr, rows)
        return window.render() if window is not None else ""
