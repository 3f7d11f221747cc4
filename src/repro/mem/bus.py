"""The guest system bus.

Every guest memory operation — scalar loads/stores from the interpreter,
bulk copies from rehosted kernel code, DMA from device models — goes
through one :class:`MemoryBus`.  Observers registered on the bus see an
:class:`~repro.mem.access.Access` per operation; this is the dynamic
(EMBSAN-D) interception point.

Every access pays for address resolution, so that path is kept to a few
plain-int compares: the bus remembers the region its last access
resolved to and tests that first, falling back to a bisect over region
bases on a miss; permissions are tested as ``int`` masks, with the
``Perm`` name rendered only for an error message; and an ``Access`` is
built only when some observer will receive it, i.e. never inside
:meth:`MemoryBus.untraced`, never on a bus nobody observes, and not on a
scalar access the sole observer's clean-access test settles (see
:meth:`MemoryBus.add_observer`).
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, List, Optional

from repro.errors import BusError
from repro.mem.access import Access, AccessKind
from repro.mem.dirty import PAGE_SHIFT
from repro.mem.regions import MemoryRegion, Perm, check_no_overlap

Observer = Callable[[Access], None]
#: Clean-access test: (addr, size) -> True when it handled the access.
CleanTest = Callable[[int, int], bool]

_SCALAR_SIZES = frozenset((1, 2, 4, 8))

_R = int(Perm.R)
_W = int(Perm.W)
_X = int(Perm.X)


class _NoRegion:
    """Last-hit placeholder that no address resolves to."""

    __slots__ = ()
    base = 1
    end = 0


_NO_REGION = _NoRegion()


class _Untraced:
    """The reentrant guard :meth:`MemoryBus.untraced` returns."""

    __slots__ = ("_bus",)

    def __init__(self, bus: "MemoryBus"):
        self._bus = bus

    def __enter__(self) -> "MemoryBus":
        bus = self._bus
        bus._silent_depth += 1
        return bus

    def __exit__(self, exc_type, exc, tb) -> None:
        self._bus._silent_depth -= 1


class MemoryBus:
    """Maps :class:`MemoryRegion` objects and routes guest accesses.

    Observers are invoked *before* the access is performed so a sanitizer
    can flag a violation at the faulting operation, matching how KASAN
    reports point at the offending instruction.
    """

    def __init__(self):
        self._regions: List[MemoryRegion] = []
        self._bases: List[int] = []
        self._observers: tuple = ()
        #: observer -> its clean-access test; ``_clean`` is the sole
        #: observer's test, or None (see add_observer)
        self._cleans: dict = {}
        self._clean: Optional[CleanTest] = None
        self._write_watchers: tuple = ()
        self._silent_depth = 0
        self._untraced = _Untraced(self)
        #: region the last successful resolve landed in (see _resolve)
        self._last = _NO_REGION
        #: the RAM (non-device) region the last scalar read / write
        #: that missed these resolved to; a scalar access inside it
        #: skips _resolve and the region's read/write methods
        self._ram_r = _NO_REGION
        self._ram_w = _NO_REGION
        #: optional FaultPlan whose mutate_load() filters guest loads
        self.fault_plan = None
        #: active write journal (pre-image log) or None; see journal_begin
        self._journal: Optional[list] = None
        #: attached DirtySet receiving page marks for every RAM write,
        #: or None; see attach_dirty
        self._dirty = None

    # ------------------------------------------------------------------
    # region management
    # ------------------------------------------------------------------
    def map(self, region: MemoryRegion) -> MemoryRegion:
        """Map a region; raises :class:`BusError` on overlap."""
        check_no_overlap(self._regions, region)
        idx = bisect.bisect_left(self._bases, region.base)
        self._regions.insert(idx, region)
        self._bases.insert(idx, region.base)
        self._last = self._ram_r = self._ram_w = _NO_REGION
        return region

    def unmap(self, name: str) -> None:
        """Unmap the region with the given name."""
        for idx, region in enumerate(self._regions):
            if region.name == name:
                del self._regions[idx]
                del self._bases[idx]
                self._last = self._ram_r = self._ram_w = _NO_REGION
                return
        raise BusError(f"no region named {name!r} to unmap")

    @property
    def regions(self) -> Iterable[MemoryRegion]:
        """Mapped regions in ascending base order."""
        return tuple(self._regions)

    def region_named(self, name: str) -> MemoryRegion:
        """Return the region with the given name."""
        for region in self._regions:
            if region.name == name:
                return region
        raise BusError(f"no region named {name!r}")

    def region_at(self, addr: int) -> Optional[MemoryRegion]:
        """Return the region containing ``addr``, or None."""
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx < 0:
            return None
        region = self._regions[idx]
        return region if addr < region.end else None

    def _resolve(self, addr: int, size: int, want: int) -> MemoryRegion:
        """The region serving ``[addr, addr+size)`` with ``want`` access.

        ``want`` is an int permission mask (``_R``/``_W``/``_X``).  The
        last-hit test is exactly :meth:`region_at` plus
        :meth:`MemoryRegion.contains` for that one region, so a hit and
        a bisect always agree.
        """
        region = self._last
        if not (region.base <= addr < region.end
                and addr + size <= region.end):
            region = self.region_at(addr)
            if region is None or not region.contains(addr, size):
                raise BusError(
                    f"unmapped guest access at {addr:#010x} size {size}",
                    addr=addr,
                )
            self._last = region
        if not region.mask & want:
            raise BusError(
                f"permission violation at {addr:#010x}: need "
                f"{Perm(want).name}, region {region.name!r} grants "
                f"{region.perm!r}",
                addr=addr,
            )
        return region

    def _scalar_region(self, addr: int, size: int, want: int) -> MemoryRegion:
        """:meth:`_resolve` for a scalar access that missed the last-hit
        RAM region of its direction; a RAM region it resolves to becomes
        that last hit."""
        region = self._resolve(addr, size, want)
        if region.kind != "device":
            if want == _W:
                self._ram_w = region
            else:
                self._ram_r = region
        return region

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def add_observer(self, observer: Observer,
                     clean: Optional[CleanTest] = None) -> None:
        """Attach an access observer (sanitizer probe, tracer, ...).

        ``clean(addr, size)`` is its optional clean-access test, as in
        ``TcgEngine.add_mem_probe``; :meth:`load` and :meth:`store` call
        it first while ``observer`` is the sole observer.
        """
        if clean is not None:
            self._cleans[observer] = clean
        self._set_observers(self._observers + (observer,))

    def remove_observer(self, observer: Observer) -> None:
        """Detach a previously attached observer."""
        self._cleans.pop(observer, None)
        self._set_observers(
            tuple(o for o in self._observers if o is not observer))

    def _set_observers(self, observers: tuple) -> None:
        self._observers = observers
        self._clean = (self._cleans.get(observers[0])
                       if len(observers) == 1 else None)

    def add_write_watcher(self, watcher: Callable[[int, int], None]) -> None:
        """Attach a ``(addr, size)`` callback fired on every bulk write.

        Unlike observers, watchers are a cache-coherency channel, not a
        tracing one: they fire even inside ``untraced()`` (a host-side
        write invalidates translations just as a guest one does), and
        execution engines use them to detect writes into translated code
        arriving via ``write_bytes``/``fill``/``copy``/DMA rather than
        scalar stores.
        """
        self._write_watchers = self._write_watchers + (watcher,)

    def untraced(self) -> _Untraced:
        """Suppress observer notification inside the ``with`` block.

        Used for host-side manipulation that has no guest-visible
        counterpart: the firmware loader populating ROM, the Prober taking
        memory snapshots, report generators peeking at object contents.

        Returns the bus's one reusable guard, so entering it allocates
        nothing.  Guards nest (each ``with`` adds one level) and ``with
        bus.untraced() as b`` binds the bus itself.  While any level is
        open, accesses build no ``Access`` and fault plans leave loads
        alone.
        """
        return self._untraced

    # ------------------------------------------------------------------
    # write journal (crash-isolation rollback)
    # ------------------------------------------------------------------
    def journal_begin(self) -> None:
        """Start recording pre-images of every RAM write.

        While active, scalar and bulk writes into non-device regions log
        ``(region, offset, old_bytes)`` so :meth:`journal_rollback` can
        rewind guest memory to the begin point in O(bytes written): the
        per-input crash isolation of the journaled exec mode.  Device (MMIO) writes are never journalled: they have
        host-side effects a memory rewind cannot undo.
        """
        if self._journal is not None:
            raise BusError("write journal already active")
        self._journal = []

    def journal_commit(self) -> int:
        """Stop journalling, keeping all writes; returns entries dropped."""
        journal = self._journal
        if journal is None:
            raise BusError("no write journal active")
        self._journal = None
        return len(journal)

    def journal_rollback(self) -> int:
        """Stop journalling and rewind every journalled write (LIFO)."""
        journal = self._journal
        if journal is None:
            raise BusError("no write journal active")
        self._journal = None
        dirty = self._dirty
        if dirty is not None:
            # mark before rewinding, like every other write path: a page
            # the rewind dirties first keeps its current bytes as golden
            for region, off, old in journal:
                dirty.mark(region.name, off, len(old))
        for region, off, old in reversed(journal):
            region.data[off : off + len(old)] = old
        return len(journal)

    @property
    def journal_active(self) -> bool:
        """True while a write journal is recording."""
        return self._journal is not None

    def journal_write_bounds(self) -> Optional[tuple]:
        """Absolute ``(lo, hi)`` span covering all journalled writes.

        Returns None when no journal is active or it recorded nothing.
        Must be read *before* commit/rollback (both clear the journal);
        the rollback path uses it to invalidate only the translations
        the rewind can actually have changed instead of flushing whole
        TB caches.
        """
        journal = self._journal
        if not journal:
            return None
        lo = hi = None
        for region, off, old in journal:
            start = region.base + off
            end = start + len(old)
            if lo is None or start < lo:
                lo = start
            if hi is None or end > hi:
                hi = end
        return (lo, hi)

    # ------------------------------------------------------------------
    # dirty-page tracking (fork-server delta restore)
    # ------------------------------------------------------------------
    def attach_dirty(self, dirty) -> None:
        """Attach a :class:`~repro.mem.dirty.DirtySet` to all write paths.

        While attached, every store into a non-device region marks the
        covered pages dirty — scalar stores, silent stores, the bulk
        ``write_bytes``/``fill``/``copy``/DMA family and journal
        rollbacks alike — always *before* the bytes land, so the set can
        keep each page's pre-image on first write.  Unlike the
        journal this is a persistent accounting channel, not a scoped
        one: it stays attached across programs and is consumed (and
        cleared) by whoever owns the delta-restore strategy.
        """
        self._dirty = dirty

    def detach_dirty(self) -> None:
        """Stop marking pages dirty."""
        self._dirty = None

    @property
    def dirty(self):
        """The attached DirtySet, or None."""
        return self._dirty

    # ------------------------------------------------------------------
    # scalar access
    # ------------------------------------------------------------------
    # Every scalar method first tests the last-hit RAM region of its
    # direction (``_ram_r``/``_ram_w``) with exactly _resolve's span
    # test; a miss, a device region or a bad size takes _resolve and the
    # region's own read/write, then rejoins the same tail.

    def load(
        self,
        addr: int,
        size: int,
        pc: int = 0,
        task: int = 0,
        atomic: bool = False,
    ) -> int:
        """Perform a scalar little-endian load and return the value."""
        region = self._ram_r
        ram = (region.base <= addr < region.end
               and addr + size <= region.end and size in _SCALAR_SIZES)
        if not ram:
            if size not in _SCALAR_SIZES:
                raise BusError(f"invalid scalar load size {size}", addr=addr)
            region = self._scalar_region(addr, size, _R)
        if self._observers and not self._silent_depth:
            clean = self._clean
            if clean is None or not clean(addr, size):
                access = Access(addr, size, False, pc, task, atomic=atomic)
                for observer in self._observers:
                    observer(access)
        if ram:
            off = addr - region.base
            value = int.from_bytes(region.data[off:off + size], "little")
        else:
            value = int.from_bytes(region.read(addr, size), "little")
        # fault injection applies to guest traffic only; untraced host
        # reads (report generators, the Prober) see pristine memory
        if self.fault_plan is not None and not self._silent_depth:
            value = self.fault_plan.mutate_load(addr, size, value)
        return value

    def store(
        self,
        addr: int,
        size: int,
        value: int,
        pc: int = 0,
        task: int = 0,
        atomic: bool = False,
    ) -> None:
        """Perform a scalar little-endian store."""
        region = self._ram_w
        if not (region.base <= addr < region.end
                and addr + size <= region.end and size in _SCALAR_SIZES):
            if size not in _SCALAR_SIZES:
                raise BusError(f"invalid scalar store size {size}", addr=addr)
            region = self._scalar_region(addr, size, _W)
        if self._observers and not self._silent_depth:
            clean = self._clean
            if clean is None or not clean(addr, size):
                access = Access(addr, size, True, pc, task, atomic=atomic)
                for observer in self._observers:
                    observer(access)
        self._write_scalar(
            region, addr, size,
            int(value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def load_silent(self, addr: int, size: int) -> int:
        """Scalar load with no observer notification.

        Hot-path twin of ``with untraced(): load(...)`` for specialized
        TCG templates whose injected probes are already the notification
        channel; skips the context-manager round trip and the scalar-size
        guard (instruction decoding fixes the size to 1/2/4).
        """
        region = self._ram_r
        if region.base <= addr < region.end and addr + size <= region.end:
            off = addr - region.base
            value = int.from_bytes(region.data[off:off + size], "little")
        else:
            region = self._scalar_region(addr, size, _R)
            value = int.from_bytes(region.read(addr, size), "little")
        if self.fault_plan is not None:
            # this path carries only guest (EVM32 template) loads
            value = self.fault_plan.mutate_load(addr, size, value)
        return value

    def load_untraced(self, addr: int, size: int) -> int:
        """Scalar load exactly as inside :meth:`untraced`: no observer,
        no fault plan (host-side reads such as allocator metadata)."""
        region = self._ram_r
        if region.base <= addr < region.end and addr + size <= region.end:
            off = addr - region.base
            return int.from_bytes(region.data[off:off + size], "little")
        region = self._scalar_region(addr, size, _R)
        return int.from_bytes(region.read(addr, size), "little")

    def store_silent(self, addr: int, size: int, value: int) -> None:
        """Scalar store with no observer notification (see load_silent)."""
        region = self._ram_w
        if not (region.base <= addr < region.end
                and addr + size <= region.end):
            region = self._scalar_region(addr, size, _W)
        self._write_scalar(
            region, addr, size,
            (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def _write_scalar(self, region: MemoryRegion, addr: int, size: int,
                      payload: bytes) -> None:
        """The tail of every scalar store: journal the pre-image, mark
        the page dirty if it is not yet, and write the bytes (a device
        region's own ``write`` instead, with neither)."""
        if region.kind == "device":
            region.write(addr, payload)
            return
        off = addr - region.base
        if self._journal is not None:
            self._journal.append(
                (region, off, bytes(region.data[off : off + size]))
            )
        dirty = self._dirty
        if dirty is not None:
            pages = dirty.marked.get(region.name)
            if (pages is None or off >> PAGE_SHIFT not in pages
                    or (off + size - 1) >> PAGE_SHIFT not in pages):
                dirty.mark(region.name, off, size)
        region.data[off : off + size] = payload

    # ------------------------------------------------------------------
    # bulk access (guest memcpy / memset family)
    # ------------------------------------------------------------------
    def read_bytes(
        self,
        addr: int,
        size: int,
        pc: int = 0,
        task: int = 0,
        kind: AccessKind = AccessKind.RANGE,
    ) -> bytes:
        """Read ``size`` raw bytes as one range access."""
        if size == 0:
            return b""
        region = self._resolve(addr, size, _R)
        if self._observers and not self._silent_depth:
            access = Access(addr, size, False, pc, task, kind=kind)
            for observer in self._observers:
                observer(access)
        return region.read(addr, size)

    def write_bytes(
        self,
        addr: int,
        payload: bytes,
        pc: int = 0,
        task: int = 0,
        kind: AccessKind = AccessKind.RANGE,
    ) -> None:
        """Write raw bytes as one range access."""
        if not payload:
            return
        region = self._resolve(addr, len(payload), _W)
        if self._observers and not self._silent_depth:
            access = Access(addr, len(payload), True, pc, task, kind=kind)
            for observer in self._observers:
                observer(access)
        if region.kind != "device":
            if self._journal is not None:
                off = addr - region.base
                self._journal.append(
                    (region, off, bytes(region.data[off : off + len(payload)]))
                )
            if self._dirty is not None:
                self._dirty.mark(region.name, addr - region.base, len(payload))
        region.write(addr, bytes(payload))
        for watcher in self._write_watchers:
            watcher(addr, len(payload))

    def fill(
        self, addr: int, size: int, value: int, pc: int = 0, task: int = 0
    ) -> None:
        """Guest memset: one range write of ``size`` copies of ``value``."""
        self.write_bytes(addr, bytes([value & 0xFF]) * size, pc=pc, task=task)

    def copy(
        self, dst: int, src: int, size: int, pc: int = 0, task: int = 0
    ) -> None:
        """Guest memcpy: a range read of ``src`` then a range write of ``dst``."""
        payload = self.read_bytes(src, size, pc=pc, task=task)
        self.write_bytes(dst, payload, pc=pc, task=task)

    # ------------------------------------------------------------------
    # instruction fetch
    # ------------------------------------------------------------------
    def fetch(self, addr: int, size: int) -> bytes:
        """Fetch instruction bytes; requires execute permission."""
        region = self._resolve(addr, size, _X)
        return region.read(addr, size)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def load_cstring(self, addr: int, max_len: int = 4096) -> bytes:
        """Read a NUL-terminated guest string (untraced; host helper)."""
        out = bytearray()
        with self.untraced():
            for offset in range(max_len):
                byte = self.read_bytes(addr + offset, 1)
                if byte == b"\x00":
                    break
                out += byte
        return bytes(out)
