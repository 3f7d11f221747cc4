"""Memory regions that the system bus maps into the guest address space."""

from __future__ import annotations

import enum
import mmap
from typing import Callable, Optional

from repro.errors import BusError

#: zero-filled buffers at least this large use anonymous-mmap backing
#: (lazily faulted zero pages) instead of an eagerly memset bytearray
_MMAP_MIN = 1 << 20


def filled_buffer(size: int, fill: int = 0):
    """A writable ``size``-byte buffer holding ``fill`` in every byte.

    Large zero-filled buffers are an anonymous mmap: the kernel hands
    out lazily faulted zero pages, so a 64 MiB DRAM region (or its
    8 MiB shadow table) costs only the pages actually written.
    Rebuild-heavy fuzzing constructs them thousands of times, and
    ``bytearray(size)`` memsets and keeps resident the whole span every
    time.  Iterating an mmap yields 1-byte ``bytes``, not ints, so
    callers that iterate take a slice first.
    """
    if fill == 0 and size >= _MMAP_MIN:
        return mmap.mmap(-1, size)
    return bytearray([fill]) * size


class Perm(enum.IntFlag):
    """Region access permissions."""

    NONE = 0
    R = 1
    W = 2
    X = 4
    RW = R | W
    RX = R | X
    RWX = R | W | X


class MemoryRegion:
    """A contiguous span of guest physical memory backed by a bytearray.

    Regions never overlap on a bus.  ``kind`` is free-form metadata used by
    the Prober when reconstructing the platform memory map ("ram", "rom",
    "flash", "sram", "device").
    """

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        perm: Perm = Perm.RWX,
        kind: str = "ram",
        fill: int = 0,
    ):
        if size <= 0:
            raise ValueError(f"region {name!r} must have positive size")
        if base < 0:
            raise ValueError(f"region {name!r} must have non-negative base")
        self.name = name
        self.base = base
        self.size = size
        #: one past the highest mapped address
        self.end = base + size
        self.perm = perm
        #: ``perm`` as a plain int: the bus tests it on every access,
        #: where an ``IntFlag`` ``&`` would construct a new enum member
        self.mask = int(perm)
        self.kind = kind
        self.data = filled_buffer(size, fill & 0xFF)

    def contains(self, addr: int, size: int = 1) -> bool:
        """True when [addr, addr+size) lies entirely inside the region."""
        return self.base <= addr and addr + size <= self.end

    def read(self, addr: int, size: int) -> bytes:
        """Read raw bytes; the caller has already validated the span."""
        off = addr - self.base
        return bytes(self.data[off : off + size])

    def write(self, addr: int, payload: bytes) -> None:
        """Write raw bytes; the caller has already validated the span."""
        off = addr - self.base
        self.data[off : off + len(payload)] = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryRegion({self.name!r}, base={self.base:#010x}, "
            f"size={self.size:#x}, kind={self.kind!r})"
        )


class MmioRegion(MemoryRegion):
    """A region whose accesses are served by device callbacks.

    ``on_read(offset, size) -> int`` and ``on_write(offset, size, value)``
    receive offsets relative to the region base.  The backing bytearray is
    still present so devices can fall back to plain storage for registers
    they do not special-case.
    """

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        on_read: Optional[Callable[[int, int], int]] = None,
        on_write: Optional[Callable[[int, int, int], None]] = None,
    ):
        super().__init__(name, base, size, perm=Perm.RW, kind="device")
        self.on_read = on_read
        self.on_write = on_write

    def read(self, addr: int, size: int) -> bytes:
        off = addr - self.base
        if self.on_read is not None:
            value = self.on_read(off, size)
            return int(value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        return super().read(addr, size)

    def write(self, addr: int, payload: bytes) -> None:
        off = addr - self.base
        if self.on_write is not None:
            self.on_write(off, len(payload), int.from_bytes(payload, "little"))
            return
        super().write(addr, payload)


def check_no_overlap(regions, candidate: MemoryRegion) -> None:
    """Raise :class:`BusError` when ``candidate`` overlaps any mapped region."""
    for region in regions:
        if candidate.base < region.end and region.base < candidate.end:
            raise BusError(
                f"region {candidate.name!r} [{candidate.base:#x}, "
                f"{candidate.end:#x}) overlaps {region.name!r} "
                f"[{region.base:#x}, {region.end:#x})",
                addr=candidate.base,
            )
