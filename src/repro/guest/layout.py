"""Address-space layout for rehosted firmware.

Bump allocators over the architecture's memory map hand out text slots
for guest functions, data addresses for globals, and stack spans for
tasks.  The resulting layout is exactly what the Prober reconstructs
during its dry runs.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.emulator.machine import Machine
from repro.errors import FirmwareBuildError

#: Text bytes reserved per guest function.  Accesses inside a function
#: report pcs within [addr, addr + FUNC_SLOT_SIZE), so symbolization by
#: range is exact.
FUNC_SLOT_SIZE = 0x200

#: Default per-task guest stack size.
STACK_SIZE = 0x4000

#: Redzone placed around instrumented globals and stack variables.
#: 32 bytes catches the off-by-N global OOB accesses of Table 2.
DEFAULT_REDZONE = 32


class GlobalVar(NamedTuple):
    """A registered firmware global object."""

    name: str
    addr: int
    size: int
    redzone: int
    module: str


class GuestLayout:
    """Allocates text, data and stack addresses inside a machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        arch = machine.arch
        flash = arch.region("flash")
        sram = arch.region("sram")
        dram = arch.region("dram")
        self._text_next = flash.base
        self._text_end = flash.base + flash.size
        self._data_next = sram.base
        self._data_end = sram.base + sram.size // 2
        self._stack_next = sram.base + sram.size
        self._stack_floor = sram.base + sram.size // 2
        #: span handed to the OS heap allocator
        self.heap_base = dram.base
        self.heap_size = dram.size
        self.globals: List[GlobalVar] = []
        self._funcs: Dict[int, str] = {}
        #: (base, end, name) spans for opaque binary blobs
        self._blobs: List[tuple] = []

    # ------------------------------------------------------------------
    def alloc_text(self, name: str) -> int:
        """Reserve a text slot for a guest function."""
        addr = self._text_next
        if addr + FUNC_SLOT_SIZE > self._text_end:
            raise FirmwareBuildError(
                f"flash exhausted placing {name!r} at {addr:#x}"
            )
        self._text_next += FUNC_SLOT_SIZE
        self._funcs[addr] = name
        return addr

    def alloc_global(
        self, name: str, size: int, module: str, redzone: int = DEFAULT_REDZONE
    ) -> GlobalVar:
        """Reserve a data slot (with surrounding pad) for a global object.

        The pad is always present so C- and D-instrumented builds share
        one layout; only instrumented builds *poison* it.
        """
        addr = self._data_next
        total = _align(size + redzone, 8)
        if addr + total > self._data_end:
            raise FirmwareBuildError(
                f"data region exhausted placing global {name!r}"
            )
        self._data_next += total
        var = GlobalVar(name, addr, size, redzone, module)
        self.globals.append(var)
        return var

    def alloc_stack(self, size: int = STACK_SIZE) -> int:
        """Reserve a downward-growing stack span; returns its top address."""
        top = self._stack_next
        if top - size < self._stack_floor:
            raise FirmwareBuildError("stack space exhausted")
        self._stack_next -= size
        return top

    def register_blob(self, name: str, base: int, size: int) -> None:
        """Record an opaque binary blob's span for symbolization.

        For closed-source firmware this is the tester's prior knowledge
        of where each service lives (§3.2, category-3 probing).
        """
        self._blobs.append((base, base + size, name))

    # ------------------------------------------------------------------
    def function_at(self, pc: int) -> str:
        """Symbolize a pc to the guest function (or blob) containing it."""
        slot = pc - (pc % FUNC_SLOT_SIZE)
        name = self._funcs.get(slot)
        if name is not None:
            return name
        for base, end, blob_name in self._blobs:
            if base <= pc < end:
                return blob_name
        return f"0x{pc:08x}"


def _align(value: int, boundary: int) -> int:
    return (value + boundary - 1) // boundary * boundary
