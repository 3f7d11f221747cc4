"""DeviceModel: compile a RegisterMap into live bus handlers.

A :class:`DeviceModel` owns one :class:`~repro.mem.regions.MmioRegion`
whose read/write callbacks decode against the class's declarative
:class:`~repro.periph.regmap.RegisterMap`.  It also implements the
machine's state-provider protocol (``save_state``/``load_state`` with
an epoch gate plus counter telemetry), so device state — register
files, ring indices, pending work — restores coherently across
:class:`~repro.emulator.snapshot.ForkServer` rewinds exactly like
shadow memory and allocator maps do.

Determinism contract: a device's visible state must be a pure function
of the bus-access sequence it observed.  No wall clocks, no host RNG —
side-effect hooks may only read/write device attributes, guest memory
through the bus (``AccessKind.DMA``), and the machine's IRQ plumbing.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.mem.regions import MmioRegion
from repro.periph.regmap import Reg, RegisterMap


class DeviceModel:
    """Base class for modeled peripherals.

    Subclasses set :attr:`NAME`, :attr:`REGISTERS` (a
    :class:`RegisterMap`) and optionally :attr:`SIZE`, then attach side
    effects through the map's per-register hooks or by overriding
    :meth:`unmapped_read`/:meth:`unmapped_write`.
    """

    NAME = "periph"
    SIZE = 0x1000
    REGISTERS = RegisterMap()

    def __init__(self, base: int, machine=None, name: Optional[str] = None):
        self.name = name or self.NAME
        self.base = base
        #: back-reference for IRQ routing and cycle charging; None for
        #: bench-style standalone use against a bare bus
        self.machine = machine
        self.spec = self.REGISTERS
        self.regfile: Dict[str, int] = self.spec.reset_values()
        #: bumped on every state mutation; the fork-server's epoch gate
        #: skips the semantic reload when a restore window never touched
        #: the device
        self._epoch = 0
        # observability counters (telemetry, rewound on restore)
        self.mmio_reads = 0
        self.mmio_writes = 0
        self.region = MmioRegion(
            self.name, base, self.SIZE,
            on_read=self._mmio_read, on_write=self._mmio_write,
        )

    # ------------------------------------------------------------------
    # register file access (device-internal side; guest side goes
    # through the bus)
    # ------------------------------------------------------------------
    def reg_get(self, name: str) -> int:
        """Current value of a register, by name."""
        return self.regfile[name]

    def reg_set(self, name: str, value: int) -> None:
        """Device-side register update (bypasses guest-write semantics)."""
        reg = self.spec.reg(name)
        value &= reg.mask
        if self.regfile[name] != value:
            self.regfile[name] = value
            self._epoch += 1

    def touch(self) -> None:
        """Record a device-internal state mutation for the epoch gate."""
        self._epoch += 1

    # ------------------------------------------------------------------
    # compiled MMIO handlers
    # ------------------------------------------------------------------
    def _mmio_read(self, offset: int, size: int) -> int:
        self.mmio_reads += 1
        reg = self.spec.at(offset)
        if reg is None:
            return self.unmapped_read(offset, size)
        if reg.mode == "wo":
            value = 0
        else:
            value = self.regfile[reg.name]
        if reg.mode == "rc" and value:
            self.regfile[reg.name] = 0
            self._epoch += 1
        if reg.on_read is not None:
            override = reg.on_read(self, reg, value)
            if override is not None:
                value = override
        return value & reg.mask

    def _mmio_write(self, offset: int, size: int, value: int) -> None:
        self.mmio_writes += 1
        reg = self.spec.at(offset)
        if reg is None:
            self.unmapped_write(offset, size, value)
            return
        value &= reg.mask
        old = self.regfile[reg.name]
        if reg.mode in ("rw", "wo"):
            if old != value:
                self.regfile[reg.name] = value
                self._epoch += 1
        elif reg.mode == "w1c":
            cleared = old & ~value
            if cleared != old:
                self.regfile[reg.name] = cleared
                self._epoch += 1
        # ro/rc registers ignore guest writes
        if reg.on_write is not None:
            reg.on_write(self, reg, value, old)

    def unmapped_read(self, offset: int, size: int) -> int:
        """Fallback for offsets outside the map (reads-as-zero)."""
        return 0

    def unmapped_write(self, offset: int, size: int, value: int) -> None:
        """Fallback for offsets outside the map (writes ignored)."""

    # ------------------------------------------------------------------
    # state-provider protocol (ForkServer)
    # ------------------------------------------------------------------
    def save_state(self):
        """Opaque functional-state blob for the fork server's capture."""
        return (dict(self.regfile), self.extra_state(), self._epoch)

    def load_state(self, state) -> None:
        """Restore a blob captured by :meth:`save_state`.

        The epoch rewinds with the state: a reloaded device reads as
        captured, so the fork server's epoch gate skips it again until
        the next mutation.
        """
        regfile, extra, self._epoch = state
        self.regfile = dict(regfile)
        self.load_extra_state(extra)

    def state_epoch(self) -> Tuple[int, int]:
        return (id(self), self._epoch)

    def save_telemetry(self):
        """Counters rewound unconditionally on fork-server restore."""
        return dict(self.counters())

    def load_telemetry(self, telemetry) -> None:
        for attr, value in telemetry.items():
            setattr(self, attr, value)

    # subclass extension points ----------------------------------------
    def extra_state(self):
        """Subclass functional state beyond the register file."""
        return None

    def load_extra_state(self, extra) -> None:
        """Restore what :meth:`extra_state` captured."""

    def counters(self) -> Dict[str, int]:
        """attr-name -> value for the device's telemetry counters."""
        return {"mmio_reads": self.mmio_reads, "mmio_writes": self.mmio_writes}

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, base={self.base:#010x}, "
            f"regs={len(self.spec)})"
        )


__all__ = ["DeviceModel", "Reg", "RegisterMap"]
