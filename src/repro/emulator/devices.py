"""Platform device models: UART console, timer, and a DMA engine.

The devices matter for two reasons.  First, the Prober's category-3 mode
plants probes "within the emulator's devices" (§3.2) — the UART boot
banner is the behavioural signal it uses to find the ready-to-run point
of firmware it cannot instrument.  Second, the DMA engine produces
memory traffic that does not originate from any CPU instruction, which
sanitizers must still validate (KASAN checks DMA'd buffers).

All three are built on the declarative peripheral layer
(:mod:`repro.periph`): each device is a :class:`RegisterMap` compiled by
:class:`DeviceModel` into the same :class:`~repro.mem.regions.MmioRegion`
handlers the hand-rolled versions installed.  Default behaviour —
offsets, read values, side effects, even reads of unmapped offsets
returning 0 — is byte-identical to the original models.  The machine
registers all three as state providers, so the fork server rewinds
their functional state (``output``, ``ticks``/``enabled``,
``src``/``dst``/``length``/``transfers``) through the same
``save_state``/``load_state`` pair as every modeled peripheral.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.mem.access import AccessKind
from repro.mem.bus import MemoryBus
from repro.periph.device import DeviceModel
from repro.periph.regmap import Reg, RegisterMap
from repro.periph.ring import (
    check_dma_overlap,
    check_dma_window,
)

# UART register offsets
UART_DATA = 0x00
UART_STATUS = 0x04
# Timer register offsets
TIMER_COUNT = 0x00
TIMER_CTRL = 0x04
# DMA register offsets
DMA_SRC = 0x00
DMA_DST = 0x04
DMA_LEN = 0x08
DMA_CTRL = 0x0C
# interrupt lines
DMA_IRQ = 1


def _uart_data_write(dev, reg, value, old):
    byte = value & 0xFF
    dev.output.append(byte)
    # every byte grows ``output``, even one equal to the last: the
    # register write alone moves the epoch only when the value changes
    dev.touch()
    if dev.on_byte is not None:
        dev.on_byte(byte)


class Uart(DeviceModel):
    """A write-only console UART capturing guest output on the host."""

    NAME = "uart"
    REGISTERS = RegisterMap(
        Reg("data", UART_DATA, mode="wo", on_write=_uart_data_write),
        # always ready to transmit
        Reg("status", UART_STATUS, mode="ro", reset=0x1),
    )

    def __init__(self, base: int, on_byte: Optional[Callable[[int], None]] = None):
        self.output = bytearray()
        self.on_byte = on_byte
        super().__init__(base)

    def text(self) -> str:
        """Console output decoded as best-effort UTF-8."""
        return self.output.decode("utf-8", errors="replace")

    def lines(self) -> List[str]:
        """Console output split into lines."""
        return self.text().splitlines()

    def extra_state(self):
        return bytes(self.output)

    def load_extra_state(self, extra) -> None:
        self.output[:] = extra


def _timer_count_read(dev, reg, value):
    if dev.enabled:
        dev.ticks += 1
        dev.touch()
    return dev.ticks & 0xFFFFFFFF


def _timer_count_write(dev, reg, value, old):
    dev.ticks = value
    dev.touch()


def _timer_ctrl_read(dev, reg, value):
    return 1 if dev.enabled else 0


def _timer_ctrl_write(dev, reg, value, old):
    dev.enabled = bool(value & 1)
    dev.touch()


class Timer(DeviceModel):
    """A free-running timer the guest can read for timestamps."""

    NAME = "timer"
    REGISTERS = RegisterMap(
        Reg("count", TIMER_COUNT,
            on_read=_timer_count_read, on_write=_timer_count_write),
        Reg("ctrl", TIMER_CTRL,
            on_read=_timer_ctrl_read, on_write=_timer_ctrl_write),
    )

    def __init__(self, base: int):
        self.ticks = 0
        self.enabled = True
        super().__init__(base)

    def extra_state(self):
        return (self.ticks, self.enabled)

    def load_extra_state(self, extra) -> None:
        self.ticks, self.enabled = extra


def _dma_src_read(dev, reg, value):
    return dev.src


def _dma_dst_read(dev, reg, value):
    return dev.dst


def _dma_len_read(dev, reg, value):
    return dev.length


def _dma_src_write(dev, reg, value, old):
    dev.src = value
    dev.touch()


def _dma_dst_write(dev, reg, value, old):
    dev.dst = value
    dev.touch()


def _dma_len_write(dev, reg, value, old):
    dev.length = value
    dev.touch()


def _dma_ctrl_write(dev, reg, value, old):
    if value:
        dev._kick()


class DmaEngine(DeviceModel):
    """A one-channel DMA engine.

    Writing a nonzero value to ``DMA_CTRL`` copies ``DMA_LEN`` bytes from
    ``DMA_SRC`` to ``DMA_DST``.  The copy is issued on the system bus with
    :class:`~repro.mem.access.AccessKind.DMA`, so sanitizers observe it
    even though no CPU instruction performed it.

    Hostile programming — a window into MMIO space, a length crossing
    the end of a region, or overlapping src/dst — raises a structured
    :class:`~repro.errors.DmaFault` before any byte moves, so the
    guest's control-register store aborts instead of the host throwing.
    """

    NAME = "dma"
    REGISTERS = RegisterMap(
        Reg("src", DMA_SRC, on_read=_dma_src_read, on_write=_dma_src_write),
        Reg("dst", DMA_DST, on_read=_dma_dst_read, on_write=_dma_dst_write),
        Reg("len", DMA_LEN, on_read=_dma_len_read, on_write=_dma_len_write),
        Reg("ctrl", DMA_CTRL, mode="wo", on_write=_dma_ctrl_write),
    )

    def __init__(
        self,
        base: int,
        bus: MemoryBus,
        on_complete: Optional[Callable[[], None]] = None,
    ):
        self.bus = bus
        self.on_complete = on_complete
        self.src = 0
        self.dst = 0
        self.length = 0
        self.transfers = 0
        super().__init__(base)

    def _kick(self) -> None:
        if self.length == 0:
            return
        check_dma_window(self.bus, self.src, self.length, writing=False,
                         device=self.name)
        check_dma_window(self.bus, self.dst, self.length, writing=True,
                         device=self.name)
        check_dma_overlap(self.src, self.dst, self.length, device=self.name)
        payload = self.bus.read_bytes(self.src, self.length, kind=AccessKind.DMA)
        self.bus.write_bytes(self.dst, payload, kind=AccessKind.DMA)
        self.transfers += 1
        self.touch()
        # completion interrupt: routed through Machine.raise_irq so the
        # fault plan can drop or delay it like real flaky hardware
        if self.on_complete is not None:
            self.on_complete()

    def extra_state(self):
        return (self.src, self.dst, self.length, self.transfers)

    def load_extra_state(self, extra) -> None:
        self.src, self.dst, self.length, self.transfers = extra
