"""Firmware images: a built machine + kernel + build-mode artifacts.

An image is one *build* of one firmware: the same firmware can be built
bare (overhead baseline), with compile-time EMBSAN instrumentation
(EMBSAN-C), unmodified for dynamic interception (EMBSAN-D), or with a
native sanitizer compiled in.  Experiments that need a pristine target
(reproducing a crash, measuring overhead) rebuild via :meth:`clone`,
which replays the image's build :attr:`FirmwareImage.recipe`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.emulator.machine import Machine
from repro.errors import FirmwareBuildError
from repro.firmware.instrument import InstrumentationMode
from repro.guest.context import GuestContext
from repro.os.common import KernelBase


class FirmwareImage:
    """One built firmware instance."""

    def __init__(
        self,
        name: str,
        machine: Machine,
        ctx: GuestContext,
        kernel: KernelBase,
        mode: InstrumentationMode,
        recipe: Optional[Tuple] = None,
        native_hooks: Optional[List[object]] = None,
    ):
        self.name = name
        self.machine = machine
        self.ctx = ctx
        self.kernel = kernel
        self.mode = mode
        #: hashable build recipe: ``(name, arch, kernel_factory, mode,
        #: bug_ids, native_sanitizers, kcov, driver_factory)``
        self.recipe = recipe
        self.native_hooks = native_hooks or []
        self.booted = False

    # ------------------------------------------------------------------
    def boot(self) -> "FirmwareImage":
        """Boot the kernel; idempotent guard against double boots."""
        if self.booted:
            raise FirmwareBuildError(f"firmware {self.name!r} already booted")
        self.kernel.boot(self.ctx)
        self.booted = True
        return self

    def clone(self) -> "FirmwareImage":
        """Build and boot a pristine copy of this image (same recipe).

        Clones always boot: they exist to reproduce crashes or dry-run.
        The driver surface is part of the recipe, so crash reproduction
        and EMBSAN-D dry runs see the same address layout.
        """
        if self.recipe is None:
            raise FirmwareBuildError(
                f"firmware {self.name!r} was built without a rebuild recipe"
            )
        from repro.firmware.builder import build_image

        name, arch, factory, mode, bugs, native, kcov, driver = self.recipe
        return build_image(name, arch, factory, mode, bugs, native, kcov,
                           boot=True, driver_factory=driver)

    # ------------------------------------------------------------------
    @property
    def banner_bytes(self) -> bytes:
        """The console banner marking the ready-to-run state."""
        return self.kernel.banner.encode()

    def symbolizer(self) -> Callable[[int], str]:
        """pc -> function-name mapper over this image's layout."""
        return self.ctx.layout.function_at

    def console(self) -> str:
        """Console output so far."""
        return self.machine.console_text()

    def native_reports(self):
        """Unique reports from native sanitizer hooks (when built native)."""
        out = []
        for hooks in self.native_hooks:
            sink = getattr(hooks, "reports", None)
            if sink is not None:
                out.extend(sink.unique.values())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FirmwareImage({self.name!r}, mode={self.mode.value}, "
            f"arch={self.machine.arch.name}, booted={self.booted})"
        )
