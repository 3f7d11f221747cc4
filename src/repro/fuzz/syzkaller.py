"""The Syzkaller-shaped fuzzer: syscall programs + kcov coverage."""

from __future__ import annotations

from repro.firmware.builder import attach_runtime
from repro.firmware.registry import build_firmware
from repro.fuzz.coverage import EmulatorCoverage, KcovCoverage
from repro.fuzz.engine import FirmwareFuzzer
from repro.fuzz.ifspec import linux_interface


class SyzkallerFuzzer(FirmwareFuzzer):
    """Coverage-guided syscall fuzzing of Embedded Linux firmware."""

    name = "syzkaller"
    interface = staticmethod(linux_interface)

    def build_target(self, driver: bool) -> tuple:
        image = build_firmware(self.firmware, boot=False, driver=driver)
        runtime = attach_runtime(image, sanitizers=self.sanitizers)
        if image.ctx.kcov_enabled:
            return image, runtime, KcovCoverage(image.machine)
        return image, runtime, EmulatorCoverage(image.machine)
