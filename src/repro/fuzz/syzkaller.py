"""The Syzkaller-shaped fuzzer: syscall programs + kcov coverage."""

from __future__ import annotations

from typing import Sequence

from repro.errors import FuzzerError
from repro.firmware.builder import attach_runtime
from repro.firmware.registry import build_firmware
from repro.fuzz.coverage import EmulatorCoverage, KcovCoverage
from repro.fuzz.engine import (
    DEFAULT_CRASH_BUDGET,
    DEFAULT_WATCHDOG_CYCLES,
    DEFAULT_WATCHDOG_INSNS,
    FuzzerEngine,
    FuzzTarget,
)
from repro.fuzz.ifspec import driver_interface, linux_interface
from repro.fuzz.spec import SURFACES


class SyzkallerFuzzer(FuzzerEngine):
    """Coverage-guided syscall fuzzing of Embedded Linux firmware."""

    name = "syzkaller"

    def __init__(
        self,
        firmware: str,
        sanitizers: Sequence[str] = ("kasan",),
        seed: int = 0,
        fault_plan=None,
        crash_budget: int = DEFAULT_CRASH_BUDGET,
        watchdog_insns: int = DEFAULT_WATCHDOG_INSNS,
        watchdog_cycles: float = DEFAULT_WATCHDOG_CYCLES,
        observer=None,
        corpus_store=None,
        seed_schedule: str = "uniform",
        shard=None,
        exec_mode: str = "journal",
        surface: str = "syscall",
    ):
        if surface not in SURFACES:
            raise FuzzerError(
                f"unknown fuzz surface {surface!r} "
                f"(expected one of {', '.join(SURFACES)})"
            )
        self.firmware = firmware
        self.sanitizers = tuple(sanitizers)
        self.surface = surface

        def make():
            image = build_firmware(
                firmware, boot=False, driver=(surface == "driver")
            )
            runtime = attach_runtime(image, sanitizers=self.sanitizers)
            if image.ctx.kcov_enabled:
                coverage = KcovCoverage(image.machine)
            else:
                coverage = EmulatorCoverage(image.machine)
            image.boot()
            # arm hardening after boot so boot-time work never trips the
            # per-program watchdog; the shared fault plan keeps one RNG
            # stream across target rebuilds
            if fault_plan is not None:
                image.machine.set_fault_plan(fault_plan)
            image.machine.set_watchdog(
                insn_budget=watchdog_insns, cycle_budget=watchdog_cycles
            )
            return image, runtime, coverage

        target = FuzzTarget(make, exec_mode=exec_mode)
        if surface == "driver":
            spec = driver_interface(target.image.kernel)
        else:
            spec = linux_interface(target.image.kernel)
        super().__init__(target, spec, seed=seed, fault_plan=fault_plan,
                         crash_budget=crash_budget, observer=observer,
                         corpus_store=corpus_store,
                         seed_schedule=seed_schedule, shard=shard)
