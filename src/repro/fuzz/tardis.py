"""The Tardis-shaped fuzzer: executor programs + OS-agnostic coverage.

Tardis collects coverage from the emulator itself (function-entry
events), which is what lets it drive LiteOS, FreeRTOS and even the
closed-source VxWorks firmware without any in-guest instrumentation.
The paper extended it with per-OS executor programs and interface
specifications — here those are the :mod:`repro.fuzz.ifspec` RTOS
templates (and the Linux one for OpenHarmony-rk3566).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import FuzzerError
from repro.firmware.builder import attach_runtime
from repro.firmware.registry import build_firmware
from repro.fuzz.coverage import EmulatorCoverage
from repro.fuzz.engine import (
    DEFAULT_CRASH_BUDGET,
    DEFAULT_WATCHDOG_CYCLES,
    DEFAULT_WATCHDOG_INSNS,
    FuzzerEngine,
    FuzzTarget,
)
from repro.fuzz.ifspec import driver_interface, interface_for
from repro.fuzz.spec import SURFACES


class TardisFuzzer(FuzzerEngine):
    """Coverage-guided RTOS fuzzing with emulator-level coverage."""

    name = "tardis"

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
            spec = interface_for(target.image.kernel)
        super().__init__(target, spec, seed=seed, fault_plan=fault_plan,
                         crash_budget=crash_budget, observer=observer,
                         corpus_store=corpus_store,
                         seed_schedule=seed_schedule, shard=shard)
