"""The emulation layer: machines, hooks, hypercalls and device models.

A :class:`~repro.emulator.machine.Machine` bundles a guest memory bus,
one or more execution engines, device models, a probe plan and a hook
registry.  Together they are the integration surface for the Common
Sanitizer Runtime: function calls, returns and hypercalls dispatch
through the plan's keyed tables, and the rarer events (task switch,
interrupt, console byte, boot-ready, memory access) through the hook
registry's broadcast (see :mod:`repro.emulator.hooks`).
"""

from repro.emulator.arch import Arch, ARCHS, arch_by_name
from repro.emulator.events import EventKind
from repro.emulator.hooks import HookRegistry
from repro.emulator.hypercalls import Hypercall
from repro.emulator.machine import Machine

__all__ = [
    "ARCHS",
    "Arch",
    "EventKind",
    "HookRegistry",
    "Hypercall",
    "Machine",
    "arch_by_name",
]
