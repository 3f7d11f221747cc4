"""Firmware build pipeline.

Builds one :class:`~repro.firmware.image.FirmwareImage` from an OS
factory + architecture + instrumentation mode.  This is the stand-in for
the firmware build systems the paper works against: the EMBSAN-C path
"links the dummy sanitizer library" (installs hypercall-emitting hooks),
the native path compiles the OS's own sanitizer in, and the EMBSAN-D /
bare paths ship the kernel untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.emulator.arch import arch_by_name
from repro.emulator.machine import Machine
from repro.errors import FirmwareBuildError
from repro.firmware.image import FirmwareImage
from repro.firmware.instrument import CompileTimeInstrumentation, InstrumentationMode
from repro.guest.context import GuestContext
from repro.os.common import BugSwitchboard, KernelBase
from repro.sanitizers.native import NativeKasan, NativeKcsan
from repro.sanitizers.runtime.runtime import (
    AllocFnSpec,
    CommonSanitizerRuntime,
    ReadySpec,
    RuntimeConfig,
)

#: factory signature: (machine, bugs) -> kernel (modules attached, unbooted)
KernelFactory = Callable[[Machine, BugSwitchboard], KernelBase]
#: driver-surface extension: (kernel, machine) -> None; attaches the
#: modeled peripheral(s) to the machine and the driver module(s) to the
#: kernel.  Runs only on ``driver=True`` builds: installing a module
#: allocates guest text, so adding one unconditionally would shift the
#: default build's addresses and break census byte identity.
DriverFactory = Callable[[KernelBase, Machine], None]


def build_image(
    name: str,
    arch: str,
    kernel_factory: KernelFactory,
    mode: InstrumentationMode = InstrumentationMode.NONE,
    bug_ids: Sequence[str] = (),
    native_sanitizers: Sequence[str] = (),
    kcov: bool = True,
    boot: bool = True,
    driver_factory: Optional[DriverFactory] = None,
) -> FirmwareImage:
    """Build (and by default boot) one firmware image.

    ``native_sanitizers`` only applies with ``InstrumentationMode.NATIVE``
    and selects which of ``("kasan", "kcsan")`` are compiled in.
    """
    if mode is InstrumentationMode.NATIVE and not native_sanitizers:
        native_sanitizers = ("kasan",)
    recipe = (name, arch, kernel_factory, mode, tuple(bug_ids),
              tuple(native_sanitizers), kcov, driver_factory)

    machine = Machine(arch_by_name(arch), name=name)
    ctx = GuestContext(machine)
    ctx.kcov_enabled = kcov
    bugs = BugSwitchboard(set(bug_ids))
    kernel = kernel_factory(machine, bugs)
    if driver_factory is not None:
        driver_factory(kernel, machine)

    native_hooks = []
    if mode is InstrumentationMode.EMBSAN_C:
        ctx.add_san_hooks(CompileTimeInstrumentation())
        kernel.ready_hypercall = True
    elif mode is InstrumentationMode.EMBSAN_D:
        # unmodified build: no dummy library, so no READY hypercall —
        # ready-to-run is only observable through the console banner
        kernel.ready_hypercall = False
    elif mode is InstrumentationMode.NATIVE:
        symbolizer = ctx.layout.function_at
        for tool in native_sanitizers:
            if tool == "kasan":
                hooks = NativeKasan(machine, symbolizer=symbolizer)
            elif tool == "kcsan":
                hooks = NativeKcsan(machine, symbolizer=symbolizer)
            else:
                raise FirmwareBuildError(f"unknown native sanitizer {tool!r}")
            ctx.add_san_hooks(hooks)
            native_hooks.append(hooks)
        kernel.ready_hypercall = True

    image = FirmwareImage(
        name, machine, ctx, kernel, mode,
        recipe=recipe, native_hooks=native_hooks,
    )
    if boot:
        image.boot()
    return image


# ----------------------------------------------------------------------
# runtime configuration
# ----------------------------------------------------------------------
def ground_truth_alloc_specs(kernel: KernelBase) -> Tuple[AllocFnSpec, ...]:
    """Allocator entry points straight from the kernel's own metadata.

    This is the oracle the Prober's behavioural identification is tested
    against; production flows use :mod:`repro.sanitizers.prober` instead.
    """
    specs = []
    for module in [kernel] + list(kernel.modules):
        for fn in module.functions.values():
            if fn.allocator in ("alloc", "free"):
                specs.append(
                    AllocFnSpec(
                        addr=fn.addr, kind=fn.allocator, name=fn.name,
                        size_arg=fn.size_arg, size_kind=fn.size_kind,
                        addr_arg=fn.addr_arg,
                    )
                )
    return tuple(specs)


#: build recipe -> allocator specs harvested by that recipe's dry run
_DRY_RUN_SPECS: Dict[tuple, Tuple[AllocFnSpec, ...]] = {}


def attach_runtime(
    image: FirmwareImage,
    sanitizers: Sequence[str] = ("kasan",),
    alloc_specs: Optional[Sequence[AllocFnSpec]] = None,
    panic_on_report: bool = False,
) -> CommonSanitizerRuntime:
    """Attach a Common Sanitizer Runtime matching the image's build mode.

    For EMBSAN-D images, ``alloc_specs`` should come from the Prober;
    when omitted the kernel's ground-truth metadata is used (tests and
    quick-start convenience).
    """
    if image.mode is InstrumentationMode.EMBSAN_C:
        config = RuntimeConfig(
            sanitizers=tuple(sanitizers), mode="c",
            ready=ReadySpec(kind="hypercall"),
            panic_on_report=panic_on_report,
        )
    elif image.mode is InstrumentationMode.EMBSAN_D:
        if alloc_specs is not None:
            specs = tuple(alloc_specs)
        elif image.booted:
            specs = ground_truth_alloc_specs(image.kernel)
        else:
            # guest function addresses only exist after install; harvest
            # them from a dry-run boot of an identical build (the layout
            # is deterministic, so addresses match) — the same way the
            # Prober's pre-testing dry run learns them behaviourally, and
            # like it, once per recipe for the whole process
            specs = _DRY_RUN_SPECS.get(image.recipe)
            if specs is None:
                specs = ground_truth_alloc_specs(image.clone().kernel)
                _DRY_RUN_SPECS[image.recipe] = specs
        config = RuntimeConfig(
            sanitizers=tuple(sanitizers), mode="d", alloc_fns=specs,
            ready=ReadySpec(kind="banner", banner=image.banner_bytes),
            panic_on_report=panic_on_report,
        )
    else:
        raise FirmwareBuildError(
            f"cannot attach EMBSAN to a {image.mode.value!r} build; "
            "rebuild with EMBSAN_C or EMBSAN_D"
        )
    runtime = CommonSanitizerRuntime(
        image.machine, config, symbolizer=image.symbolizer()
    )
    return runtime.attach()


def build_with_embsan(
    name: str,
    arch: str,
    kernel_factory: KernelFactory,
    mode: InstrumentationMode,
    sanitizers: Sequence[str] = ("kasan",),
    bug_ids: Sequence[str] = (),
    alloc_specs: Optional[Sequence[AllocFnSpec]] = None,
    panic_on_report: bool = False,
) -> Tuple[FirmwareImage, CommonSanitizerRuntime]:
    """Build a firmware, attach EMBSAN *before* boot, then boot.

    Attaching first lets the runtime observe boot-time allocator events,
    the same information the Prober's recorded init routine would seed.
    """
    image = build_image(
        name, arch, kernel_factory, mode=mode, bug_ids=bug_ids, boot=False
    )
    runtime = attach_runtime(
        image, sanitizers=sanitizers, alloc_specs=alloc_specs,
        panic_on_report=panic_on_report,
    )
    image.boot()
    return image, runtime
