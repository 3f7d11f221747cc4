"""Per-layer host-time ledger, recorded from outside the program.

Each layer is a set of public functions and methods of ``repro``.
:meth:`Tracer.install` replaces them, on their classes and modules, with
wrappers that record one span per call: layer, parent span, start and
end.  Spans stay in memory until :meth:`Tracer.ledger` folds them into
per-layer call counts and self time (a span's duration minus the time
its child spans cover) and :meth:`Tracer.write` stores them.

The wrappers must be installed before the first fuzzer is built: the
sanitizer probe and the TCG templates bind their callables when they
attach, so a later install would miss those call sites.  Wrapping
changes no argument, return value or exception, so a traced campaign
produces exactly the outcome of an untraced one; the benchmark checks
that on every traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from typing import Dict, List, Sequence, Tuple

#: (layer, [(module, class or None, attribute)...], what it should move).
#: The third field is the prediction a later change is held to: which
#: end-to-end metric, on which workload, a saving in this layer shows in.
LAYERS: Sequence[Tuple[str, Sequence[Tuple[str, str, str]], str]] = (
    ("fuzz.mutate", (
        ("repro.fuzz.program", "Mutator", "mutate"),
        ("repro.fuzz.ifspec", "InterfaceSpec", "generate_call"),
    ), "execs_per_sec on census (small share: expect little)"),
    ("fuzz.coverage", (
        ("repro.fuzz.coverage", "CoverageMap", "begin_input"),
        ("repro.fuzz.coverage", "CoverageMap", "new_coverage"),
        ("repro.fuzz.coverage", "CoverageMap", "input_points"),
    ), "execs_per_sec on census"),
    ("fuzz.reset", (
        ("repro.fuzz.engine", "FuzzTarget", "reset"),
    ), "execs_per_sec on reset-storm and vxworks; wall_s on census"),
    ("emulator.snapshot.restore", (
        ("repro.emulator.snapshot", "ForkServer", "restore"),
    ), "execs_per_sec on reset-storm and vxworks"),
    ("emulator.snapshot.journal", (
        ("repro.emulator.snapshot", "Checkpoint", "__init__"),
        ("repro.emulator.snapshot", "Checkpoint", "commit"),
        ("repro.emulator.snapshot", "Checkpoint", "rollback"),
    ), "execs_per_sec on census"),
    ("emulator.snapshot.golden", (
        ("repro.emulator.snapshot", "ForkServer", "__init__"),
    ), "setup_s on reset-storm and vxworks (zero calls on census)"),
    ("firmware.build", (
        ("repro.fuzz.syzkaller", None, "build_firmware"),
        ("repro.fuzz.syzkaller", None, "attach_runtime"),
        ("repro.fuzz.tardis", None, "build_firmware"),
        ("repro.fuzz.tardis", None, "attach_runtime"),
        ("repro.firmware.image", "FirmwareImage", "boot"),
    ), "setup_s on every workload; wall_s on census, where every "
       "journal refresh and replay rebuilds"),
    ("os.syscall", (
        ("repro.os.embedded_linux.kernel", "EmbeddedLinuxKernel",
         "do_syscall"),
        ("repro.os.freertos.kernel", "FreeRtosKernel", "invoke"),
        ("repro.os.liteos.kernel", "LiteOsKernel", "invoke"),
        ("repro.os.vxworks.kernel", "VxWorksKernel", "invoke"),
        ("repro.os.common", "KernelBase", "driver_invoke"),
    ), "execs_per_sec on census"),
    ("guest.call", (
        ("repro.guest.context", "GuestContext", "call"),
    ), "execs_per_sec on census"),
    ("os.vxworks.mempart", (
        ("repro.os.vxworks.mempart", "MemPartLib", "memPartAlloc"),
        ("repro.os.vxworks.mempart", "MemPartLib", "memPartFree"),
    ), "execs_per_sec on vxworks"),
    ("guest.raw", (
        ("repro.guest.context", "GuestContext", "raw_ld32"),
        ("repro.guest.context", "GuestContext", "raw_st32"),
        ("repro.guest.context", "GuestContext", "raw_read"),
        ("repro.guest.context", "GuestContext", "raw_write"),
    ), "execs_per_sec on vxworks"),
    ("emulator.hooks.emit", (
        ("repro.emulator.hooks", "HookRegistry", "emit"),
    ), "execs_per_sec on census"),
    ("emulator.vmcall", (
        ("repro.emulator.machine", "Machine", "vmcall"),
    ), "execs_per_sec on census"),
    ("mem.bus", (
        ("repro.mem.bus", "MemoryBus", "load"),
        ("repro.mem.bus", "MemoryBus", "store"),
        ("repro.mem.bus", "MemoryBus", "read_bytes"),
        ("repro.mem.bus", "MemoryBus", "write_bytes"),
        ("repro.mem.bus", "MemoryBus", "fill"),
        ("repro.mem.bus", "MemoryBus", "copy"),
    ), "execs_per_sec on census (traced stores) and vxworks "
       "(untraced allocator loads)"),
    ("sanitizers.check", (
        ("repro.sanitizers.runtime.kasan", "KasanEngine", "check"),
        ("repro.sanitizers.runtime.kcsan", "KcsanEngine", "check"),
        ("repro.sanitizers.runtime.kmsan", "KmsanEngine", "check"),
        ("repro.sanitizers.runtime.shadow", "ShadowMemory", "check"),
    ), "execs_per_sec on census"),
    ("sanitizers.alloc", (
        ("repro.sanitizers.runtime.kasan", "KasanEngine", "on_alloc"),
        ("repro.sanitizers.runtime.kasan", "KasanEngine", "on_free"),
        ("repro.sanitizers.runtime.kmsan", "KmsanEngine", "on_alloc"),
        ("repro.sanitizers.runtime.kmsan", "KmsanEngine", "on_free"),
        ("repro.sanitizers.runtime.shadow", "ShadowMemory", "poison"),
        ("repro.sanitizers.runtime.shadow", "ShadowMemory", "unpoison"),
    ), "execs_per_sec on census"),
    ("sanitizers.report", (
        ("repro.sanitizers.runtime.reports", "ReportSink", "emit"),
        ("repro.sanitizers.runtime.shadow", "ShadowMemory", "dump_around"),
    ), "execs_per_sec and wall_s (via reproduce_s) on census"),
    ("isa.run", (
        ("repro.isa.tcg", "TcgEngine", "run"),
        ("repro.isa.cpu", "Cpu", "run"),
    ), "execs_per_sec on vxworks only (zero calls on census)"),
    ("fuzz.reproduce", (
        ("repro.fuzz.engine", "FuzzerEngine", "reproduce_findings"),
    ), "wall_s (via reproduce_s) on census"),
)

LAYER_NAMES = tuple(name for name, _targets, _moves in LAYERS)


class Tracer:
    """Spans of one traced process, held in flat arrays."""

    def __init__(self):
        self.layer = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        #: 1 for spans opened inside ``FuzzerEngine.run`` (the fuzz phase)
        self.fuzz = array("B")
        self._stack: List[int] = [-1]
        self._in_fuzz = 0

    # ------------------------------------------------------------------
    def _span(self, layer_id: int, fn):
        layer, parent, start, end, fuzz = (
            self.layer, self.parent, self.start, self.end, self.fuzz)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            fuzz.append(self._in_fuzz)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def _fuzz_phase(self, fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            self._in_fuzz += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_fuzz -= 1

        return run

    @staticmethod
    def _replace(owner, attr: str, wrapper) -> None:
        # a class's own attribute, never one inherited from a base class
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, wrapper(original))

    def install(self) -> "Tracer":
        """Wrap every layer's functions; call before building a fuzzer."""
        for layer_id, (_name, targets, _moves) in enumerate(LAYERS):
            for module_name, class_name, attr in targets:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                self._replace(
                    owner, attr,
                    functools.partial(self._span, layer_id))
        from repro.fuzz.engine import FuzzerEngine

        self._replace(FuzzerEngine, "run", self._fuzz_phase)
        return self

    # ------------------------------------------------------------------
    def ledger(self, fuzz_s: float) -> Dict[str, object]:
        """Per-layer calls and self time, plus the part of ``fuzz_s``
        (fuzz-phase wall seconds, as the probe times them) that no
        fuzz-phase span covers."""
        count = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * count
        for index in range(count):
            up = parent[index]
            if up >= 0:
                child[up] += end[index] - start[index]
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        fuzz_self_s = 0.0
        layer, fuzz = self.layer, self.fuzz
        for index in range(count):
            own = end[index] - start[index] - child[index]
            calls[layer[index]] += 1
            self_s[layer[index]] += own
            if fuzz[index]:
                fuzz_self_s += own
        return {
            "spans": count,
            "layers": {
                name: {"calls": calls[i], "self_ms": self_s[i] * 1e3}
                for i, name in enumerate(LAYER_NAMES)
            },
            "fuzz_ms": fuzz_s * 1e3,
            "unattributed_ms": (fuzz_s - fuzz_self_s) * 1e3,
        }

    def write(self, directory: str) -> None:
        """Store the spans: flat arrays in native byte order, plus a
        ``spans.json`` header describing them."""
        os.makedirs(directory, exist_ok=True)
        for field in ("layer", "parent", "start", "end", "fuzz"):
            with open(os.path.join(directory, f"{field}.bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
        header = {
            "spans": len(self.start),
            "layers": list(LAYER_NAMES),
            "arrays": {
                "layer": "B: index into layers",
                "parent": "l: parent span index, -1 at the root",
                "start": "d: perf_counter seconds",
                "end": "d: perf_counter seconds",
                "fuzz": "B: 1 inside FuzzerEngine.run",
            },
        }
        with open(os.path.join(directory, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
