"""The Common Sanitizer Runtime (§3.3).

Accepts the distilled sanitizer specification and the probed platform
configuration (both arrive as plain config objects, normally compiled
from the SanSpec DSL), then wires the KASAN/KCSAN engines to the
machine:

* **EMBSAN-C** — handles the dummy-sanitizer-library hypercalls
  (``SAN_LOAD``/``SAN_STORE``/``SAN_ALLOC``/...) that instrumented
  firmware issues; the hypercall fast path of the paper.  One
  catch-all vmcall probe dispatches through a ``number → method`` table
  built at attach time.
* **EMBSAN-D** — observes raw bus accesses, injects probes into every
  attached TCG engine's translation templates, and reconstructs
  allocator semantics from call/return probes planned on exactly the
  allocator entry points the Prober identified.

Attaching compiles the configuration into the machine's probe plan
(see :mod:`repro.emulator.hooks`): a guest call to anything but an
allocator runs no runtime code at all.

State-maintenance events (allocations, globals, stack frames) are
processed from the moment of attachment; *validation* begins at the
firmware's ready-to-run point, detected by hypercall or by the probed
console banner.  Alternatively :meth:`apply_init_routine` replays a
Prober-recorded initialization sequence onto a started machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.costmodel import BREAKDOWN, CostModel, DEFAULT_COSTS
from repro.emulator.events import ConsoleEvent, EventKind
from repro.emulator.hypercalls import Hypercall
from repro.emulator.machine import Machine
from repro.errors import DslError
from repro.mem.access import Access, AccessKind
from repro.sanitizers.runtime.kasan import KasanEngine
from repro.sanitizers.runtime.kcsan import KcsanEngine
from repro.sanitizers.runtime.reports import ReportSink
from repro.sanitizers.runtime.shadow import ShadowMemory

from repro.os.embedded_linux.buddy import PAGE_SIZE

#: compared on every EMBSAN-C access hypercall, as plain ints (reading an
#: IntEnum member off its class costs more than the compare)
_SAN_STORE = int(Hypercall.SAN_STORE)
_SAN_RANGE_WRITE = int(Hypercall.SAN_RANGE_WRITE)


@dataclass(frozen=True)
class AllocFnSpec:
    """One allocator entry point, as identified by the Prober."""

    addr: int
    kind: str  #: "alloc" or "free"
    name: str = ""
    size_arg: int = 0  #: which ABI argument carries the size (alloc)
    size_kind: str = "bytes"  #: "bytes" or "page_order"
    addr_arg: int = 0  #: which ABI argument carries the pointer (free)
    cache_hint: int = 0

    def size_from(self, args: List[int]) -> int:
        """Derive the allocation size from call arguments."""
        raw = args[self.size_arg] if self.size_arg < len(args) else 0
        if self.size_kind == "page_order":
            return PAGE_SIZE << min(raw, 16)
        return raw


@dataclass(frozen=True)
class ReadySpec:
    """How the runtime recognizes the firmware's ready-to-run state."""

    kind: str = "hypercall"  #: "hypercall" or "banner"
    banner: bytes = b""


@dataclass
class RuntimeConfig:
    """Everything the Common Sanitizer Runtime needs to start."""

    sanitizers: Tuple[str, ...] = ("kasan",)
    mode: str = "c"  #: "c" (hypercall fast path) or "d" (dynamic probes)
    alloc_fns: Tuple[AllocFnSpec, ...] = ()
    ready: ReadySpec = field(default_factory=ReadySpec)
    panic_on_report: bool = False
    costs: CostModel = DEFAULT_COSTS

    def validate(self) -> None:
        """Reject configurations the runtime cannot honor."""
        if self.mode not in ("c", "d"):
            raise DslError(f"unknown runtime mode {self.mode!r}")
        unknown = set(self.sanitizers) - {"kasan", "kcsan", "kmsan"}
        if unknown:
            raise DslError(f"unknown sanitizers {sorted(unknown)}")
        if "kmsan" in self.sanitizers and self.mode != "c":
            # like the real KMSAN, uninit tracking needs compile-time
            # instrumentation: there is no binary-only variant
            raise DslError("kmsan functionality requires mode 'c' "
                           "(compile-time instrumentation)")
        if self.mode == "d" and self.ready.kind == "banner" and not self.ready.banner:
            raise DslError("banner ready-detection requires banner bytes")


class CommonSanitizerRuntime:
    """Attach sanitizer engines to one machine."""

    def __init__(
        self,
        machine: Machine,
        config: RuntimeConfig,
        symbolizer: Optional[Callable[[int], str]] = None,
    ):
        config.validate()
        self.machine = machine
        self.config = config
        self.costs = config.costs
        self.shadow = ShadowMemory(machine.bus)
        self.sink = ReportSink(
            panic_on_report=config.panic_on_report, symbolizer=symbolizer
        )
        self.kasan: Optional[KasanEngine] = None
        self.kcsan: Optional[KcsanEngine] = None
        self.kmsan = None
        # every charge is one count in a slot of the machine's overhead
        # ledger; a scalar check charges its mode's interception + check
        ledger = machine.ledger
        costs = self.costs
        mode = config.mode
        intercept = "trap" if mode == "c" else "intercept"

        def scalar_slot(name: str) -> int:
            return ledger.slot(
                interception=getattr(costs, f"{name}_{mode}_{intercept}"),
                checks=getattr(costs, f"{name}_{mode}_check"))

        self._counts = ledger.counts
        #: range checks add their exact centi-cycles here
        self._range_slot = ledger.slot(range=0.01)
        if "kasan" in config.sanitizers:
            self.kasan = KasanEngine(self.shadow, self.sink)
            self._kasan_slot = scalar_slot("kasan")
            self._alloc_slot = ledger.slot(allocator=costs.alloc_cost(mode))
        if "kcsan" in config.sanitizers:
            self.kcsan = KcsanEngine(self.sink)
            self._kcsan_slot = scalar_slot("kcsan")
        if "kmsan" in config.sanitizers:
            from repro.sanitizers.runtime.kmsan import KmsanEngine

            self.kmsan = KmsanEngine(self.sink)
            self._kmsan_slot = scalar_slot("kmsan")
            self._kmsan_alloc_slot = ledger.slot(allocator=costs.kmsan_c_alloc)
            self._kmsan_range_slot = ledger.slot(range=costs.kmsan_c_check)
        self.enabled = False
        self.attached = False
        self._alloc_map: Dict[int, AllocFnSpec] = {
            spec.addr: spec for spec in config.alloc_fns
        }
        #: per-task stacks of in-flight allocator calls
        self._pending: Dict[int, List[Tuple[AllocFnSpec, int]]] = {}
        self._suppress = 0
        self._console_tail = b""
        self._handlers: List[Tuple[EventKind, Callable]] = []
        #: (probe table, handler) pairs this runtime planned on the machine
        self._probes: List[Tuple[object, Callable]] = []
        #: EMBSAN-C hypercall number -> method, compiled at attach
        self._vmcall_handlers: Dict[int, Callable] = {}
        self.events_handled = 0
        #: the delegate injected into TCG templates and observing the bus,
        #: and its clean-access test for the templates (None when the
        #: sanitizer set has no inline fast path)
        self._probe_cb, self._clean_cb = self._make_probe()

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self) -> "CommonSanitizerRuntime":
        """Subscribe to machine events according to the configured mode."""
        if self.attached:
            return self
        machine = self.machine
        hooks = machine.hooks
        self._subscribe(hooks, EventKind.READY, self._on_ready)
        if self.config.mode == "c":
            self._vmcall_handlers = self._compile_vmcalls()
            clean = self._make_vm_clean()
            tests = None if clean is None else {
                Hypercall.SAN_LOAD: clean, Hypercall.SAN_STORE: clean}
            self._plan(machine.vmcalls, self._on_vmcall, clean=tests)
        else:
            machine.bus.add_observer(self._probe_cb, clean=self._clean_cb)
            allocators = tuple(self._alloc_map)
            self._plan(machine.calls, self._on_call, allocators)
            self._plan(machine.rets, self._on_ret, allocators)
            if self.config.ready.kind == "banner":
                self._subscribe(hooks, EventKind.CONSOLE, self._on_console)
            # patch probes into every TCG engine's translation templates,
            # including engines attached after us (created at guest boot)
            for engine in self.machine.engines:
                self._inject_probe(engine)
            self.machine.engine_listeners.append(self._inject_probe)
        # register as a state provider so a fork-server restore keeps
        # shadow memory and allocator maps coherent with guest memory
        self.machine.state_providers.append(self)
        self.attached = True
        return self

    def _inject_probe(self, engine) -> None:
        add_probe = getattr(engine, "add_mem_probe", None)
        if add_probe is not None:
            add_probe(self._probe_cb, clean=self._clean_cb)

    def _make_probe(self) -> Tuple[Callable[[Access], None],
                                   Optional[Callable[[int, int], bool]]]:
        """Build the combined probe and its clean-access test.

        Returns ``(probe, clean)``.  When KASAN is active (without
        KMSAN), scalar DATA traffic first takes an inlined
        addressable-granule test against the unified shadow; only
        non-zero shadow bytes fall into the full validation walk (report
        classification, partial granules, quarantine lookups).  KCSAN
        still observes *every* data access — races live on perfectly
        addressable memory — and all ledger counts and counters are
        identical to the callback path, so the fast path changes
        wall-clock cost only, never the modeled overhead or the
        detection behaviour.

        ``clean(addr, size)`` is that fast path with no ``Access`` at
        all, for TCG templates: on an access the probe would settle
        without the full walk it does the probe's exact work (gates,
        counters, the ledger count) and returns True; otherwise it does
        nothing and returns False.  It exists only for KASAN alone, and
        is None otherwise.
        """
        if self.kasan is None or self.kmsan is not None:
            return self._on_access, None
        kasan = self.kasan
        kcsan = self.kcsan
        data = AccessKind.DATA
        shadow = self.shadow
        clear_for = shadow.clear_for
        counts = self._counts
        kasan_slot = self._kasan_slot
        if kcsan is not None:
            kcsan_slot = self._kcsan_slot

        def probe(access: Access) -> None:
            if not self.enabled or self._suppress:
                return
            if access.kind is not data:
                # FETCH filtering and RANGE decomposition stay on the
                # callback path
                self._on_access(access)
                return
            self.events_handled += 1
            counts[kasan_slot] += 1
            if kasan.suppress_depth:
                pass
            elif clear_for(access.addr, access.size):
                kasan.checks += 1
            else:
                kasan.check(access)
            if kcsan is not None:
                counts[kcsan_slot] += 1
                kcsan.check(access)

        if kcsan is not None:
            return probe, None

        def clean(addr: int, size: int) -> bool:
            if not self.enabled or self._suppress:
                return True
            if not kasan.suppress_depth:
                # ShadowMemory.clear_for, inlined for the region it
                # resolved last
                region = shadow._last
                if region.base <= addr < region.end:
                    table = region.bytes
                    first = (addr - region.base) >> 3
                    last = (addr + size - 1 - region.base) >> 3
                    if (table[first] if first == last
                            else any(table[first:last + 1])):
                        return False
                    shadow.check_ops += 1
                    shadow.fastpath_hits += 1
                elif not clear_for(addr, size):
                    return False
                kasan.checks += 1
            self.events_handled += 1
            counts[kasan_slot] += 1
            return True

        return probe, clean

    def detach(self) -> None:
        """Unsubscribe everything (end of a testing campaign)."""
        for kind, handler in self._handlers:
            self.machine.hooks.remove(kind, handler)
        for table, handler in self._probes:
            table.remove(handler)
        self.machine.bus.remove_observer(self._probe_cb)
        for engine in self.machine.engines:
            remove_probe = getattr(engine, "remove_mem_probe", None)
            if remove_probe is not None:
                remove_probe(self._probe_cb)
        if self._inject_probe in self.machine.engine_listeners:
            self.machine.engine_listeners.remove(self._inject_probe)
        if self in self.machine.state_providers:
            self.machine.state_providers.remove(self)
        self._handlers.clear()
        self._probes.clear()
        self.attached = False

    # ------------------------------------------------------------------
    # state-provider protocol (fork-server golden capture)
    # ------------------------------------------------------------------
    def save_state(self) -> dict:
        """Capture the golden sanitizer state without copying shadow.

        Returns the semantic state (allocator maps, quarantine, pending
        stacks, watchpoints); from here on the shadow table keeps each
        page's golden bytes the first time the page is poisoned or
        unpoisoned, so capture costs nothing per shadow byte.
        Diagnostic counters (checks, events_handled) are excluded: they
        are telemetry, rewound by :meth:`load_telemetry`.
        """
        self.shadow.begin_golden()
        return self._save_semantic()

    def _save_semantic(self) -> dict:
        state = {
            "enabled": self.enabled,
            "suppress": self._suppress,
            "pending": {task: list(stack) for task, stack in self._pending.items()},
            "console_tail": self._console_tail,
        }
        if self.kasan is not None:
            state["kasan_live"] = dict(self.kasan.live)
            state["kasan_freed"] = self.kasan.freed.save_state()
            state["kasan_suppress"] = self.kasan.suppress_depth
        if self.kcsan is not None:
            state["kcsan_seq"] = self.kcsan._seq
            state["kcsan_watches"] = {
                addr: list(watches)
                for addr, watches in self.kcsan._watches.items()
            }
            state["kcsan_suppress"] = self.kcsan.suppress_depth
        return state

    def load_state(self, state: dict) -> None:
        """Rewind to the state :meth:`save_state` captured.

        Shadow pages untouched since the golden capture already hold the
        golden bytes, so only the pages the session poisoned copy back.
        Everything else (allocator maps, pending stacks, watchpoints) is
        small and restores in full.
        """
        self.shadow.restore_golden()
        self.enabled = state["enabled"]
        self._suppress = state["suppress"]
        self._pending = {
            task: list(stack) for task, stack in state["pending"].items()
        }
        self._console_tail = state["console_tail"]
        if self.kasan is not None:
            self.kasan.live = dict(state["kasan_live"])
            self.kasan.freed.load_state(state["kasan_freed"])
            self.kasan.suppress_depth = state["kasan_suppress"]
        if self.kcsan is not None:
            self.kcsan._seq = state["kcsan_seq"]
            self.kcsan._watches = {
                addr: list(watches)
                for addr, watches in state["kcsan_watches"].items()
            }
            self.kcsan.suppress_depth = state["kcsan_suppress"]

    def state_epoch(self) -> tuple:
        """Cheap fingerprint of the semantic state :meth:`save_state` covers.

        Every mutation of that state moves at least one component:
        shadow/allocator transitions bump ``shadow.poison_ops`` (each
        live-map or quarantine change is paired with a poison or
        unpoison), any shadow write since the golden capture leaves
        shadow pages dirty,
        KCSAN watchpoint recording bumps ``_seq``, and
        in-flight allocator bookkeeping shows up in the suppress depth
        and pending stacks.  Equal epochs therefore mean the semantic
        state is byte-identical, letting a delta restore skip the reload
        entirely.  Pure telemetry (check counters, the overhead ledger)
        deliberately moves nothing here.
        """
        pending = tuple(
            (task, tuple(stack))
            for task, stack in self._pending.items()
            if stack
        )
        epoch: tuple = (
            self.enabled,
            self._suppress,
            pending,
            self._console_tail,
            self.shadow.poison_ops,
            self.shadow.dirty_pages(),
        )
        if self.kasan is not None:
            epoch += (
                self.kasan.allocs,
                self.kasan.frees,
                self.kasan.suppress_depth,
            )
        if self.kcsan is not None:
            epoch += (self.kcsan._seq, self.kcsan.suppress_depth)
        return epoch

    # ------------------------------------------------------------------
    # telemetry capture (fork-server restore ≡ rebuild contract)
    # ------------------------------------------------------------------
    def save_telemetry(self) -> dict:
        """Capture the diagnostic counters :meth:`save_state` excludes.

        A rebuild-per-refresh run starts each session from the fresh
        post-boot counter values; a fork-server restore reproduces that
        by rewinding the counters (and the report sink) to their golden
        values, so harvested metrics read golden-base + session-delta in
        both execution modes.
        """
        telemetry = {
            "events_handled": self.events_handled,
            "shadow": (
                self.shadow.poison_ops,
                self.shadow.check_ops,
                self.shadow.fastpath_hits,
            ),
            "reports": list(self.sink.reports),
            "unique": dict(self.sink.unique),
            "listeners": list(self.sink.listeners),
        }
        if self.kasan is not None:
            telemetry["kasan"] = (
                self.kasan.checks,
                self.kasan.allocs,
                self.kasan.frees,
                self.kasan.freed.pushes,
                self.kasan.freed.evictions,
            )
        if self.kcsan is not None:
            telemetry["kcsan"] = (self.kcsan.checks, self.kcsan.races_seen)
        return telemetry

    def load_telemetry(self, telemetry: dict) -> None:
        """Rewind counters and the report sink to a captured state."""
        self.events_handled = telemetry["events_handled"]
        (
            self.shadow.poison_ops,
            self.shadow.check_ops,
            self.shadow.fastpath_hits,
        ) = telemetry["shadow"]
        self.sink.reports[:] = telemetry["reports"]
        self.sink.unique.clear()
        self.sink.unique.update(telemetry["unique"])
        self.sink.listeners[:] = telemetry["listeners"]
        self.sink.begin_exec()
        if self.kasan is not None and "kasan" in telemetry:
            (
                self.kasan.checks,
                self.kasan.allocs,
                self.kasan.frees,
                self.kasan.freed.pushes,
                self.kasan.freed.evictions,
            ) = telemetry["kasan"]
        if self.kcsan is not None and "kcsan" in telemetry:
            self.kcsan.checks, self.kcsan.races_seen = telemetry["kcsan"]

    def _subscribe(self, hooks, kind: EventKind, handler: Callable) -> None:
        hooks.add(kind, handler)
        self._handlers.append((kind, handler))

    def _plan(self, table, handler: Callable, keys=None, clean=None) -> None:
        table.add(handler, keys, clean)
        self._probes.append((table, handler))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _on_ready(self, _payload) -> None:
        self.enabled = True

    def _on_console(self, event: ConsoleEvent) -> None:
        if self.enabled:
            return
        banner = self.config.ready.banner
        self._console_tail = (self._console_tail + bytes([event.byte]))[-len(banner):]
        if self._console_tail == banner:
            self.enabled = True
            self.machine.mark_ready()

    def apply_init_routine(self, routine) -> None:
        """Replay a Prober-recorded initialization sequence (DSL ops).

        ``routine`` is an iterable of ``(op, args)`` pairs as produced by
        :mod:`repro.sanitizers.prober`; it seeds engine state so the
        runtime can attach to an already-booted snapshot.
        """
        for op, args in routine:
            if op == "alloc" and self.kasan is not None:
                self.kasan.on_alloc(*args)
            elif op == "free" and self.kasan is not None:
                self.kasan.on_free(*args)
            elif op == "global" and self.kasan is not None:
                self.kasan.register_global(*args)
            elif op == "ready":
                self.enabled = True
            else:  # pragma: no cover - defensive
                raise DslError(f"unknown init-routine op {op!r}")

    # ------------------------------------------------------------------
    # EMBSAN-C: hypercall fast path
    # ------------------------------------------------------------------
    def _compile_vmcalls(self) -> Dict[int, Callable]:
        """The ``number → method`` table of the hypercall fast path.

        Only hypercalls some configured engine acts on get an entry;
        every other number (``SAN_STACK_ENTER``, coverage, lifecycle) is
        counted by :meth:`_on_vmcall` and otherwise ignored.  The table
        holds the class's functions, not bound methods, so a runtime
        (one per journal-mode rebuild) adds one dict, not one object per
        hypercall, to what the garbage collector tracks.
        """
        cls = type(self)
        table: Dict[int, Callable] = {
            Hypercall.SAN_LOAD: cls._vm_access,
            Hypercall.SAN_STORE: cls._vm_access,
            Hypercall.SAN_RANGE_READ: cls._vm_range,
            Hypercall.SAN_RANGE_WRITE: cls._vm_range,
        }
        if self.kasan is not None or self.kmsan is not None:
            table[Hypercall.SAN_ALLOC] = cls._vm_alloc
            table[Hypercall.SAN_FREE] = cls._vm_free
        if self.kasan is not None:
            table[Hypercall.SAN_SLAB_PAGE] = cls._vm_slab_page
            table[Hypercall.SAN_GLOBAL_REG] = cls._vm_global
            table[Hypercall.SAN_STACK_VAR] = cls._vm_stack_var
            table[Hypercall.SAN_STACK_LEAVE] = cls._vm_stack_leave
        if self.kmsan is not None:
            table[Hypercall.SAN_MARK_INIT] = cls._vm_mark_init
        return {int(number): method for number, method in table.items()}

    def _make_vm_clean(self) -> Optional[Callable[[int, int], bool]]:
        """The ``SAN_LOAD``/``SAN_STORE`` clean test (KASAN alone), or None.

        ``clean(addr, size)`` does the hypercall path's whole work for an
        access it settles without a report and returns True; on a
        poisoned or partial granule it does nothing and returns False.
        Like that path, and unlike the EMBSAN-D test, it counts no
        ``fastpath_hits``.
        """
        if self.kasan is None or self.kcsan is not None or self.kmsan is not None:
            return None
        kasan = self.kasan
        shadow = self.shadow
        counts = self._counts
        kasan_slot = self._kasan_slot

        def clean(addr: int, size: int) -> bool:
            if self.enabled:
                if not kasan.suppress_depth:
                    # ShadowMemory.check of an all-zero span, inlined
                    region = shadow._last
                    if not region.base <= addr < region.end:
                        region = shadow._find(addr)
                    if region is not None:
                        table = region.bytes
                        first = (addr - region.base) >> 3
                        last = (addr + size - 1 - region.base) >> 3
                        if (table[first] if first == last
                                else any(table[first:last + 1])):
                            return False
                        shadow.check_ops += 1
                    kasan.checks += 1
                counts[kasan_slot] += 1
            self.events_handled += 1
            return True

        return clean

    def _on_vmcall(self, number: int, args: List[int], pc: int,
                   task: int) -> None:
        self.events_handled += 1
        method = self._vmcall_handlers.get(number)
        if method is not None:
            method(self, number, args, pc, task)

    # every handler below takes the plan's (number, args, pc, task)
    def _vm_access(self, number: int, args: List[int], pc: int,
                   task: int) -> None:
        if not self.enabled:
            return
        access = Access(
            args[0], args[1] or 1, number == _SAN_STORE,
            pc=pc, task=task,
            atomic=bool(args[2]) if len(args) > 2 else False,
        )
        self._run_checks(access)

    def _vm_range(self, number: int, args: List[int], pc: int,
                  task: int) -> None:
        if self.enabled:
            self._check_range(
                args[0], args[1], number == _SAN_RANGE_WRITE, pc, task)

    def _vm_alloc(self, number: int, args: List[int], pc: int,
                  task: int) -> None:
        if self.kasan is not None:
            self.kasan.on_alloc(args[0], args[1], args[2], pc, task)
            self._counts[self._alloc_slot] += 1
        if self.kmsan is not None:
            self.kmsan.on_alloc(args[0], args[1], args[2], pc, task)
            self._counts[self._kmsan_alloc_slot] += 1

    def _vm_free(self, number: int, args: List[int], pc: int,
                 task: int) -> None:
        if self.kasan is not None:
            self.kasan.on_free(args[0], pc, task)
            self._counts[self._alloc_slot] += 1
        if self.kmsan is not None:
            self.kmsan.on_free(args[0], pc, task)

    def _vm_mark_init(self, number: int, args: List[int], pc: int,
                      task: int) -> None:
        self.kmsan.mark_initialized(args[0], args[1])

    def _vm_slab_page(self, number: int, args: List[int], pc: int,
                      task: int) -> None:
        self.kasan.on_slab_page(args[0], args[1])

    def _vm_global(self, number: int, args: List[int], pc: int,
                   task: int) -> None:
        self.kasan.register_global(args[0], args[1], args[2])

    def _vm_stack_var(self, number: int, args: List[int], pc: int,
                      task: int) -> None:
        self.kasan.stack_var(args[0], args[1])

    def _vm_stack_leave(self, number: int, args: List[int], pc: int,
                        task: int) -> None:
        self.kasan.stack_clear(args[0], args[1])

    # ------------------------------------------------------------------
    # EMBSAN-D: dynamic interception
    # ------------------------------------------------------------------
    def _on_access(self, access: Access) -> None:
        if not self.enabled or self._suppress:
            return
        if access.kind is AccessKind.FETCH:
            return
        self.events_handled += 1
        if access.kind is AccessKind.RANGE:
            self._check_range(access.addr, access.size, access.is_write,
                              access.pc, access.task)
            return
        self._run_checks(access)

    # _on_call/_on_ret are planned on exactly the allocator entry points,
    # so every call they see is to an AllocFnSpec address
    def _on_call(self, pc: int, target: int, args: List[int],
                 task: int) -> None:
        spec = self._alloc_map[target]
        self.events_handled += 1
        self._suppress += 1
        stack = self._pending.setdefault(task, [])
        nested = bool(stack)
        if spec.kind == "alloc":
            stack.append((spec, spec.size_from(args)))
        else:
            addr = args[spec.addr_arg] if args else 0
            stack.append((spec, addr))
            # a free issued from inside another allocator call is that
            # allocator releasing backing store, not an object lifetime
            # event (e.g. kfree of a large object forwarding to the buddy)
            if not nested and self.kasan is not None:
                self.kasan.on_free(addr, pc, task)
                self._counts[self._alloc_slot] += 1

    def _on_ret(self, target: int, retval: int, task: int) -> None:
        stack = self._pending.get(task)
        if not stack:
            return
        pending_spec, value = stack.pop()
        self._suppress = max(0, self._suppress - 1)
        if pending_spec.kind == "alloc" and self.kasan is not None:
            if retval:
                if stack and stack[-1][0].kind == "alloc":
                    # a page allocation nested inside another allocator is
                    # slab backing store: poison it like kasan_poison_slab
                    self.kasan.on_slab_page(retval, value)
                else:
                    self.kasan.on_alloc(
                        retval, value, pending_spec.cache_hint,
                        target, task,
                    )
                self._counts[self._alloc_slot] += 1

    # ------------------------------------------------------------------
    def _check_range(self, addr: int, size: int, is_write: bool,
                     pc: int, task: int) -> None:
        access = Access(addr, size, is_write, pc, task, kind=AccessKind.RANGE)
        counts = self._counts
        mode = self.config.mode
        if self.kasan is not None:
            counts[self._range_slot] += self.costs.range_centi(size, mode, "kasan")
            self.kasan.check(access)
        if self.kcsan is not None:
            counts[self._range_slot] += self.costs.range_centi(size, mode, "kcsan")
            self.kcsan.check(access)
        if self.kmsan is not None:
            counts[self._kmsan_range_slot] += 1
            self.kmsan.check(access)

    def _run_checks(self, access: Access) -> None:
        counts = self._counts
        if self.kasan is not None:
            counts[self._kasan_slot] += 1
            self.kasan.check(access)
        if self.kcsan is not None:
            counts[self._kcsan_slot] += 1
            self.kcsan.check(access)
        if self.kmsan is not None:
            counts[self._kmsan_slot] += 1
            self.kmsan.check(access)

    @property
    def breakdown(self) -> Dict[str, float]:
        """The §4.3 composition: added cycles per category, read from the
        machine's overhead ledger."""
        ledger = self.machine.ledger
        return {key: ledger.total(key) / 100 for key in BREAKDOWN}

    def profile(self) -> Dict[str, float]:
        """The §4.3 composition analysis: fraction of added cycles per
        category (interception / checks / allocator / range)."""
        ledger = self.machine.ledger
        centi = {key: ledger.total(key) for key in BREAKDOWN}
        total = sum(centi.values())
        return {key: value / total if total else 0.0
                for key, value in centi.items()}

    # ------------------------------------------------------------------
    @property
    def reports(self) -> ReportSink:
        """The runtime's report sink."""
        return self.sink

    def stats(self) -> Dict[str, int]:
        """Diagnostic counters."""
        out = {
            "events_handled": self.events_handled,
            "shadow_checks": self.shadow.check_ops,
            "shadow_fastpath_hits": self.shadow.fastpath_hits,
            "shadow_poisons": self.shadow.poison_ops,
            "reports": self.sink.count(),
            "unique_reports": self.sink.unique_count(),
        }
        if self.kasan is not None:
            out["kasan_checks"] = self.kasan.checks
            out["kasan_live"] = self.kasan.live_count()
            out["kasan_allocs"] = self.kasan.allocs
            out["kasan_frees"] = self.kasan.frees
            out["quarantine_pushes"] = self.kasan.freed.pushes
            out["quarantine_evictions"] = self.kasan.freed.evictions
            out["quarantine_len"] = len(self.kasan.freed)
        if self.kcsan is not None:
            out["kcsan_checks"] = self.kcsan.checks
            out["kcsan_races"] = self.kcsan.races_seen
        return out
