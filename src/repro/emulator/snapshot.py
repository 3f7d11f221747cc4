"""Machine snapshots, lightweight checkpoints, and the fork server.

Three restore strategies over one dirty-set abstraction
(:mod:`repro.mem.dirty`), ordered by how much they copy:

* :class:`Snapshot` — full capture / full restore.  Copies every RAM
  region both ways; cost is O(machine size).  Used by the Prober's
  multi-pass dry runs, where restores are rare and simplicity wins.
  When a :class:`~repro.mem.dirty.DirtySet` is attached to the bus, a
  full restore conservatively marks everything dirty *before* it
  rewrites it, so a later delta restore stays sound.
* :class:`Checkpoint` — journal-backed rollback point.  Arms the bus
  write journal and rewinds only the bytes an input actually wrote;
  cost is O(bytes written).  The journal's pre-image log *is* its dirty
  record, byte-exact; rollback marks the pages it rewinds like any
  other bus write.  Used for per-input crash isolation in the
  journaled execution mode.
* :class:`ForkServer` — golden snapshot + dirty-page delta restore.
  Captures the ready-to-run state once (engine and machine state,
  device models, provider state, and the host-side Python object graph
  of the rehosted kernel) without copying RAM: the DirtySet keeps each
  page's golden bytes the first time the page is written after
  capture.  Restores between programs copy back only the pages the
  session dirtied, invalidate only translations built from dirty code
  pages, and reload only state providers whose epoch actually moved.
  Capture and restore both cost O(pages touched) — the AFL fork-server
  idea applied to a rehosted machine.

Device and host-side observer state (hooks, tracers, metric registries)
is deliberately *not* captured by any strategy: observers persist
across restores.  The fork server additionally leaves each engine's
translation cache and translation counters alone — surviving
translations across resets is the point of the exercise — so TB
statistics intentionally diverge from a rebuild-per-refresh run.
"""

from __future__ import annotations

import enum
import time
import types
from collections import deque
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.emulator.machine import Machine
from repro.errors import SnapshotError
from repro.mem.dirty import PAGE_SHIFT, DirtySet
from repro.mem.regions import MmioRegion


class _EngineState(NamedTuple):
    regs: Tuple[int, ...]
    pc: int
    halted: bool
    task: int


def _capture_engine(engine) -> _EngineState:
    return _EngineState(
        tuple(engine.state.regs),
        engine.state.pc,
        engine.state.halted,
        engine.state.task,
    )


def _restore_engine(engine, saved: _EngineState) -> None:
    # In place: specialized TCG thunks bind the register-file list by
    # identity at translate time, so the list must never be reassigned
    # or cached blocks would keep the orphaned one.
    engine.state.regs[:] = saved.regs
    engine.state.pc = saved.pc
    engine.state.halted = saved.halted
    engine.state.task = saved.task


class Snapshot:
    """An immutable capture of one machine's guest-visible state."""

    def __init__(self, machine: Machine):
        self._regions: Dict[str, bytes] = {}
        for region in machine.bus.regions:
            if isinstance(region, MmioRegion):
                continue
            self._regions[region.name] = bytes(region.data)
        self._engines: List[_EngineState] = [
            _capture_engine(engine) for engine in machine.engines
        ]
        self._ready = machine.ready
        self._task = machine.current_task
        # host-side runtime state (shadow memory, allocator maps, ...)
        # captured via the provider protocol: save_state() -> opaque blob
        self._provider_states = [
            (provider, provider.save_state())
            for provider in machine.state_providers
        ]

    def restore(self, machine: Machine) -> None:
        """Write the captured state back into ``machine``.

        Raises :class:`~repro.errors.SnapshotError` when a mapped region
        cannot be restored faithfully — missing from the capture or
        resized since — instead of silently leaving stale bytes behind.
        """
        dirty = machine.bus.dirty
        for region in machine.bus.regions:
            if isinstance(region, MmioRegion):
                continue
            saved = self._regions.get(region.name)
            if saved is None:
                raise SnapshotError(
                    "mapped after the snapshot was taken; restore would "
                    "leave its contents stale",
                    region=region.name,
                )
            if len(saved) != region.size:
                raise SnapshotError(
                    f"snapshot holds {len(saved)} bytes but the region "
                    f"is now {region.size} bytes",
                    region=region.name,
                )
            if dirty is not None:
                # full rewrite bypasses the bus: mark first, so pages a
                # fork server has not yet kept save their golden bytes
                dirty.mark_all(region.name, region.size)
            region.data[:] = saved
        for engine, saved in zip(machine.engines, self._engines):
            _restore_engine(engine, saved)
            # Region restores above bypassed the bus, so cached translation
            # blocks (and their chained links) may hold a stale code image.
            flush = getattr(engine, "flush_tbs", None)
            if flush is not None:
                flush()
        machine.ready = self._ready
        machine.panicked = None
        machine.current_task = self._task
        # providers restore *after* guest memory so a provider that peeks
        # at the bus (shadow reconstruction) sees the restored image
        for provider, saved in self._provider_states:
            provider.load_state(saved)

    def ram_bytes(self) -> int:
        """Total bytes captured (diagnostic)."""
        return sum(len(data) for data in self._regions.values())


def take(machine: Machine) -> Snapshot:
    """Capture a snapshot of ``machine``."""
    return Snapshot(machine)


class Checkpoint:
    """A journal-backed rollback point for per-input crash isolation.

    Arms the machine's bus write journal at construction and captures
    engine registers plus machine flags.  Exactly one of
    :meth:`commit` (keep all writes) or :meth:`rollback` (rewind them,
    LIFO) must be called; both disarm the journal.  Cost scales with
    bytes *written* after the checkpoint, not with RAM size, so a fuzzer
    can afford one per executed program.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self._engines: List[_EngineState] = [
            _capture_engine(engine) for engine in machine.engines
        ]
        self._ready = machine.ready
        self._panicked = machine.panicked
        self._task = machine.current_task
        machine.bus.journal_begin()
        self.active = True

    def commit(self) -> int:
        """Keep everything written since the checkpoint."""
        if not self.active:
            return 0
        self.active = False
        return self.machine.bus.journal_commit()

    def rollback(self) -> int:
        """Rewind guest memory, engine state and machine flags.

        Translation caches are invalidated only over the journalled
        write span: a rollback that touched no translated code — the
        overwhelmingly common case, since fuzz inputs write data, not
        instructions — keeps every cached block and its chain links.
        """
        if not self.active:
            return 0
        self.active = False
        machine = self.machine
        # read before rollback: rollback consumes the journal
        bounds = machine.bus.journal_write_bounds()
        undone = machine.bus.journal_rollback()
        for engine, saved in zip(machine.engines, self._engines):
            _restore_engine(engine, saved)
            if bounds is None:
                continue
            invalidate = getattr(engine, "invalidate_range", None)
            if invalidate is not None:
                invalidate(bounds[0], bounds[1])
            else:
                flush = getattr(engine, "flush_tbs", None)
                if flush is not None:
                    flush()
        machine.ready = self._ready
        machine.panicked = self._panicked
        machine.current_task = self._task
        return undone


# ----------------------------------------------------------------------
# fork server: golden snapshot + dirty-page delta restore
# ----------------------------------------------------------------------
class RestoreStats(NamedTuple):
    """What one delta restore cost."""

    pages: int  #: dirty pages copied back
    us: float  #: wall-clock microseconds for the whole restore
    tb_dropped: int  #: translation blocks invalidated
    providers_reloaded: int  #: state providers whose epoch had moved


class ForkServer:
    """Golden snapshot of a ready-to-run machine, restored by delta.

    Capture once at the point the fuzz target is ready to accept
    programs; :meth:`restore` then rewinds the machine to that exact
    state in time proportional to the pages the session dirtied, not to
    RAM size.  Capture copies no RAM: golden pages are kept copy-on-
    first-write by the bus-attached :class:`~repro.mem.dirty.DirtySet`,
    and state providers offering ``save_golden``/``load_golden`` (the
    sanitizer runtime's shadow table) do the same for their own state.
    The restored state is byte-identical to what a fresh
    rebuild-and-boot produces (boot is deterministic), which is the
    contract the census byte-identity tests enforce.

    ``host_roots`` seeds the host-side object walk: the rehosted kernel
    and its guest context.  Every plain-data attribute reachable from
    them through ``repro.os``/``repro.guest`` objects is captured and
    restored; opaque values (machine references, callables, mmap
    handles) pass through untouched by identity.
    """

    def __init__(self, machine: Machine, host_roots: Tuple = ()):
        self.machine = machine
        self.restores = 0
        bus = machine.bus
        #: captured RAM region name -> its backing buffer; the golden
        #: bytes themselves are kept lazily by ``self.dirty``
        self._ram: Dict[str, object] = {}
        self._device_ram: Dict[str, bytes] = {}
        for region in bus.regions:
            if isinstance(region, MmioRegion) or region.kind == "device":
                # device apertures are tiny and their backing store must
                # stay coherent with restored device-model attributes, so
                # they restore in full every time
                self._device_ram[region.name] = bytes(region.data)
            else:
                self._ram[region.name] = region.data
        self.dirty = DirtySet(self._ram)
        self._engines = [
            (
                _capture_engine(engine),
                {
                    name: getattr(engine, name)
                    for name in ("cycles", "insn_count", "host_ops")
                    if hasattr(engine, name)
                },
            )
            for engine in machine.engines
        ]
        self._ready = machine.ready
        self._panicked = machine.panicked
        self._task = machine.current_task
        self._charged = machine._charged_guest_cycles
        self._overhead = machine.overhead_cycles
        self._irqs_delivered = machine.irqs_delivered
        self._pending_irqs = [list(entry) for entry in machine._pending_irqs]
        self._engine_listeners = list(machine.engine_listeners)
        uart = machine.uart
        self._uart_output = bytes(uart.output) if uart is not None else None
        timer = machine.timer
        self._timer = (timer.ticks, timer.enabled) if timer is not None else None
        dma = machine.dma
        self._dma = (
            (dma.src, dma.dst, dma.length, dma.transfers)
            if dma is not None
            else None
        )
        watchdog = machine.watchdog
        self._watchdog = (
            (watchdog.insns, watchdog.cycles, watchdog.trips,
             tuple(watchdog._ring))
            if watchdog is not None
            else None
        )
        self._providers = []
        for provider in machine.state_providers:
            epoch_fn = getattr(provider, "state_epoch", None)
            telemetry_fn = getattr(provider, "save_telemetry", None)
            save = getattr(provider, "save_golden", None)
            self._providers.append(
                (
                    provider,
                    save() if save is not None else provider.save_state(),
                    epoch_fn() if epoch_fn is not None else None,
                    telemetry_fn() if telemetry_fn is not None else None,
                )
            )
        self._host_state = _capture_host_state(host_roots)
        # from here on, every bus write marks pages for the next restore
        bus.attach_dirty(self.dirty)

    # ------------------------------------------------------------------
    def restore(self) -> RestoreStats:
        """Rewind the machine to the golden state; cost is O(dirty pages)."""
        start = time.perf_counter()
        machine = self.machine
        dirty = self.dirty
        pages = 0
        code_spans: List[Tuple[int, int]] = []
        for region in machine.bus.regions:
            name = region.name
            if isinstance(region, MmioRegion) or region.kind == "device":
                golden = self._device_ram.get(name)
                if golden is not None and len(golden) == region.size:
                    region.data[:] = golden
                continue
            data = self._ram.get(name)
            if data is None:
                raise SnapshotError(
                    "mapped after the golden capture; delta restore "
                    "cannot reconstruct it",
                    region=name,
                )
            if region.data is not data:
                raise SnapshotError(
                    "remapped since the golden capture; its golden pages "
                    "belong to the old backing buffer",
                    region=name,
                )
            spans = dirty.spans(name)
            if not spans:
                continue
            golden = dirty.golden(name)
            for lo, hi in spans:
                for page in range(lo >> PAGE_SHIFT, hi >> PAGE_SHIFT):
                    image = golden[page]
                    offset = page << PAGE_SHIFT
                    data[offset:offset + len(image)] = image
                pages += (hi - lo) >> PAGE_SHIFT
                code_spans.append(
                    (region.base + lo, region.base + min(hi, region.size)))
        tb_dropped = 0
        for engine, (saved, counters) in zip(machine.engines, self._engines):
            _restore_engine(engine, saved)
            for counter, value in counters.items():
                setattr(engine, counter, value)
            invalidate = getattr(engine, "invalidate_range", None)
            if invalidate is not None:
                for lo, hi in code_spans:
                    tb_dropped += invalidate(lo, hi)
            elif code_spans:
                flush = getattr(engine, "flush_tbs", None)
                if flush is not None:
                    flush()
        machine.ready = self._ready
        machine.panicked = self._panicked
        machine.current_task = self._task
        machine._charged_guest_cycles = self._charged
        machine.overhead_cycles = self._overhead
        machine.irqs_delivered = self._irqs_delivered
        machine._pending_irqs = [list(entry) for entry in self._pending_irqs]
        machine.engine_listeners[:] = self._engine_listeners
        if self._uart_output is not None and machine.uart is not None:
            machine.uart.output[:] = self._uart_output
        if self._timer is not None and machine.timer is not None:
            machine.timer.ticks, machine.timer.enabled = self._timer
        if self._dma is not None and machine.dma is not None:
            dma = machine.dma
            dma.src, dma.dst, dma.length, dma.transfers = self._dma
        if self._watchdog is not None and machine.watchdog is not None:
            watchdog = machine.watchdog
            insns, cycles, trips, ring = self._watchdog
            watchdog.insns = insns
            watchdog.cycles = cycles
            watchdog.trips = trips
            watchdog._ring.clear()
            watchdog._ring.extend(ring)
        _restore_host_state(self._host_state)
        # providers restore after guest memory (see Snapshot.restore);
        # the epoch gate skips the semantic reload entirely when nothing
        # the provider tracks actually changed, and telemetry (counters,
        # report sink) rewinds unconditionally — it moves on every check
        reloaded = 0
        for provider, saved, epoch, telemetry in self._providers:
            epoch_fn = getattr(provider, "state_epoch", None)
            if epoch_fn is None or epoch is None or epoch_fn() != epoch:
                load = getattr(provider, "load_golden", None)
                if load is not None:
                    load(saved)
                else:
                    provider.load_state(saved)
                reloaded += 1
            if telemetry is not None:
                provider.load_telemetry(telemetry)
        dirty.clear()
        self.restores += 1
        us = (time.perf_counter() - start) * 1e6
        return RestoreStats(pages, us, tb_dropped, reloaded)

    def detach(self) -> None:
        """Stop tracking dirty pages (the fork server is being dropped)."""
        if self.machine.bus.dirty is self.dirty:
            self.machine.bus.detach_dirty()

    def ram_bytes(self) -> int:
        """Golden guest bytes held (diagnostic).

        The device apertures' full copies plus the RAM pages kept so
        far: it grows with the pages written since capture, not with
        RAM size.
        """
        return self.dirty.golden_bytes() + sum(
            len(data) for data in self._device_ram.values()
        )


# ----------------------------------------------------------------------
# host-side Python state capture
# ----------------------------------------------------------------------
#: instances of classes from these packages form the walkable graph
_WALK_PREFIXES = ("repro.os", "repro.guest")

#: attribute-level marker: leave the attribute untouched on restore
_OPAQUE = object()


class _FrozenList(NamedTuple):
    items: list


class _FrozenTuple(NamedTuple):
    items: tuple


class _FrozenSet(NamedTuple):
    items: list


class _FrozenDict(NamedTuple):
    items: list


class _FrozenDeque(NamedTuple):
    items: list
    maxlen: Optional[int]


class _FrozenBytearray(NamedTuple):
    data: bytes


def _walkable(value) -> bool:
    module = getattr(type(value), "__module__", None) or ""
    if not module.startswith(_WALK_PREFIXES):
        return False
    if isinstance(value, type):
        return False
    # __slots__ objects (guest functions, frames) are opaque references
    return hasattr(value, "__dict__")


def _freeze(value, queue: list):
    """Deep-copy plain data; pass objects through by reference.

    Walkable objects are queued so their own attributes get captured;
    everything else (machine references, callables, mmap handles) stays
    an identity reference inside containers.
    """
    if value is None or isinstance(
        value, (int, float, bool, str, bytes, frozenset, enum.Enum)
    ):
        return value
    if isinstance(value, bytearray):
        return _FrozenBytearray(bytes(value))
    if isinstance(value, list):
        return _FrozenList([_freeze(item, queue) for item in value])
    if isinstance(value, tuple):
        return _FrozenTuple(tuple(_freeze(item, queue) for item in value))
    if isinstance(value, set):
        return _FrozenSet([_freeze(item, queue) for item in value])
    if isinstance(value, dict):
        return _FrozenDict(
            [(_freeze(k, queue), _freeze(v, queue)) for k, v in value.items()]
        )
    if isinstance(value, deque):
        return _FrozenDeque([_freeze(item, queue) for item in value], value.maxlen)
    if _walkable(value):
        queue.append(value)
    return value


def _thaw(frozen):
    if isinstance(frozen, _FrozenList):
        return [_thaw(item) for item in frozen.items]
    if isinstance(frozen, _FrozenTuple):
        return tuple(_thaw(item) for item in frozen.items)
    if isinstance(frozen, _FrozenSet):
        return {_thaw(item) for item in frozen.items}
    if isinstance(frozen, _FrozenDict):
        return {_thaw(k): _thaw(v) for k, v in frozen.items}
    if isinstance(frozen, _FrozenDeque):
        return deque((_thaw(item) for item in frozen.items), frozen.maxlen)
    if isinstance(frozen, _FrozenBytearray):
        return bytearray(frozen.data)
    return frozen


_MISSING = object()


def _capture_host_state(roots) -> List[Tuple[object, dict, dict]]:
    """Capture the plain-data attributes of every reachable host object.

    Each entry carries, besides the frozen attribute values, a thawed
    *prototype* per container attribute: restore compares the live value
    against it (a C-level ``==``, allocation-free) and only rebuilds
    attributes that actually changed — with no custom ``__eq__`` in the
    walked modules, element equality for object references is identity,
    so an equal container is exactly one that needs no restore.
    """
    saved: List[Tuple[object, dict, dict]] = []
    visited = set()
    queue = [root for root in roots if root is not None]
    while queue:
        obj = queue.pop()
        if id(obj) in visited or not _walkable(obj):
            continue
        visited.add(id(obj))
        attrs: Dict[str, object] = {}
        protos: Dict[str, object] = {}
        for name, value in list(obj.__dict__.items()):
            if isinstance(value, types.GeneratorType):
                # a half-advanced coroutine cannot be re-entered after a
                # memory rewind; a finished one is equivalent to never
                # having started (step() lazily recreates it)
                if getattr(obj, "done", False):
                    attrs[name] = None
                    continue
                raise SnapshotError(
                    f"golden capture found a live coroutine in "
                    f"{type(obj).__name__}.{name}; the ready-to-run point "
                    f"must be quiescent"
                )
            frozen = _freeze(value, queue)
            if frozen is value and not isinstance(
                value, (int, float, bool, str, bytes, frozenset, enum.Enum)
            ) and value is not None and not _walkable(value):
                # opaque at attribute level: do not touch it on restore
                attrs[name] = _OPAQUE
            else:
                attrs[name] = frozen
                if frozen is not value:
                    protos[name] = _thaw(frozen)
        saved.append((obj, attrs, protos))
    return saved


def _restore_host_state(saved: List[Tuple[object, dict, dict]]) -> None:
    """Write captured attributes back; drop attributes added since."""
    for obj, attrs, protos in saved:
        live = obj.__dict__
        for name in [n for n in live if n not in attrs]:
            delattr(obj, name)
        for name, frozen in attrs.items():
            if frozen is _OPAQUE:
                continue
            current = live.get(name, _MISSING)
            if current is frozen:
                continue  # unchanged scalar or by-reference object
            proto = protos.get(name, _MISSING)
            if proto is not _MISSING and type(current) is type(proto) \
                    and current == proto:
                continue  # container holds exactly the golden content
            setattr(obj, name, _thaw(frozen))
