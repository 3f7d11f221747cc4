"""Rollback points and the fork server.

Two restore strategies over one dirty-set abstraction
(:mod:`repro.mem.dirty`):

* :class:`Checkpoint` — journal-backed rollback point.  Arms the bus
  write journal and rewinds only the bytes an input actually wrote;
  cost is O(bytes written).  The journal's pre-image log *is* its dirty
  record, byte-exact; rollback marks the pages it rewinds like any
  other bus write.  Used for per-input crash isolation in the
  journaled execution mode.
* :class:`ForkServer` — golden snapshot + dirty-page delta restore, the
  one way a machine is captured and rewound between programs.
  Captures the ready-to-run state once (engine and machine state,
  every registered state provider — the board devices, modeled
  peripherals and the sanitizer runtime — and a restore plan for the
  host-side Python object graph of the rehosted kernel) without
  copying RAM: the DirtySet keeps each page's golden bytes the first
  time the page is written after capture.  Restores between programs
  copy back only the pages the session dirtied, invalidate only
  translations built from dirty code pages, reload only state
  providers whose epoch moved, and rebuild only host containers that
  differ from their prototypes — the AFL fork-server idea applied to a
  rehosted machine.

Host-side observer state (hooks, tracers, metric registries) is
deliberately *not* captured: observers persist across restores.  The
fork server additionally leaves each engine's translation cache and
translation counters alone — surviving translations across resets is
the point of the exercise — so TB statistics intentionally diverge from
a rebuild-per-refresh run.
"""

from __future__ import annotations

import enum
import time
import types
from collections import OrderedDict, defaultdict, deque
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
    first-write by the bus-attached :class:`~repro.mem.dirty.DirtySet`.
    Every entry of ``machine.state_providers`` is captured with its
    ``save_state()`` and rewound with ``load_state(saved)``; the
    sanitizer runtime's pair keeps shadow pages copy-on-first-write the
    same way.  A provider may add ``state_epoch()`` (the reload is
    skipped while it reads as captured) and
    ``save_telemetry()``/``load_telemetry()`` (counters rewound on
    every restore).
    The restored state is byte-identical to what a fresh
    rebuild-and-boot produces (boot is deterministic), which is the
    contract the census byte-identity tests enforce.

    ``host_roots`` seeds the host-side object walk: the rehosted kernel
    and its guest context.  Every plain-data attribute reachable from
    them through ``repro.os``/``repro.guest`` objects is compiled into a
    restore plan (:func:`_compile_host_plan`); opaque values (machine
    references, callables, mmap handles) are never touched.
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
        self._bind_regions(bus.regions)
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
        self._ledger = machine.ledger.save()
        self._irqs_delivered = machine.irqs_delivered
        self._pending_irqs = [list(entry) for entry in machine._pending_irqs]
        self._engine_listeners = list(machine.engine_listeners)
        watchdog = machine.watchdog
        self._watchdog = (
            (watchdog.insns, watchdog.cycles, watchdog.trips,
             tuple(watchdog._ring))
            if watchdog is not None
            else None
        )
        #: per provider: (state_epoch, epoch, load, saved,
        #: load_telemetry, telemetry), methods bound once
        self._providers = []
        for provider in machine.state_providers:
            epoch_fn = getattr(provider, "state_epoch", None)
            telemetry_fn = getattr(provider, "save_telemetry", None)
            telemetry = telemetry_fn() if telemetry_fn is not None else None
            self._providers.append((
                epoch_fn,
                epoch_fn() if epoch_fn is not None else None,
                provider.load_state,
                provider.save_state(),
                provider.load_telemetry if telemetry is not None else None,
                telemetry,
            ))
        self._host_plan = _compile_host_plan(host_roots)
        # from here on, every bus write marks pages for the next restore
        bus.attach_dirty(self.dirty)

    def _bind_regions(self, regions: Tuple) -> None:
        # rebound by restore() only when the bus's region tuple changes
        ram = []
        device = []
        for region in regions:
            name = region.name
            if isinstance(region, MmioRegion) or region.kind == "device":
                golden = self._device_ram.get(name)
                if golden is not None and len(golden) == region.size:
                    device.append((region, golden))
            elif name in self._ram:
                ram.append((name, region, self._ram[name]))
            else:
                raise SnapshotError(
                    "mapped after the golden capture; delta restore "
                    "cannot reconstruct it",
                    region=name,
                )
        self._regions = regions
        self._ram_regions = ram
        self._device_regions = device

    # ------------------------------------------------------------------
    def restore(self) -> RestoreStats:
        """Rewind the machine to the golden state; cost is O(dirty pages)."""
        start = time.perf_counter()
        machine = self.machine
        dirty = self.dirty
        regions = machine.bus.regions
        if regions != self._regions:
            self._bind_regions(regions)
        for region, golden in self._device_regions:
            region.data[:] = golden
        pages = 0
        code_spans: List[Tuple[int, int]] = []
        for name, region, data in self._ram_regions:
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
        machine.ledger.load(self._ledger)
        machine.irqs_delivered = self._irqs_delivered
        machine._pending_irqs = [list(entry) for entry in self._pending_irqs]
        machine.engine_listeners[:] = self._engine_listeners
        if self._watchdog is not None and machine.watchdog is not None:
            watchdog = machine.watchdog
            insns, cycles, trips, ring = self._watchdog
            watchdog.insns = insns
            watchdog.cycles = cycles
            watchdog.trips = trips
            watchdog._ring.clear()
            watchdog._ring.extend(ring)
        _restore_host_plan(self._host_plan)
        # providers restore after guest memory, so a provider that peeks
        # at the bus sees the restored image; the epoch gate skips the
        # semantic reload entirely when nothing the provider tracks
        # actually changed, and telemetry (counters, report sink)
        # rewinds unconditionally — it moves on every check
        reloaded = 0
        for epoch_fn, epoch, load, saved, load_telemetry, telemetry \
                in self._providers:
            if epoch is None or epoch_fn() != epoch:
                load(saved)
                reloaded += 1
            if telemetry is not None:
                load_telemetry(telemetry)
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
# host-side Python state: a restore plan compiled at capture
# ----------------------------------------------------------------------
#: instances of classes from these packages form the walkable graph
_WALK_PREFIXES = ("repro.os", "repro.guest")

#: immutable leaves, kept by reference (``bool`` is an ``int``)
_ATOMS = (int, float, str, bytes, frozenset, enum.Enum, type(None))
#: mutable containers, copied level by level
_MUTABLE = (list, dict, set, deque, bytearray)


def _walkable(value) -> bool:
    module = getattr(type(value), "__module__", None) or ""
    if not module.startswith(_WALK_PREFIXES):
        return False
    if isinstance(value, type):
        return False
    # __slots__ objects (guest functions, frames) are opaque references
    return hasattr(value, "__dict__")


def _copy_tree(value, queue: Optional[list] = None):
    """Copy every container level of ``value``; pass the rest by reference.

    Copies keep their exact type (``defaultdict`` factory, deque
    ``maxlen``, NamedTuple class); a tuple holding nothing mutable comes
    back as itself; walkable objects are appended to ``queue``.  A
    container type it cannot rebuild faithfully raises SnapshotError.
    """
    if isinstance(value, _ATOMS):
        return value
    kind = type(value)
    if kind is list:
        return [_copy_tree(item, queue) for item in value]
    if kind is dict or kind is OrderedDict or kind is defaultdict:
        copy = value.copy()  # same type, same default_factory
        for key, item in value.items():
            copy[_copy_tree(key, queue)] = _copy_tree(item, queue)
        return copy
    if kind is set:
        return {_copy_tree(item, queue) for item in value}
    if kind is deque:
        return deque((_copy_tree(item, queue) for item in value), value.maxlen)
    if kind is bytearray:
        return bytearray(value)
    if isinstance(value, tuple):
        items = [_copy_tree(item, queue) for item in value]
        if all(new is old for new, old in zip(items, value)):
            return value  # immutable all the way down
        if kind is tuple:
            return tuple(items)
        if hasattr(kind, "_make"):
            return kind._make(items)
    elif not isinstance(value, _MUTABLE):
        if queue is not None and _walkable(value):
            queue.append(value)
        return value
    raise SnapshotError(
        f"golden capture cannot rebuild a {kind.__qualname__} faithfully"
    )


def _flat(container) -> bool:
    """True when nothing held in ``container`` needs copying."""
    items = container.values() if isinstance(container, dict) else container
    return all(_copy_tree(item) is item for item in items)


def _copier(proto):
    """The cheapest faithful rebuild of ``proto``, chosen once.

    The ``copy`` method of every container :func:`_copy_tree` returns
    keeps its type and a deque's ``maxlen``.
    """
    if isinstance(proto, tuple):
        return _copy_tree
    if _flat(proto):
        return type(proto).copy
    if type(proto) is dict and all(
        isinstance(value, _MUTABLE) and _flat(value)
        for value in proto.values()
    ):
        return lambda golden: {k: v.copy() for k, v in golden.items()}
    return _copy_tree


def _compile_host_plan(roots) -> List[tuple]:
    """Compile the restore of every host object reachable from ``roots``.

    One ``(obj, names, scalars, containers)`` entry per walked object:
    its attribute names, the scalars one ``dict.update`` puts back, and
    a ``(name, prototype, copier)`` per container.  Opaque attributes
    are in neither.  A container is rebuilt only when it differs from
    its never-handed-out prototype; no walked class defines ``__eq__``,
    so element equality for object references is identity.
    """
    plan = []
    visited = set()
    queue = [root for root in roots if root is not None]
    while queue:
        obj = queue.pop()
        if id(obj) in visited or not _walkable(obj):
            continue
        visited.add(id(obj))
        scalars = {}
        containers = []
        for name, value in list(obj.__dict__.items()):
            if isinstance(value, types.GeneratorType):
                # a half-advanced coroutine cannot be re-entered after a
                # memory rewind; a finished one is equivalent to never
                # having started (step() lazily recreates it)
                if getattr(obj, "done", False):
                    scalars[name] = None
                    continue
                raise SnapshotError(
                    f"golden capture found a live coroutine in "
                    f"{type(obj).__name__}.{name}; the ready-to-run point "
                    f"must be quiescent"
                )
            proto = _copy_tree(value, queue)
            if proto is not value:
                containers.append((name, proto, _copier(proto)))
            elif isinstance(value, (_ATOMS, tuple)) or _walkable(value):
                scalars[name] = value
        plan.append(
            (obj, frozenset(obj.__dict__), scalars, tuple(containers)))
    return plan


def _restore_host_plan(plan: List[tuple]) -> None:
    """Put every walked object back; drop attributes added since."""
    for obj, names, scalars, containers in plan:
        live = obj.__dict__
        if not live.keys() <= names:
            for name in live.keys() - names:
                delattr(obj, name)
        live.update(scalars)
        for name, proto, copy in containers:
            current = live.get(name)
            if type(current) is not type(proto) or current != proto:
                live[name] = copy(proto)
