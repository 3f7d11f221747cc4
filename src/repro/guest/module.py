"""Guest modules and the ``@guestfn`` decorator.

A rehosted kernel is a set of :class:`GuestModule` subclasses.  Methods
decorated with :func:`guestfn` become *guest functions*: at install time
each one receives a text address, its calls flow through
:meth:`repro.guest.context.GuestContext.call` (emitting CALL/RET events
with integer ABI arguments), and its name lands in the machine symbol
table — unless the module is ``stripped``, which models closed-source
firmware whose symbols the Prober cannot rely on.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import FirmwareBuildError
from repro.guest.context import GuestContext
from repro.guest.layout import DEFAULT_REDZONE, GlobalVar


def guestfn(
    name: Optional[str] = None,
    allocator: Optional[str] = None,
    size_arg: int = 0,
    size_kind: str = "bytes",
    addr_arg: int = 0,
):
    """Mark a module method as a guest function.

    Parameters
    ----------
    name:
        Symbol name; defaults to the Python method name.
    allocator:
        ``"alloc"`` or ``"free"`` for allocator entry points.  Their
        bodies run with sanitizer checks suppressed (allocator metadata
        is uninstrumented in real kernels too) and their boundaries are
        what EMBSAN-D's Prober must rediscover behaviourally.
    size_arg / size_kind:
        For ``"alloc"`` entry points: which ABI argument carries the
        request and whether it is in bytes or a page order.
    addr_arg:
        For ``"free"`` entry points: which ABI argument is the pointer.
    """

    def mark(func):
        func._guestfn = True
        func._guestfn_name = name or func.__name__
        func._guestfn_allocator = allocator
        func._guestfn_size_arg = size_arg
        func._guestfn_size_kind = size_kind
        func._guestfn_addr_arg = addr_arg
        return func

    return mark


class GuestFunction:
    """A rehosted kernel function bound to a guest text address."""

    __slots__ = (
        "addr", "name", "visible_name", "pyfunc", "allocator", "module",
        "size_arg", "size_kind", "addr_arg",
    )

    def __init__(self, addr, name, pyfunc, allocator, module,
                 size_arg=0, size_kind="bytes", addr_arg=0):
        self.addr = addr
        self.name = name
        #: what the emulator can see: None for stripped (closed-source)
        #: binaries, whose CALL events carry no symbol information
        self.visible_name = None if module.stripped else name
        self.pyfunc = pyfunc
        self.allocator = allocator
        self.module = module
        self.size_arg = size_arg
        self.size_kind = size_kind
        self.addr_arg = addr_arg

    def __call__(self, ctx: GuestContext, *args):
        for arg in args:
            if not isinstance(arg, int):
                raise TypeError(
                    f"guest function {self.name!r} takes integer (guest ABI) "
                    f"arguments, got {type(arg).__name__}"
                )
        if self.allocator:
            ctx.in_allocator += 1
            try:
                return ctx.call(self, args)
            finally:
                ctx.in_allocator -= 1
        return ctx.call(self, args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GuestFunction({self.name!r} @ {self.addr:#010x})"


@functools.cache
def _guestfn_table(cls: type) -> Tuple[Tuple[str, Callable], ...]:
    """``(attr, raw function)`` per ``@guestfn`` method of ``cls``.

    In ``inspect.getmembers`` order, which fixes each function's text
    address.  Cached per class: every rebuild of a firmware installs
    the same module classes.
    """
    table = []
    for attr, member in inspect.getmembers(cls, callable):
        raw = getattr(member, "__func__", member)
        if getattr(raw, "_guestfn", False):
            table.append((attr, raw))
    return tuple(table)


class GuestModule:
    """Base class for rehosted kernel modules.

    Subclasses define guest functions with :func:`guestfn` and declare
    globals inside :meth:`on_install` via :meth:`declare_global`.
    """

    #: location string used by bug reports ("fs/btrfs", "net/sched", ...)
    location = ""
    #: closed-source modules get no symbols in the machine table
    stripped = False

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__
        self.functions: Dict[str, GuestFunction] = {}
        self.globals: Dict[str, GlobalVar] = {}
        self.ctx: Optional[GuestContext] = None

    # ------------------------------------------------------------------
    def install(self, ctx: GuestContext) -> "GuestModule":
        """Place the module into guest memory and register its symbols."""
        if self.ctx is not None:
            raise FirmwareBuildError(f"module {self.name!r} installed twice")
        self.ctx = ctx
        symbols = {}
        for attr, raw in _guestfn_table(type(self)):
            method = getattr(self, attr)
            fn_name = f"{self.name}.{raw._guestfn_name}"
            addr = ctx.layout.alloc_text(fn_name)
            fn = GuestFunction(
                addr, raw._guestfn_name, method, raw._guestfn_allocator, self,
                size_arg=raw._guestfn_size_arg,
                size_kind=raw._guestfn_size_kind,
                addr_arg=raw._guestfn_addr_arg,
            )
            self.functions[raw._guestfn_name] = fn
            setattr(self, attr, fn)
            ctx.machine.fn_names[addr] = fn.visible_name
            if not self.stripped:
                symbols[fn_name] = addr
        ctx.machine.add_symbols(symbols)
        self.on_install(ctx)
        return self

    def on_install(self, ctx: GuestContext) -> None:
        """Subclass hook: declare globals, initialize module state."""

    # ------------------------------------------------------------------
    def declare_global(
        self,
        ctx: GuestContext,
        name: str,
        size: int,
        init: bytes = b"",
        redzone: int = DEFAULT_REDZONE,
    ) -> int:
        """Declare a firmware global object; returns its guest address.

        The object is registered with the build's sanitizer hooks so an
        instrumented (EMBSAN-C / native) build gets a poisoned redzone.
        """
        var = ctx.layout.alloc_global(name, size, self.name, redzone)
        self.globals[name] = var
        if init:
            ctx.raw_write(var.addr, init[:size])
        ctx.register_global(var.addr, var.size, var.redzone)
        return var.addr

    def alloc_fns(self) -> List[GuestFunction]:
        """The module's allocator entry points (ground truth for tests)."""
        return [fn for fn in self.functions.values() if fn.allocator]
