"""Event dispatch: the keyed probe plan, plus broadcast for rare events.

Sanitizer runtimes, fuzzer coverage collectors and the Prober's dry-run
recorder all observe the machine through this module.  There are two
dispatch shapes:

* **The probe plan** carries the hot kinds: CALL, RET and VMCALL.  A
  :class:`Machine` owns three :class:`ProbeTable` objects, ``calls`` and
  ``rets`` keyed by call target and ``vmcalls`` keyed by hypercall
  number.  A subscriber registers for exactly the keys it acts on, so
  a guest call, return or hypercall costs one ``keyed.get(key,
  default)`` and a loop over the handlers that asked for it, called
  with flat ints.  No event object is built, and a call to a function
  nobody probes runs no handler at all.  Registration decides who is
  called; a handler never filters the key again.
* **Broadcast** (:meth:`HookRegistry.emit`) carries READY, CONSOLE,
  TASK_SWITCH, INTERRUPT and MEM_ACCESS.  They are rare, or, like
  MEM_ACCESS, every subscriber wants every one of them.  The machine
  builds their event objects only while the kind has a subscriber.

:meth:`HookRegistry.add` still accepts CALL, RET and VMCALL.  It
registers a catch-all adapter in the plan that builds the same
``CallEvent``/``RetEvent``/``VmcallEvent`` as a broadcast would, symbol
name included, so the Prober's recorder and other event subscribers
see the full stream.  Only a catch-all subscriber makes the machine
build event objects.

Dispatch is synchronous and, within each kind, in registration order
(catch-all and keyed handlers interleave as they were added), so a
recorder attached before a sanitizer sees the event stream the
sanitizer acted on.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.emulator.events import EventKind

Handler = Callable[[object], None]


class ProbeTable:
    """One kind's probe plan: handler tuples keyed by an int.

    ``keyed[key]`` holds every handler registered for ``key`` plus every
    catch-all handler; ``default`` holds the catch-all handlers alone and
    serves every key nobody registered for.  ``clean[key]`` is a
    handler's clean test for ``key`` (see :meth:`add`), present only
    while that handler is the sole handler ``key`` dispatches to.  All
    three are rebuilt on each :meth:`add` and :meth:`remove` from the
    registration list, so each tuple keeps registration order and
    removing a handler restores the tables exactly as they were before
    it was added.
    """

    __slots__ = ("keyed", "default", "clean", "_entries")

    def __init__(self):
        self.keyed: Dict[int, tuple] = {}
        self.default: tuple = ()
        self.clean: Dict[int, Callable] = {}
        self._entries: List[Tuple[Callable, Optional[frozenset], dict]] = []

    def add(self, handler: Callable,
            keys: Optional[Iterable[int]] = None,
            clean: Optional[Dict[int, Callable]] = None) -> None:
        """Register ``handler`` for ``keys``, or for every key when None;
        ``clean`` maps keys to its clean tests (a caller offers the event
        to ``clean[key]`` first and dispatches only if it declines)."""
        scope = None if keys is None else frozenset(int(key) for key in keys)
        tests = {int(key): test for key, test in (clean or {}).items()}
        self._entries.append((handler, scope, tests))
        self._rebuild()

    def remove(self, handler: Callable) -> None:
        """Unregister every registration of ``handler``; missing is ignored."""
        self._entries = [
            entry for entry in self._entries if entry[0] != handler
        ]
        self._rebuild()

    def _rebuild(self) -> None:
        entries = self._entries
        keys = set()
        for _handler, scope, _clean in entries:
            if scope is not None:
                keys |= scope
        self.keyed = {
            key: tuple(
                handler for handler, scope, _clean in entries
                if scope is None or key in scope
            )
            for key in sorted(keys)
        }
        self.default = tuple(
            handler for handler, scope, _clean in entries if scope is None
        )
        self.clean = {
            key: test
            for handler, _scope, clean in entries
            for key, test in clean.items()
            if self.keyed.get(key, self.default) == (handler,)
        }


class HookRegistry:
    """Register event handlers; broadcast the rare kinds.

    ``plan(kind, handler)``, when given, returns ``(table, plan_handler)``
    for a planned kind (CALL, RET, VMCALL): the :class:`ProbeTable` that
    kind dispatches through and the catch-all adapter that turns flat
    ints into an event for ``handler``.  It returns None for a broadcast
    kind.  ``on_change``, when given, is called with no arguments after
    every :meth:`add`, :meth:`remove` and :meth:`clear`, so an owner can
    keep upstream wiring in step with who is subscribed.
    """

    def __init__(
        self,
        on_change: Optional[Callable[[], None]] = None,
        plan: Optional[Callable[[EventKind, Handler], Optional[tuple]]] = None,
    ):
        self._handlers: Dict[EventKind, tuple] = defaultdict(tuple)
        self._plan = plan
        #: (kind, subscriber, table, plan handler) per planned subscription
        self._planned: List[Tuple[EventKind, Handler, ProbeTable, Callable]] = []
        self._on_change = on_change

    def _changed(self) -> None:
        if self._on_change is not None:
            self._on_change()

    def add(self, kind: EventKind, handler: Handler) -> Handler:
        """Subscribe ``handler`` to ``kind``; returns it for chaining."""
        planned = None if self._plan is None else self._plan(kind, handler)
        if planned is None:
            self._handlers[kind] = self._handlers[kind] + (handler,)
        else:
            table, adapter = planned
            table.add(adapter)
            self._planned.append((kind, handler, table, adapter))
        self._changed()
        return handler

    def remove(self, kind: EventKind, handler: Handler) -> None:
        """Unsubscribe a handler; missing handlers are ignored."""
        handlers = self._handlers.get(kind)
        if handlers:
            self._handlers[kind] = tuple(
                h for h in handlers if h is not handler
            )
        self._drop(lambda k, h: k is kind and h is handler)
        self._changed()

    def clear(self, kind: EventKind = None) -> None:
        """Drop all handlers for ``kind``, or every handler when None."""
        if kind is None:
            self._handlers.clear()
        else:
            self._handlers[kind] = ()
        self._drop(lambda k, _h: kind is None or k is kind)
        self._changed()

    def _drop(self, match: Callable[[EventKind, Handler], bool]) -> None:
        keep = []
        for entry in self._planned:
            kind, handler, table, adapter = entry
            if match(kind, handler):
                table.remove(adapter)
            else:
                keep.append(entry)
        self._planned = keep

    def has_handlers(self, kind: EventKind) -> bool:
        """True when at least one handler is subscribed to ``kind``."""
        if self._handlers.get(kind):
            return True
        if not self._planned:
            return False
        return any(entry[0] is kind for entry in self._planned)

    def emit(self, kind: EventKind, payload: object = None) -> None:
        """Dispatch ``payload`` to every handler subscribed to ``kind``.

        Only broadcast kinds arrive here; CALL, RET and VMCALL go
        through the machine's probe plan.
        """
        handlers = self._handlers.get(kind)
        if not handlers:
            return
        for handler in handlers:
            handler(payload)
