"""Hook registry: fan-out dispatch of emulator events.

Sanitizer runtimes, fuzzer coverage collectors and the Prober's dry-run
recorder all subscribe here.  Dispatch is synchronous and ordered by
registration so a recorder attached before a sanitizer sees the event
stream the sanitizer acted on.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Optional

from repro.emulator.events import EventKind

Handler = Callable[[object], None]


class HookRegistry:
    """Register and dispatch handlers per :class:`EventKind`.

    ``on_change``, when given, is called with no arguments after every
    :meth:`add`, :meth:`remove` and :meth:`clear`, so an owner can keep
    upstream wiring in step with who is subscribed.
    """

    def __init__(self, on_change: Optional[Callable[[], None]] = None):
        self._handlers: Dict[EventKind, tuple] = defaultdict(tuple)
        self.dispatch_count = 0
        self._on_change = on_change

    def _changed(self) -> None:
        if self._on_change is not None:
            self._on_change()

    def add(self, kind: EventKind, handler: Handler) -> Handler:
        """Subscribe ``handler`` to ``kind``; returns it for chaining."""
        self._handlers[kind] = self._handlers[kind] + (handler,)
        self._changed()
        return handler

    def remove(self, kind: EventKind, handler: Handler) -> None:
        """Unsubscribe a handler; missing handlers are ignored."""
        self._handlers[kind] = tuple(
            h for h in self._handlers[kind] if h is not handler
        )
        self._changed()

    def clear(self, kind: EventKind = None) -> None:
        """Drop all handlers for ``kind``, or every handler when None."""
        if kind is None:
            self._handlers.clear()
        else:
            self._handlers[kind] = ()
        self._changed()

    def has_handlers(self, kind: EventKind) -> bool:
        """True when at least one handler is subscribed to ``kind``."""
        return bool(self._handlers.get(kind))

    def emit(self, kind: EventKind, payload: object = None) -> None:
        """Dispatch ``payload`` to every handler subscribed to ``kind``."""
        handlers = self._handlers.get(kind)
        if not handlers:
            return
        self.dispatch_count += 1
        for handler in handlers:
            handler(payload)

    def handler_counts(self) -> Dict[str, int]:
        """Diagnostic summary: event name -> live handler count."""
        return {
            kind.value: len(handlers)
            for kind, handlers in self._handlers.items()
            if handlers
        }
