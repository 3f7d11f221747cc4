"""Fuzz programs: sequences of calls with resource wiring.

A program is a list of :class:`Call` steps.  Arguments are either
literal integers or resource references (``("res", kind, index)``)
resolved at execution time against values earlier steps produced —
the essential piece of syzkaller's model that makes multi-step bugs
(open → ioctl → close) reachable.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

Arg = Union[int, Tuple[str, str, int]]


class Call:
    """One step: a call number, four args, and an optional resource yield."""

    __slots__ = ("nr", "args", "produces")

    def __init__(self, nr: int, args: Sequence[Arg], produces: Optional[str] = None):
        self.nr = nr
        self.args = list(args) + [0] * (4 - len(args))
        self.produces = produces

    def clone(self) -> "Call":
        return Call(self.nr, list(self.args), self.produces)

    def to_json(self) -> dict:
        """JSON-encodable form (checkpoints, diagnostics records)."""
        return {
            "nr": self.nr,
            "args": [list(a) if isinstance(a, tuple) else a for a in self.args],
            "produces": self.produces,
        }

    @staticmethod
    def from_json(data: dict) -> "Call":
        """Rebuild a call from :meth:`to_json` output."""
        args = [
            (a[0], a[1], a[2]) if isinstance(a, list) else a
            for a in data["args"]
        ]
        return Call(data["nr"], args, data.get("produces"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Call({self.nr}, {self.args}, produces={self.produces!r})"


class Program:
    """An executable fuzz input."""

    def __init__(self, calls: Optional[List[Call]] = None):
        self.calls: List[Call] = calls or []

    def clone(self) -> "Program":
        return Program([call.clone() for call in self.calls])

    def __len__(self) -> int:
        return len(self.calls)

    # ------------------------------------------------------------------
    def resolve(self) -> List[Tuple[int, List[Arg], Optional[str]]]:
        """Iterate steps for execution (args still unresolved)."""
        return [(call.nr, call.args, call.produces) for call in self.calls]

    def serialize(self, names: Optional[Dict[int, str]] = None) -> str:
        """Human-readable listing (reproducer format)."""
        names = names or {}
        lines = []
        for idx, call in enumerate(self.calls):
            rendered = ", ".join(
                f"${ref[1]}{ref[2]}" if isinstance(ref, tuple) else str(ref)
                for ref in call.args
            )
            head = names.get(call.nr, f"call_{call.nr}")
            yields = f" -> ${call.produces}" if call.produces else ""
            lines.append(f"{idx:2d}: {head}({rendered}){yields}")
        return "\n".join(lines)

    def to_json(self) -> list:
        """JSON-encodable form (checkpoints, diagnostics records)."""
        return [call.to_json() for call in self.calls]

    @staticmethod
    def from_json(data: list) -> "Program":
        """Rebuild a program from :meth:`to_json` output."""
        return Program([Call.from_json(entry) for entry in data])

    @staticmethod
    def from_steps(steps: Sequence[Sequence[int]]) -> "Program":
        """Build a literal program from ``(nr, a0, a1, a2, a3)`` tuples."""
        return Program([Call(step[0], list(step[1:])) for step in steps])


class ResourcePool:
    """Values produced during one program execution, keyed by kind."""

    def __init__(self):
        self._values: Dict[str, List[int]] = {}

    def put(self, kind: str, value: int) -> None:
        if value >= 0:
            self._values.setdefault(kind, []).append(value)

    def get(self, kind: str, index: int) -> int:
        values = self._values.get(kind)
        if not values:
            return 0
        return values[index % len(values)]

    def kinds(self) -> List[str]:
        return sorted(self._values)


def resolve_args(args: Sequence[Arg], pool: ResourcePool) -> List[int]:
    """Materialize resource references against the execution pool."""
    out = []
    for arg in args:
        if isinstance(arg, tuple):
            out.append(pool.get(arg[1], arg[2]))
        else:
            out.append(int(arg) & 0xFFFFFFFF)
    return out


# ----------------------------------------------------------------------
# mutation
# ----------------------------------------------------------------------
class Mutator:
    """Program mutation: syzkaller's insert/remove/mutate-arg trio."""

    def __init__(self, rng: random.Random, interesting: Sequence[int]):
        self.rng = rng
        self.interesting = list(interesting)

    def mutate(self, program: Program, generate_call) -> Program:
        """Return a mutated clone; ``generate_call`` supplies new steps."""
        out = program.clone()
        choice = self.rng.random()
        if not out.calls or choice < 0.45:
            index = self.rng.randint(0, len(out.calls))
            out.calls.insert(index, generate_call())
        elif choice < 0.60 and len(out.calls) > 1:
            del out.calls[self.rng.randrange(len(out.calls))]
        else:
            call = self.rng.choice(out.calls)
            slot = self.rng.randrange(4)
            if isinstance(call.args[slot], tuple):
                kind = call.args[slot][1]
                call.args[slot] = ("res", kind, self.rng.randrange(4))
            else:
                call.args[slot] = self._mutate_int(call.args[slot])
        if len(out.calls) > 16:
            del out.calls[16:]
        return out

    def _mutate_int(self, value: int) -> int:
        roll = self.rng.random()
        if roll < 0.5:
            return self.rng.choice(self.interesting)
        if roll < 0.75:
            return value ^ (1 << self.rng.randrange(16))
        return self.rng.randrange(0, 256)
