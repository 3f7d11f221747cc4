"""Deterministic, seed-driven chaos for the fleet wire protocol.

The TCP/JSONL transport (``repro.fuzz.transport``) only earns its place
if worker disconnects, slow links, corrupt frames, and duplicated
deliveries are handled as routinely as the fleet supervisor handles a
SIGKILL.  A :class:`ChaosPlan` models those network hazards the same
way :class:`repro.emulator.faults.FaultPlan` models hostile hardware:
one ``random.Random`` seeded at construction drives every decision, so
a plan replays identically given the same frame sequence — the whole
failure matrix is testable in-process, without a real flaky network.

A plan is attached to one side of a connection and consulted once per
*outbound* frame (:class:`ChaosFrameStream` wraps the sender).  Actions:

``drop``
    The frame is silently discarded — the bytes never hit the wire.
``dup``
    The frame is sent twice back-to-back (at-least-once delivery means
    the receiver must dedup by attempt id, and this proves it).
``corrupt``
    One payload byte is flipped before sending.  The length prefix
    stays truthful, so the receiver keeps framing sync, fails the CRC
    check, and raises a skippable ``TransportError(kind="crc")``.
``truncate``
    Only a prefix of the frame's bytes is sent and the connection is
    then cut — exactly what a mid-frame TCP reset looks like.  The
    receiver hits a framing error and must drop the connection.
``reorder``
    The frame is held back and sent *after* the next frame, swapping
    their wire order.
``disconnect``
    The frame is sent, then the connection is closed — the clean-cut
    worker-death case (the client's reconnect/backoff loop takes over).
``stall``
    The sending thread blocks for ``ms=`` milliseconds, then sends the
    frame — a worker that stops being scheduled and later resumes.
    Other threads sharing the stream are not blocked.

A compact text DSL mirrors the fault-plan DSL::

    drop:p=0.1                    drop 10% of frames
    drop:kind=heartbeat,p=1       drop every heartbeat frame
    dup:nth=3                     duplicate every 3rd eligible frame
    corrupt:nth=5,limit=1         flip a byte in the 5th frame, once
    truncate:nth=7                cut the 7th frame mid-bytes
    reorder:p=0.2                 swap 20% of frames with their successor
    disconnect:nth=9              cut the connection after frame 9
    stall:kind=started,nth=1,ms=4000
                                  hold the first ``started`` event 4 s
    seed=7                        reseed the plan's RNG

Clauses are ``;``-separated; ``kind=`` filters a rule to one frame type
(or, for ``event`` frames, the event kind: ``heartbeat``, ``result``,
...).  Handshake frames (``hello``/``welcome``/``error``) are never
touched: chaos models a bad network *between* correctly speaking peers,
and a plan that ate its own handshake would only test the dialer.
"""

from __future__ import annotations

import random
import time
from typing import List, NamedTuple, Optional

from repro.errors import ReproError

#: actions a rule may take, in documentation order
ACTIONS = ("drop", "dup", "corrupt", "truncate", "reorder", "disconnect",
           "stall")

#: frame types chaos never touches (see module docstring)
PROTECTED_KINDS = frozenset({"hello", "welcome", "error"})


class ChaosPlanError(ReproError):
    """A chaos-plan DSL string failed to parse."""


class ChaosRule(NamedTuple):
    """One clause of a plan: when to apply which mutation."""

    action: str
    kind: Optional[str]  #: frame-kind filter; None matches every frame
    rate: float  #: probability per eligible frame (used when nth == 0)
    nth: int  #: apply to every nth eligible frame instead of by rate
    limit: int  #: max applications (0 = unlimited)
    ms: int = 0  #: how long a ``stall`` blocks the sender


class ChaosPlan:
    """A deterministic schedule of wire-level mutations.

    Mirrors :class:`repro.emulator.faults.FaultPlan`: all randomness
    comes from one seeded RNG, decisions are a pure function of the
    (seed, frame-sequence) pair, and ``parse``/``describe`` round-trip.
    """

    def __init__(self, rules: List[ChaosRule] = (), seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.rules: List[ChaosRule] = list(rules)
        #: per-rule eligible-frame counters (drives ``nth``)
        self._seen = [0] * len(self.rules)
        #: per-rule application counters (drives ``limit``)
        self._applied = [0] * len(self.rules)
        # observable tallies (diagnostics; never consulted for decisions)
        self.frames_seen = 0
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self.truncated = 0
        self.reordered = 0
        self.disconnects = 0
        self.stalls = 0

    # ------------------------------------------------------------------
    def decide(self, frame: dict) -> Optional[str]:
        """The action for one outbound frame; None means deliver as-is.

        First matching rule wins — order your clauses accordingly.
        """
        rule = self.rule_for(frame)
        return rule.action if rule is not None else None

    def rule_for(self, frame: dict) -> Optional[ChaosRule]:
        """The rule that fires on one outbound frame (see :meth:`decide`)."""
        kind = frame.get("kind") or frame.get("type")
        if kind in PROTECTED_KINDS:
            return None
        self.frames_seen += 1
        for index, rule in enumerate(self.rules):
            if rule.kind is not None and rule.kind != kind:
                continue
            self._seen[index] += 1
            if rule.limit and self._applied[index] >= rule.limit:
                continue
            if rule.nth:
                hit = self._seen[index] % rule.nth == 0
            else:
                hit = self.rng.random() < rule.rate
            if hit:
                self._applied[index] += 1
                self._count(rule.action)
                return rule
        return None

    def _count(self, action: str) -> None:
        field = {
            "drop": "dropped",
            "dup": "duplicated",
            "corrupt": "corrupted",
            "truncate": "truncated",
            "reorder": "reordered",
            "disconnect": "disconnects",
            "stall": "stalls",
        }[action]
        setattr(self, field, getattr(self, field) + 1)

    def stats(self) -> dict:
        """Mutation tallies for diagnostics records."""
        return {
            "frames_seen": self.frames_seen,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "truncated": self.truncated,
            "reordered": self.reordered,
            "disconnects": self.disconnects,
            "stalls": self.stalls,
        }

    # ------------------------------------------------------------------
    # DSL
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "ChaosPlan":
        """Build a plan from the ``;``-separated clause DSL (module doc)."""
        rules: List[ChaosRule] = []
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            head, _, rest = clause.partition(":")
            head = head.strip().lower()
            try:
                if head == "seed" or head.startswith("seed="):
                    seed = int(clause.partition("=")[2], 0)
                    continue
                if head not in ACTIONS:
                    raise ChaosPlanError(f"unknown chaos clause {clause!r}")
                kind = None
                rate = 0.0
                nth = 0
                limit = 0
                ms = 0
                for chunk in rest.split(","):
                    chunk = chunk.strip()
                    if not chunk:
                        continue
                    key, sep, val = chunk.partition("=")
                    if not sep:
                        raise ChaosPlanError(
                            f"expected key=value, got {chunk!r}"
                        )
                    key = key.strip().lower()
                    val = val.strip()
                    if key == "p":
                        rate = float(val)
                    elif key == "nth":
                        nth = int(val, 0)
                        if nth < 1:
                            raise ChaosPlanError(
                                f"nth must be >= 1 in {clause!r}"
                            )
                    elif key == "kind":
                        kind = val
                    elif key == "limit":
                        limit = int(val, 0)
                    elif key == "ms" and head == "stall":
                        ms = int(val, 0)
                    else:
                        raise ChaosPlanError(
                            f"unknown {head} option {key!r} in {clause!r}"
                        )
                if not rate and not nth:
                    raise ChaosPlanError(
                        f"clause {clause!r} needs p= or nth="
                    )
                if head == "stall" and ms < 1:
                    raise ChaosPlanError(f"clause {clause!r} needs ms=")
                rules.append(ChaosRule(head, kind, rate, nth, limit, ms))
            except ValueError as exc:
                raise ChaosPlanError(f"bad value in clause {clause!r}: {exc}")
        return cls(rules, seed=seed)

    def describe(self) -> str:
        """Canonical DSL form: ``parse(describe())`` round-trips."""
        parts = []
        for rule in self.rules:
            opts = []
            if rule.kind is not None:
                opts.append(f"kind={rule.kind}")
            if rule.nth:
                opts.append(f"nth={rule.nth}")
            else:
                opts.append(f"p={rule.rate:g}")
            if rule.limit:
                opts.append(f"limit={rule.limit}")
            if rule.ms:
                opts.append(f"ms={rule.ms}")
            parts.append(f"{rule.action}:{','.join(opts)}")
        parts.append(f"seed={self.seed}")
        return ";".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChaosPlan({self.describe()})"


def chaos_plan_for(spec, seed: int = 0) -> Optional[ChaosPlan]:
    """CLI helper: None/empty spec means no chaos; plans pass through."""
    if not spec:
        return None
    if isinstance(spec, ChaosPlan):
        return spec
    return ChaosPlan.parse(spec, seed=seed)


class ChaosFrameStream:
    """Wrap a :class:`repro.fuzz.transport.FrameStream`'s send side.

    Receiving is delegated untouched — a plan mutates only what *this*
    peer transmits, so attaching one plan per side composes cleanly.
    """

    def __init__(self, inner, plan: ChaosPlan):
        self.inner = inner
        self.plan = plan
        #: a reorder-held frame awaiting its successor
        self._held: Optional[dict] = None

    # transparent delegation ------------------------------------------------
    def __getattr__(self, name):
        return getattr(self.inner, name)

    # mutating sender -------------------------------------------------------
    def send(self, frame: dict) -> None:
        from repro.errors import TransportError
        from repro.fuzz.transport import encode_frame

        rule = self.plan.rule_for(frame)
        action = rule.action if rule is not None else None
        if action == "stall":
            time.sleep(rule.ms / 1000)
        if action == "drop":
            self._flush_held()
            return
        if action == "reorder":
            # hold this frame; it rides out behind the next one.  A
            # second reorder decision before the first flushed would
            # lose the held frame, so flush first.
            self._flush_held()
            self._held = frame
            return
        if action == "dup":
            self.inner.send(frame)
            self.inner.send(frame)
            self._flush_held()
            return
        if action == "corrupt":
            raw = bytearray(encode_frame(frame))
            # flip one payload byte; the header stays truthful so the
            # receiver keeps framing sync and fails only the CRC
            from repro.fuzz.transport import HEADER_LEN

            index = HEADER_LEN + self.plan.rng.randrange(
                max(1, len(raw) - HEADER_LEN - 1)
            )
            raw[index] ^= 1 << self.plan.rng.randrange(8)
            self.inner.send_bytes(bytes(raw))
            self._flush_held()
            return
        if action == "truncate":
            raw = encode_frame(frame)
            cut = max(1, len(raw) // 2)
            try:
                self.inner.send_bytes(raw[:cut])
            finally:
                self.inner.close()
            raise TransportError(
                "chaos plan truncated the frame mid-bytes and cut the "
                "connection", kind="closed",
            )
        if action == "disconnect":
            try:
                self.inner.send(frame)
            finally:
                self.inner.close()
            raise TransportError(
                "chaos plan cut the connection after the frame",
                kind="closed",
            )
        self.inner.send(frame)
        self._flush_held()

    def _flush_held(self) -> None:
        held, self._held = self._held, None
        if held is not None:
            self.inner.send(held)
