"""Shared exception hierarchy for the EMBSAN reproduction.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch a single base type at API boundaries.  Sanitizer *findings* are not
exceptions: a sanitizer reports violations through
:class:`repro.sanitizers.runtime.reports.SanitizerReport` objects and only
optionally escalates to :class:`SanitizerViolation` when configured to panic.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GuestFault(ReproError):
    """The guest performed an architecturally invalid operation.

    This models a hardware fault (bus error, invalid opcode, ...) rather
    than a sanitizer finding.  ``addr`` is the faulting guest address when
    one is known.
    """

    def __init__(self, message: str, addr: int | None = None):
        super().__init__(message)
        self.addr = addr


class BusError(GuestFault):
    """Access to an unmapped or permission-violating guest address."""


class DmaFault(GuestFault):
    """A DMA engine was programmed with a hostile or impossible transfer.

    Raised by :mod:`repro.periph.ring` validation (and the legacy
    ``DmaEngine._kick``) for transfers that target device/MMIO space,
    cross a region boundary, fall in unmapped space, or overlap
    source and destination.  Modelled as a bus abort the device raises
    instead of corrupting memory: the guest store that rang the
    doorbell faults, the host never sees a raw ``IndexError``.
    ``device`` names the offending engine.
    """

    def __init__(self, message: str, addr: int | None = None,
                 device: str = "dma"):
        super().__init__(f"{device}: {message}", addr=addr)
        self.device = device


class GuestHang(GuestFault):
    """The guest exceeded its watchdog budget and is presumed wedged.

    Raised by :class:`repro.emulator.watchdog.Watchdog` when a run loop
    burns through its instruction or cycle budget without yielding.  The
    fault carries the program counter at the trip point, the budgets
    consumed, and a short backtrace of recently executed block PCs so a
    campaign can quarantine the offending input with useful context.
    ``addr`` aliases ``pc`` so hang findings flow through the same
    crash-oracle plumbing as other guest faults.
    """

    def __init__(
        self,
        message: str,
        pc: int = 0,
        insns: int = 0,
        cycles: float = 0,
        backtrace: tuple = (),
        kind: str = "insn",
    ):
        super().__init__(message, addr=pc)
        self.pc = pc
        self.insns = insns
        self.cycles = cycles
        self.backtrace = tuple(backtrace)
        self.kind = kind


class InvalidOpcode(GuestFault):
    """The CPU fetched an instruction it cannot decode."""


class AssemblerError(ReproError):
    """The EVM32 assembler rejected a source file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FirmwareBuildError(ReproError):
    """The firmware builder could not produce an image."""


class DslError(ReproError):
    """A SanSpec DSL document failed to lex, parse or compile."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DistillerError(ReproError):
    """The Distiller could not parse the reference sanitizer sources."""


class ProbeError(ReproError):
    """The Prober could not determine a required platform fact."""


class SanitizerViolation(ReproError):
    """Raised when a sanitizer is configured to panic on its first report."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class SnapshotError(ReproError):
    """A machine snapshot could not be captured or restored faithfully.

    Raised when a restore would silently diverge from the captured
    state — a region mapped after the golden capture or remapped
    since, or a golden fork-server snapshot taken while host-side
    state (a half-advanced kernel task body, a container type the
    restore plan cannot rebuild) cannot be reproduced.  ``region`` names the
    offending memory region when one is involved.
    """

    def __init__(self, message: str, region: str | None = None):
        if region is not None:
            message = f"region {region!r}: {message}"
        super().__init__(message)
        self.region = region


class FuzzerError(ReproError):
    """A fuzzing campaign was misconfigured or its target misbehaved."""


class CorpusError(FuzzerError):
    """A persistent corpus store is unreadable or unusable.

    Raised for truncated or invalid-JSON manifests, unsupported format
    versions, firmware-identity mismatches, digest-integrity failures
    and structurally broken entry payloads — the corpus counterpart of
    :class:`CheckpointError`, and recoverable the same way: discard the
    broken store (or entry) and rebuild from a campaign.  ``path``
    names the offending file or directory when known.
    """

    def __init__(self, message: str, path: str | None = None):
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path


class TransportError(FuzzerError):
    """A fleet worker transport frame or connection is unusable.

    Raised for malformed wire frames (bad magic, oversized or
    non-hex length prefix, truncated payload), per-frame CRC
    mismatches, protocol-version rejection, and failed
    hello/auth handshakes.  ``kind`` classifies the failure so
    callers can choose a recovery:

    * ``"crc"`` — the frame arrived length-intact but its payload
      checksum disagrees; framing is still synchronized, so the
      receiver may skip the frame and keep the connection.
    * ``"framing"`` — the byte stream itself is broken (bad header,
      short read); the connection must be dropped and re-established.
    * ``"version"`` / ``"auth"`` — the handshake was rejected;
      permanent for this (client, server) pair, so clients must NOT
      reconnect-retry.
    * ``"closed"`` — the peer went away mid-conversation.

    Like :class:`CheckpointError` and :class:`CorpusError`, this is a
    :class:`FuzzerError`: transport failures are routine, diagnosable
    events the fleet recovers from (reconnect, reassign, fall back to
    local spawn workers), never raw tracebacks.
    """

    def __init__(self, message: str, kind: str = "framing"):
        super().__init__(f"[{kind}] {message}")
        self.kind = kind


class CheckpointError(FuzzerError):
    """A campaign checkpoint file is unreadable or unusable.

    Raised for truncated or invalid-JSON files, unsupported format
    versions, and structurally broken payloads.  Distinct from the
    plain :class:`FuzzerError` identity mismatches (wrong firmware or
    seed), which indicate operator error rather than corruption: a
    corrupt checkpoint is recoverable by discarding it and starting the
    job from scratch, which is exactly what the campaign runner and the
    fleet supervisor do.  ``path`` names the offending file when known.
    """

    def __init__(self, message: str, path: str | None = None):
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
