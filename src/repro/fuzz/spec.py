"""The campaign spec: one frozen, validated description of a fuzz campaign.

A campaign is a firmware, a sanitizer set and the fuzzer settings that
drive it.  :class:`CampaignSpec` is the one place that description
lives.  ``run_campaign`` builds one from its keyword arguments, a fleet
job carries one to its worker, and the CLI builds one from its flags.
It is validated once, at construction, so every layer after that can
trust it.

The JSON codec (:meth:`CampaignSpec.to_json` /
:meth:`CampaignSpec.from_json`) is the single producer-consumer
contract.  Its keys are the field names, plus ``version``, which must
be :data:`SPEC_VERSION`.  A dict with no ``version``, another version,
or an unknown key is rejected.

The firmware name is checked only syntactically (a non-empty string).
An unknown firmware fails when the campaign builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.errors import FuzzerError

#: version written by :meth:`CampaignSpec.to_json`
SPEC_VERSION = 3
#: default per-firmware execution budget for a scaled-down campaign
DEFAULT_BUDGET = 1500
#: firmware of a catalog-sweep template; the job factories replace it
#: with each catalog entry
CATALOG = "*"

#: the value domains below are shared with the CLI's ``choices``
SANITIZERS = ("kasan", "kcsan", "kmsan")
#: target reset strategies: per-program journal + rebuild-per-refresh,
#: or a golden fork-server snapshot with dirty-page delta restores
EXEC_MODES = ("journal", "forkserver")
#: fuzz surfaces: the syscall/task API, or the driver-op surface of a
#: ``driver=True`` build (modeled peripherals)
SURFACES = ("syscall", "driver")

#: fields a checkpoint may be resumed under with a different value:
#: sharded rounds extend the budget, and the census is invariant under
#: the exec mode
RESUMABLE_FIELDS = ("budget", "exec_mode")
#: fields the fuzzer frontends take as keyword arguments of the same name
_FUZZER_FIELDS = (
    "seed",
    "crash_budget",
    "watchdog_insns",
    "watchdog_cycles",
    "exec_mode",
    "surface",
)


def _reject(name: str, value, expected: str):
    raise FuzzerError(f"spec.{name} must be {expected}, got {value!r}")


def _check_int(name: str, value, low=None, optional=False) -> None:
    if value is None and optional:
        return
    if not isinstance(value, int) or isinstance(value, bool):
        _reject(name, value, "an integer")
    if low is not None and value < low:
        _reject(name, value, f"an integer >= {low}")


def _check_choice(name: str, value, choices) -> None:
    if value not in choices:
        _reject(name, value, f"one of {', '.join(choices)}")


def _as_tuple(name: str, value, check) -> Optional[tuple]:
    """Freeze a list/tuple field to a non-empty tuple, checking items."""
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not value:
        _reject(name, value, "a non-empty list")
    for item in value:
        check(item)
    return tuple(value)


@dataclass(frozen=True)
class CampaignSpec:
    """One sanitized fuzz campaign, validated at construction.

    ``seeds`` makes it a repeated campaign that merges findings across
    those seeds; otherwise ``seed`` runs one campaign.  ``sanitizers``
    defaults to the tools the firmware's catalog rows need.  ``faults``
    is the fault-plan DSL, compiled with ``fault_seed`` (default:
    ``seed``).  ``None`` for ``crash_budget``, ``watchdog_insns`` and
    ``watchdog_cycles`` means the engine default.
    ``checkpoint_every=0`` means the default cadence.
    """

    firmware: str
    budget: int = DEFAULT_BUDGET
    seed: int = 0
    seeds: Optional[Tuple[int, ...]] = None
    sanitizers: Optional[Tuple[str, ...]] = None
    faults: Optional[str] = None
    fault_seed: Optional[int] = None
    crash_budget: Optional[int] = None
    watchdog_insns: Optional[int] = None
    watchdog_cycles: Optional[float] = None
    checkpoint_every: int = 0
    exec_mode: str = "journal"
    surface: str = "syscall"

    def __post_init__(self) -> None:
        if not isinstance(self.firmware, str) or not self.firmware:
            _reject("firmware", self.firmware, "a non-empty string")
        _check_int("budget", self.budget, low=1)
        _check_int("seed", self.seed)
        _check_int("fault_seed", self.fault_seed, optional=True)
        _check_int("crash_budget", self.crash_budget, low=0, optional=True)
        _check_int("watchdog_insns", self.watchdog_insns, low=0, optional=True)
        _check_int("checkpoint_every", self.checkpoint_every, low=0)
        cycles = self.watchdog_cycles
        if cycles is not None and (
            not isinstance(cycles, (int, float))
            or isinstance(cycles, bool)
            or cycles < 0
        ):
            _reject("watchdog_cycles", cycles, "a number >= 0")
        _check_choice("exec_mode", self.exec_mode, EXEC_MODES)
        _check_choice("surface", self.surface, SURFACES)
        seeds = _as_tuple("seeds", self.seeds, lambda s: _check_int("seeds", s))
        sanitizers = _as_tuple(
            "sanitizers",
            self.sanitizers,
            lambda name: _check_choice("sanitizers", name, SANITIZERS),
        )
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "sanitizers", sanitizers)
        if self.faults is not None:
            from repro.emulator.faults import FaultPlan, FaultPlanError

            if not isinstance(self.faults, str) or not self.faults:
                _reject("faults", self.faults, "a non-empty fault-plan string")
            try:
                FaultPlan.parse(self.faults)
            except FaultPlanError as exc:
                raise FuzzerError(f"spec.faults: {exc}") from None

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The versioned JSON form; tuples become lists."""
        data = {"version": SPEC_VERSION}
        for field in fields(self):
            value = getattr(self, field.name)
            data[field.name] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_json(cls, data) -> "CampaignSpec":
        """Decode and validate a :meth:`to_json` dict."""
        if not isinstance(data, dict):
            raise FuzzerError(f"spec must be an object, got {type(data).__name__}")
        data = dict(data)
        version = data.pop("version", None)
        if type(version) is not int or version != SPEC_VERSION:
            raise FuzzerError(
                f"spec version {version!r} not supported "
                f"(this build speaks version {SPEC_VERSION})"
            )
        unknown = sorted(set(data) - {field.name for field in fields(cls)})
        if unknown:
            raise FuzzerError(f"unknown spec fields: {', '.join(unknown)}")
        if "firmware" not in data:
            raise FuzzerError("spec.firmware is required")
        return cls(**data)

    # ------------------------------------------------------------------
    def identity(self) -> dict:
        """The fields a checkpoint must agree on to be resumed.

        Everything that changes the campaign's trajectory; the
        :data:`RESUMABLE_FIELDS` are left out.
        """
        data = self.to_json()
        for name in ("version",) + RESUMABLE_FIELDS:
            del data[name]
        return data

    def fuzzer_options(self) -> dict:
        """Keyword arguments for a fuzzer frontend; unset knobs are left
        to the frontend's defaults."""
        options = {name: getattr(self, name) for name in _FUZZER_FIELDS}
        return {name: value for name, value in options.items() if value is not None}
