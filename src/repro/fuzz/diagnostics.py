"""Campaign diagnostics: quarantined crashes and degradation records.

When a program escapes the guest-fault boundary — a host-level exception
out of the rehosted kernel, the runtime, or the emulator itself — the
engine rolls the machine back, quarantines the offending input into a
:class:`CrashRecord`, and keeps fuzzing.  The records, together with the
campaign's watchdog/fault-plan counters, form a
:class:`CampaignDiagnostics` blob that is serialized next to results so
a wedged 7-day census can be triaged after the fact instead of lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fuzz.program import Program

#: console bytes preserved per crash record
CONSOLE_TAIL = 400


@dataclass
class CrashRecord:
    """One quarantined program and the wreckage it left behind."""

    index: int  #: exec count when the crash happened
    program: Program  #: the offending input
    exc_type: str  #: exception class name
    exception: str  #: repr of the escaping exception
    console_tail: str  #: last guest console bytes before the crash
    counters: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        """JSON-encodable form for checkpoints and CI artifacts."""
        return {
            "index": self.index,
            "program": self.program.to_json(),
            "exc_type": self.exc_type,
            "exception": self.exception,
            "console_tail": self.console_tail,
            "counters": dict(self.counters),
        }

    @staticmethod
    def from_json(data: dict) -> "CrashRecord":
        """Rebuild a record from :meth:`to_json` output."""
        return CrashRecord(
            index=data["index"],
            program=Program.from_json(data["program"]),
            exc_type=data["exc_type"],
            exception=data["exception"],
            console_tail=data["console_tail"],
            counters=dict(data.get("counters", {})),
        )


def capture_crash(engine, program: Program, exc: BaseException) -> CrashRecord:
    """Build a :class:`CrashRecord` from a live (possibly broken) target.

    Every probe is defensive: the target just failed in an arbitrary way,
    so any attribute may be missing or raising.
    """
    counters: Dict[str, float] = {"execs": engine.execs}
    console = ""
    try:
        machine = engine.target.image.ctx.machine
    except Exception:
        machine = None
    if machine is not None:
        try:
            console = machine.console_text()[-CONSOLE_TAIL:]
        except Exception:
            console = "<console unavailable>"
        try:
            counters["guest_cycles"] = machine.guest_cycles
            counters["overhead_cycles"] = machine.overhead_cycles
            counters["insns"] = sum(
                getattr(e, "insn_count", 0) for e in machine.engines
            )
        except Exception:
            pass
        watchdog = getattr(machine, "watchdog", None)
        if watchdog is not None:
            counters["watchdog_trips"] = watchdog.trips
        plan = getattr(machine, "fault_plan", None)
        if plan is not None:
            for key, value in plan.stats().items():
                counters[f"fault_{key}"] = value
    try:
        runtime_stats = engine.target.runtime.stats()
        counters["runtime_events"] = runtime_stats.get("events_handled", 0)
        counters["runtime_reports"] = runtime_stats.get("reports", 0)
    except Exception:
        pass
    return CrashRecord(
        index=engine.execs,
        program=program.clone(),
        exc_type=type(exc).__name__,
        exception=repr(exc),
        console_tail=console,
        counters=counters,
    )


@dataclass
class CampaignDiagnostics:
    """Robustness telemetry for one campaign.

    A repeated campaign (:func:`repro.fuzz.campaign.run_campaign_repeated`)
    merges each seed's diagnostics into one record via :meth:`merge`:
    counters sum, quarantine lists concatenate, ``seeds`` lists every
    contributing seed, so no seed's crash records are silently dropped.
    """

    firmware: str
    seed: int
    budget: int
    quarantined: List[CrashRecord] = field(default_factory=list)
    host_crashes: int = 0
    degraded: bool = False
    watchdog_trips: int = 0
    fault_stats: Dict[str, int] = field(default_factory=dict)
    #: set when a corrupt checkpoint was discarded at resume time
    #: (holds the one-line diagnosis; the job restarted from scratch)
    checkpoint_discarded: Optional[str] = None
    #: every seed merged into this record (None for a single-seed run)
    seeds: Optional[List[int]] = None
    #: wall-clock seconds per campaign phase (build/fuzz/reproduce/
    #: checkpoint).  None unless an observer was attached: timings are
    #: nondeterministic, and the sequential-vs-fleet byte-identity
    #: contract covers unobserved runs
    phase_timings: Optional[Dict[str, float]] = None
    #: persistent-corpus session stats (size/inserts/dedup_hits/
    #: imported); None when the campaign ran without a corpus store
    corpus: Optional[Dict[str, int]] = None
    #: corpus entries inherited at the start of each repetition, in
    #: seed order — how much of the previous seeds' corpus each run
    #: started from (only set by ``carry_corpus`` repeated campaigns)
    inherited_corpus: Optional[List[int]] = None

    def merge(self, other: "CampaignDiagnostics") -> "CampaignDiagnostics":
        """Fold another seed's diagnostics into this record (in place)."""
        if self.seeds is None:
            self.seeds = [self.seed]
        self.seeds.append(other.seed)
        self.budget += other.budget
        self.quarantined.extend(other.quarantined)
        self.host_crashes += other.host_crashes
        self.degraded = self.degraded or other.degraded
        self.watchdog_trips += other.watchdog_trips
        for key, value in other.fault_stats.items():
            self.fault_stats[key] = self.fault_stats.get(key, 0) + value
        if self.checkpoint_discarded is None:
            self.checkpoint_discarded = other.checkpoint_discarded
        if other.phase_timings:
            if self.phase_timings is None:
                self.phase_timings = {}
            for phase, seconds in other.phase_timings.items():
                self.phase_timings[phase] = round(
                    self.phase_timings.get(phase, 0.0) + seconds, 6)
        if other.corpus:
            if self.corpus is None:
                self.corpus = {}
            for key, value in other.corpus.items():
                if key == "size":
                    # the store is shared: its final size is the
                    # latest repetition's view, not a sum
                    self.corpus[key] = value
                else:
                    self.corpus[key] = self.corpus.get(key, 0) + value
        if other.inherited_corpus:
            if self.inherited_corpus is None:
                self.inherited_corpus = []
            self.inherited_corpus.extend(other.inherited_corpus)
        return self

    def to_json(self) -> dict:
        """JSON-encodable form for the CI artifact."""
        return {
            "firmware": self.firmware,
            "seed": self.seed,
            "budget": self.budget,
            "host_crashes": self.host_crashes,
            "degraded": self.degraded,
            "watchdog_trips": self.watchdog_trips,
            "fault_stats": dict(self.fault_stats),
            "quarantined": [record.to_json() for record in self.quarantined],
            "checkpoint_discarded": self.checkpoint_discarded,
            "seeds": None if self.seeds is None else list(self.seeds),
            "phase_timings": (None if self.phase_timings is None
                              else dict(self.phase_timings)),
            "corpus": None if self.corpus is None else dict(self.corpus),
            "inherited_corpus": (None if self.inherited_corpus is None
                                 else list(self.inherited_corpus)),
        }

    @staticmethod
    def from_json(data: dict) -> "CampaignDiagnostics":
        """Rebuild diagnostics from :meth:`to_json` output."""
        return CampaignDiagnostics(
            firmware=data["firmware"],
            seed=data["seed"],
            budget=data["budget"],
            quarantined=[
                CrashRecord.from_json(entry)
                for entry in data.get("quarantined", [])
            ],
            host_crashes=data.get("host_crashes", 0),
            degraded=data.get("degraded", False),
            watchdog_trips=data.get("watchdog_trips", 0),
            fault_stats=dict(data.get("fault_stats", {})),
            checkpoint_discarded=data.get("checkpoint_discarded"),
            seeds=(None if data.get("seeds") is None
                   else list(data["seeds"])),
            phase_timings=(None if data.get("phase_timings") is None
                           else dict(data["phase_timings"])),
            corpus=(None if data.get("corpus") is None
                    else dict(data["corpus"])),
            inherited_corpus=(None if data.get("inherited_corpus") is None
                              else list(data["inherited_corpus"])),
        )

    def summary(self) -> str:
        """One-line human summary for CLI output."""
        bits = [f"{self.host_crashes} host crash(es)"]
        if self.watchdog_trips:
            bits.append(f"{self.watchdog_trips} watchdog trip(s)")
        if self.fault_stats.get("alloc_failures"):
            bits.append(f"{self.fault_stats['alloc_failures']} alloc fault(s)")
        if self.checkpoint_discarded:
            bits.append(f"checkpoint discarded ({self.checkpoint_discarded})")
        if self.degraded:
            bits.append("DEGRADED: crash budget exhausted")
        return ", ".join(bits)


@dataclass
class JobDiagnostics:
    """Supervision history for one fleet job across all its attempts."""

    job_id: str
    firmware: str
    seed: int
    attempts: int = 0
    #: one entry per worker death: {attempt, cause, backoff, resumed}
    restarts: List[Dict] = field(default_factory=list)
    heartbeats: int = 0
    #: largest observed gap between consecutive liveness signals (s)
    max_heartbeat_gap: float = 0.0
    #: the retry budget ran out (or the job was unstartable)
    degraded: bool = False
    #: why the job was declared degraded, when it was
    degraded_cause: Optional[str] = None
    #: the completed campaign's own diagnostics (None until done)
    campaign: Optional[CampaignDiagnostics] = None

    def to_json(self) -> dict:
        return {
            "job_id": self.job_id,
            "firmware": self.firmware,
            "seed": self.seed,
            "attempts": self.attempts,
            "restarts": [dict(entry) for entry in self.restarts],
            "heartbeats": self.heartbeats,
            "max_heartbeat_gap": round(self.max_heartbeat_gap, 3),
            "degraded": self.degraded,
            "degraded_cause": self.degraded_cause,
            "campaign": (None if self.campaign is None
                         else self.campaign.to_json()),
        }

    @staticmethod
    def from_json(data: dict) -> "JobDiagnostics":
        return JobDiagnostics(
            job_id=data["job_id"],
            firmware=data["firmware"],
            seed=data["seed"],
            attempts=data.get("attempts", 0),
            restarts=[dict(entry) for entry in data.get("restarts", [])],
            heartbeats=data.get("heartbeats", 0),
            max_heartbeat_gap=data.get("max_heartbeat_gap", 0.0),
            degraded=data.get("degraded", False),
            degraded_cause=data.get("degraded_cause"),
            campaign=(None if data.get("campaign") is None
                      else CampaignDiagnostics.from_json(data["campaign"])),
        )


@dataclass
class FleetDiagnostics:
    """Fleet-level supervision record aggregating every job's history."""

    workers: int
    heartbeat_timeout: float
    max_retries: int
    backoff_base: float
    jobs: List[JobDiagnostics] = field(default_factory=list)
    wall_time: float = 0.0
    events_logged: int = 0
    #: worker-transport counters (reconnects, frames_dropped, resends,
    #: bytes, ...); ``None`` for the default spawn transport, which has
    #: nothing to report
    transport: Optional[dict] = None

    def job(self, job_id: str) -> Optional[JobDiagnostics]:
        """Look up one job's record by id."""
        for record in self.jobs:
            if record.job_id == job_id:
                return record
        return None

    def degraded_jobs(self) -> List[JobDiagnostics]:
        """Jobs that exhausted their retry budget."""
        return [record for record in self.jobs if record.degraded]

    def total_restarts(self) -> int:
        """Worker deaths recovered across the whole fleet."""
        return sum(len(record.restarts) for record in self.jobs)

    def phase_totals(self) -> Optional[Dict[str, float]]:
        """Fleet-wide per-phase wall-clock totals, folded from every
        job's campaign ``phase_timings``; None when no job carried any
        (observability was off)."""
        totals: Dict[str, float] = {}
        for record in self.jobs:
            campaign = record.campaign
            if campaign is None or not campaign.phase_timings:
                continue
            for phase, seconds in campaign.phase_timings.items():
                totals[phase] = round(totals.get(phase, 0.0) + seconds, 6)
        return totals or None

    def to_json(self) -> dict:
        return {
            "workers": self.workers,
            "heartbeat_timeout": self.heartbeat_timeout,
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "wall_time": round(self.wall_time, 3),
            "events_logged": self.events_logged,
            "phase_totals": self.phase_totals(),
            "transport": self.transport,
            "jobs": [record.to_json() for record in self.jobs],
        }

    @staticmethod
    def from_json(data: dict) -> "FleetDiagnostics":
        return FleetDiagnostics(
            workers=data["workers"],
            heartbeat_timeout=data["heartbeat_timeout"],
            max_retries=data["max_retries"],
            backoff_base=data["backoff_base"],
            jobs=[JobDiagnostics.from_json(entry)
                  for entry in data.get("jobs", [])],
            wall_time=data.get("wall_time", 0.0),
            events_logged=data.get("events_logged", 0),
            transport=data.get("transport"),
        )

    def summary(self) -> str:
        """One-line human summary for CLI output."""
        done = sum(1 for record in self.jobs if record.campaign is not None)
        bits = [f"{done}/{len(self.jobs)} job(s) completed"]
        restarts = self.total_restarts()
        if restarts:
            bits.append(f"{restarts} worker death(s) recovered")
        if self.transport:
            bits.append(
                f"{self.transport.get('remote_attempts', 0)} remote "
                f"attempt(s), {self.transport.get('reconnects', 0)} "
                f"reconnect(s)"
            )
        degraded = self.degraded_jobs()
        if degraded:
            names = ", ".join(record.job_id for record in degraded)
            bits.append(f"DEGRADED: {names}")
        return ", ".join(bits)
