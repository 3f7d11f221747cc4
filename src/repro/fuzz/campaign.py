"""Fuzzing campaign orchestration (the Table-3/Table-4 experiment).

Runs the firmware's paper-designated fuzzer with EMBSAN attached for a
deterministic execution budget (our stand-in for the paper's 7-day
wall-clock campaigns), deduplicates and reproduces findings, and maps
each to the bug catalog so the census can be compared row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bugs.catalog import (
    BugRecord,
    driver_bugs_for,
    record_by_id,
    table4_bugs_for,
)
from repro.errors import CheckpointError, FuzzerError
from repro.firmware.registry import firmware_spec
from repro.fuzz.checkpoint import (
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from repro.fuzz.diagnostics import CampaignDiagnostics
from repro.fuzz.engine import Finding
from repro.fuzz.spec import CATALOG, DEFAULT_BUDGET, CampaignSpec
from repro.fuzz.syzkaller import SyzkallerFuzzer
from repro.fuzz.tardis import TardisFuzzer

#: default checkpoint cadence when a checkpoint path is configured;
#: matches the engine's refresh interval so checkpoint boundaries align
#: with refreshes the campaign performs anyway
DEFAULT_CHECKPOINT_EVERY = 500
#: :func:`run_campaign` options that place or observe a run rather than
#: describe the campaign (everything else is a CampaignSpec field)
RUNTIME_OPTIONS = ("fault_plan", "checkpoint_path", "corpus_dir", "shard",
                   "observer", "on_checkpoint_saved")


@dataclass
class CampaignResult:
    """Outcome of one firmware's campaign."""

    firmware: str
    fuzzer: str
    execs: int
    coverage: int
    crashes: int
    findings: List[Finding] = field(default_factory=list)
    #: catalog rows matched by at least one reproducible finding
    matched: Dict[str, Finding] = field(default_factory=dict)
    #: catalog rows never matched
    missed: List[BugRecord] = field(default_factory=list)
    #: campaign identity: replaying with the same seed and budget
    #: reproduces every finding and crash exactly
    seed: int = 0
    budget: int = 0
    #: robustness telemetry (quarantined crashes, degradation, faults)
    diagnostics: Optional[CampaignDiagnostics] = None

    def census(self) -> Dict[str, int]:
        """Found-bug counts by Table-3 class."""
        out: Dict[str, int] = {}
        for bug_id, _finding in self.matched.items():
            record = record_by_id(bug_id)
            out[record.bug_class] = out.get(record.bug_class, 0) + 1
        return out

    def found_count(self) -> int:
        """Distinct catalog rows found."""
        return len(self.matched)


def _match_findings(records: Sequence[BugRecord],
                    findings: Sequence[Finding]) -> Tuple[dict, list]:
    matched: Dict[str, Finding] = {}
    for record in records:
        for finding in findings:
            if not finding.reproducible:
                continue
            report = finding.report
            if report.bug_type is not record.expect_type:
                continue
            if any(sub in report.location for sub in record.report_match):
                matched[record.bug_id] = finding
                break
    missed = [r for r in records if r.bug_id not in matched]
    return matched, missed


def run_campaign(
    firmware: str, budget: int = DEFAULT_BUDGET, seed: int = 0, **options
) -> CampaignResult:
    """Fuzz one Table-1 firmware with its designated fuzzer + EMBSAN.

    The keyword ``options`` are the :class:`~repro.fuzz.spec.CampaignSpec`
    fields (validated there; a bad value raises :class:`FuzzerError`
    before anything is built) plus the placement and runtime hooks of
    :func:`run_spec`.

    When ``checkpoint_path`` is set, campaign state is serialized there
    every ``checkpoint_every`` execs (default
    :data:`DEFAULT_CHECKPOINT_EVERY`) and an existing checkpoint at that
    path resumes the campaign mid-budget; the resumed run produces the
    same census and findings as an uninterrupted one.  A checkpoint
    taken under a different spec identity (see
    :mod:`repro.fuzz.checkpoint`) refuses to resume.

    ``corpus_dir`` attaches a persistent :class:`repro.corpus.CorpusStore`:
    existing entries seed the campaign (with an unmutated triage pass),
    coverage-novel programs and crash reproducers persist back, and
    checkpoints reference corpus programs by digest instead of inlining
    them.  An empty store leaves the census byte-identical.
    ``shard=(index, count)`` makes this campaign one worker of an
    intra-firmware fleet: it starts from its disjoint slice of the spec
    seed corpus, writes its own manifest segment in the shared store,
    and, instead of importing at startup, adopts the store entries no
    newer than its exec count at the start of each sync round that
    runs (see ``docs/corpus.md``).

    ``observer`` (a :class:`repro.obs.Observer`) collects campaign
    metrics, trace spans and per-phase wall-clock timings; campaign
    *results* — findings, census, checkpoints — are byte-identical with
    or without one (only ``diagnostics.phase_timings`` appears).

    ``exec_mode`` selects the target reset strategy (see
    ``docs/forkserver.md``): ``"journal"`` rebuilds the firmware at
    every refresh and journals each program, ``"forkserver"`` rewinds a
    golden snapshot by copying back only dirty pages.  The census is
    byte-identical either way; only throughput differs.

    ``surface="driver"`` fuzzes the firmware's driver-op surface instead
    of its syscall/task API: the build attaches the modeled peripherals
    (``build_firmware(driver=True)``), the interface spec comes from the
    registered driver ops, and the census is measured against the
    driver-surface rows of the bug catalog (``driver_bugs_for``) — see
    ``docs/peripherals.md``.
    """
    runtime = {name: options.pop(name)
               for name in RUNTIME_OPTIONS if name in options}
    spec = CampaignSpec(firmware=firmware, budget=budget, seed=seed, **options)
    return run_spec(spec, **runtime)


def run_job(job, observer=None, on_checkpoint_saved=None) -> CampaignResult:
    """Run one :class:`~repro.fuzz.supervisor.CampaignJob` in this process.

    The one execution path of a job: every fleet worker (in-process,
    spawn and TCP) calls it, which is what keeps their results
    byte-identical.
    """
    return run_spec(job.spec, checkpoint_path=job.checkpoint_path,
                    corpus_dir=job.corpus_dir, shard=job.shard,
                    observer=observer, on_checkpoint_saved=on_checkpoint_saved)


def run_spec(spec: CampaignSpec, fault_plan=None,
             checkpoint_path: Optional[str] = None,
             corpus_dir: Optional[str] = None,
             shard: Optional[Tuple[int, int]] = None, observer=None,
             on_checkpoint_saved: Optional[Callable[[str], None]] = None,
             ) -> CampaignResult:
    """Run the campaign ``spec`` describes (see :func:`run_campaign`).

    A spec with ``seeds`` runs as :func:`run_campaign_repeated`.
    ``spec.faults`` compiles to one fault plan for the whole call;
    ``fault_plan`` passes a live plan instead.  ``on_checkpoint_saved``
    is called with the path after every checkpoint write (the TCP fleet
    worker ships checkpoints home from there).
    """
    runtime = dict(fault_plan=_compile_faults(spec, fault_plan),
                   checkpoint_path=checkpoint_path, corpus_dir=corpus_dir,
                   shard=shard, observer=observer,
                   on_checkpoint_saved=on_checkpoint_saved)
    if spec.seeds:
        return _run_repeated(spec, False, runtime)
    return _run_single(spec, **runtime)


def _compile_faults(spec: CampaignSpec, fault_plan):
    """The live fault plan for a run: ``fault_plan``, or ``spec.faults``
    compiled once with the spec's fault seed."""
    if not spec.faults:
        return fault_plan
    if fault_plan is not None:
        raise FuzzerError("pass either faults= (DSL) or fault_plan=, not both")
    from repro.emulator.faults import plan_for

    # per-job fault plan: each job owns its RNG stream, so a fleet
    # member's faults never depend on sibling scheduling
    return plan_for(
        spec.faults,
        seed=spec.seed if spec.fault_seed is None else spec.fault_seed,
    )


def _run_single(spec, fault_plan=None, checkpoint_path=None, corpus_dir=None,
                shard=None, observer=None,
                on_checkpoint_saved=None) -> CampaignResult:
    import time

    firmware, budget = spec.firmware, spec.budget
    phase_timings = None if observer is None else {}
    phase_started = time.perf_counter() if observer is not None else 0.0

    def _phase_done(name: str) -> None:
        nonlocal phase_started
        if observer is None:
            return
        now = time.perf_counter()
        elapsed = now - phase_started
        phase_timings[name] = round(
            phase_timings.get(name, 0.0) + elapsed, 6)
        observer.histogram("campaign.phase_ms").observe(elapsed * 1e3)
        observer.instant(f"phase:{name}", cat="campaign",
                         args={"firmware": firmware,
                               "seconds": round(elapsed, 6)})
        phase_started = now

    if spec.surface == "driver":
        records = driver_bugs_for(firmware)
    else:
        records = table4_bugs_for(firmware)
    sanitizers = spec.sanitizers
    if sanitizers is None:
        needed = {r.tool for r in records}
        sanitizers = tuple(
            ["kasan"] + [t for t in ("kcsan", "kmsan") if t in needed]
        )
    checkpoint_every = spec.checkpoint_every
    identity = None
    if checkpoint_path is not None:
        checkpoint_every = checkpoint_every or DEFAULT_CHECKPOINT_EVERY
        # recorded in every checkpoint; a resume must match it
        identity = replace(spec, sanitizers=sanitizers,
                           checkpoint_every=checkpoint_every).identity()
    corpus_store = None
    if corpus_dir is not None:
        from repro.corpus import CorpusStore

        writer = None if shard is None else f"shard{shard[0]:02d}"
        corpus_store = CorpusStore(
            corpus_dir, firmware=firmware, writer=writer
        )
    fuzzer_cls = (SyzkallerFuzzer
                  if firmware_spec(firmware).fuzzer == "syzkaller"
                  else TardisFuzzer)

    def build():
        fuzzer = fuzzer_cls(
            firmware, sanitizers=sanitizers, fault_plan=fault_plan,
            observer=observer, corpus_store=corpus_store, shard=shard,
            **spec.fuzzer_options(),
        )
        fuzzer.campaign_identity = identity
        return fuzzer

    fuzzer = build()
    _phase_done("build")

    on_checkpoint = None
    checkpoint_discarded = None
    if checkpoint_path is not None:
        try:
            state = load_checkpoint(checkpoint_path)
            if state is not None:
                restore_engine(fuzzer, state, firmware)
        except CheckpointError as exc:
            # corrupt/truncated/unsupported checkpoint: discard it and
            # start from scratch.  restore_engine may have partially
            # mutated the fuzzer (or its fault plan's RNG), so rebuild
            # both from their recipes — the recovered run is then
            # byte-identical to one that never saw the bad file.
            checkpoint_discarded = str(exc)
            if observer is not None:
                # the half-restored fuzzer's machine is being discarded
                observer.harvest_target(fuzzer.target)
            if fault_plan is not None:
                from repro.emulator.faults import FaultPlan

                fault_plan = FaultPlan.parse(fault_plan.describe())
            fuzzer = build()

        def on_checkpoint(engine):
            if observer is not None:
                observer.counter("campaign.checkpoints").inc()
                with observer.span("checkpoint:write", cat="campaign",
                                   args={"execs": engine.execs}):
                    save_checkpoint(checkpoint_path, engine, firmware,
                                    budget)
            else:
                save_checkpoint(checkpoint_path, engine, firmware, budget)
            if on_checkpoint_saved is not None:
                # the fleet's TCP worker ships the fresh checkpoint (and
                # its corpus store) home from here; failures propagate so
                # the attempt dies rather than silently losing custody
                on_checkpoint_saved(checkpoint_path)

    execs_before = fuzzer.execs
    fuzz_started = time.perf_counter()
    fuzzer.run(budget, checkpoint_every=checkpoint_every,
               on_checkpoint=on_checkpoint)
    fuzz_elapsed = time.perf_counter() - fuzz_started
    if observer is not None and fuzz_elapsed > 0:
        # the headline throughput number (docs/forkserver.md): programs
        # executed this run over fuzz-phase wall-clock
        observer.gauge("campaign.execs_per_sec").set(
            round((fuzzer.execs - execs_before) / fuzz_elapsed, 3))
    _phase_done("fuzz")
    findings = fuzzer.reproduce_findings()
    matched, missed = _match_findings(records, findings)
    _phase_done("reproduce")
    corpus_stats = None
    if corpus_store is not None:
        from repro.fuzz.program import Program

        # persist each reproducible finding's minimized reproducer as a
        # crash entry: re-running from this corpus replays the bug in
        # the triage pass instead of re-discovering it by mutation
        for finding in findings:
            if finding.reproducible:
                corpus_store.add(
                    Program(finding.reproducer_calls()),
                    kind="crash", execs=fuzzer.execs,
                )
        corpus_store.flush()
        corpus_stats = dict(corpus_store.stats())
        corpus_stats["imported"] = fuzzer.corpus_imported
        if observer is not None:
            observer.gauge("corpus.size").set(len(corpus_store))
        _phase_done("corpus")
    if checkpoint_path is not None:
        # final checkpoint: a later resume of a finished campaign is a
        # no-op instead of re-fuzzing
        if observer is not None:
            observer.counter("campaign.checkpoints").inc()
        save_checkpoint(checkpoint_path, fuzzer, firmware, budget)
        if on_checkpoint_saved is not None:
            on_checkpoint_saved(checkpoint_path)
        _phase_done("checkpoint")
    if observer is not None:
        # the live machine's counters (rebuild-discarded ones were
        # harvested at each refresh)
        observer.harvest_target(fuzzer.target)
    diagnostics = CampaignDiagnostics(
        firmware=firmware,
        seed=spec.seed,
        budget=budget,
        quarantined=list(fuzzer.quarantined),
        host_crashes=fuzzer.host_crashes,
        degraded=fuzzer.degraded,
        watchdog_trips=fuzzer.watchdog_trips(),
        fault_stats=fault_plan.stats() if fault_plan is not None else {},
        checkpoint_discarded=checkpoint_discarded,
        phase_timings=phase_timings,
        corpus=corpus_stats,
    )
    return CampaignResult(
        firmware=firmware,
        fuzzer=fuzzer.name,
        execs=fuzzer.execs,
        coverage=len(fuzzer.target.coverage),
        crashes=fuzzer.crashes,
        findings=findings,
        matched=matched,
        missed=missed,
        seed=spec.seed,
        budget=budget,
        diagnostics=diagnostics,
    )


def run_campaign_repeated(
    firmware: str,
    budget: int = DEFAULT_BUDGET,
    seeds: Sequence[int] = (1, 2, 3),
    carry_corpus: bool = False,
    **kwargs,
) -> CampaignResult:
    """Repeat a campaign across seeds, merging findings.

    The paper repeats every quantitative experiment 10 times per
    accepted fuzzing-evaluation practice; findings merge across
    repetitions.  Stops early once every seeded defect is matched.
    Extra keyword arguments are :class:`~repro.fuzz.spec.CampaignSpec`
    fields or :func:`run_spec` runtime options, as for
    :func:`run_campaign`.

    With ``carry_corpus=True`` every repetition fuzzes through the same
    persistent corpus store, so seed *n+1* starts from everything seeds
    *1..n* discovered (coverage programs replay unmutated in its triage
    pass) instead of from scratch.  Uses the caller's ``corpus_dir`` if
    one is passed, otherwise a temporary store scoped to this call; the
    merged diagnostics' ``inherited_corpus`` lists, per seed in order,
    how many store entries that repetition inherited.

    Diagnostics merge too: the returned record's ``seeds`` lists every
    repetition that ran, counters sum, and every seed's quarantined
    crash records are preserved — a crash in repetition 3 is triagable
    from the merged result, not silently dropped.
    """
    runtime = {name: kwargs.pop(name)
               for name in RUNTIME_OPTIONS if name in kwargs}
    spec = CampaignSpec(firmware=firmware, budget=budget, seeds=seeds,
                        **kwargs)
    runtime["fault_plan"] = _compile_faults(spec, runtime.get("fault_plan"))
    tmp_corpus = None
    if carry_corpus and not runtime.get("corpus_dir"):
        import tempfile

        tmp_corpus = tempfile.TemporaryDirectory(prefix="repro-corpus-")
        runtime["corpus_dir"] = tmp_corpus.name
    try:
        return _run_repeated(spec, carry_corpus, runtime)
    finally:
        if tmp_corpus is not None:
            tmp_corpus.cleanup()


def _run_repeated(spec, carry_corpus, runtime):
    merged: Optional[CampaignResult] = None
    for seed in spec.seeds:
        result = _run_single(replace(spec, seed=seed, seeds=None), **runtime)
        if carry_corpus and result.diagnostics is not None:
            stats = result.diagnostics.corpus or {}
            result.diagnostics.inherited_corpus = [
                stats.get("imported", 0)
            ]
        merged = result if merged is None else merge_into(merged, result)
        if not merged.missed:
            break
    return merged


def merge_into(merged: CampaignResult,
               result: CampaignResult) -> CampaignResult:
    """Fold another campaign of the same firmware into ``merged``.

    The one census merge, shared by repeated campaigns and shard
    fleets: counters sum, coverage takes the widest frontier, findings
    concatenate, catalog matches union, ``missed`` shrinks to the rows
    neither found and diagnostics merge.  ``budget`` is left alone (a
    repeated campaign reports its per-seed budget; the shard merge sums
    it).  Returns ``merged``.
    """
    merged.execs += result.execs
    merged.crashes += result.crashes
    merged.coverage = max(merged.coverage, result.coverage)
    merged.findings.extend(result.findings)
    for bug_id, finding in result.matched.items():
        merged.matched.setdefault(bug_id, finding)
    merged.missed = [
        record for record in merged.missed
        if record.bug_id not in merged.matched
    ]
    if merged.diagnostics is not None and result.diagnostics is not None:
        merged.diagnostics.merge(result.diagnostics)
    return merged


def run_all_campaigns(
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
    checkpoint_dir: Optional[str] = None,
    workers: int = 1,
    faults: Optional[str] = None,
    observer=None,
    **options,
) -> List[Optional[CampaignResult]]:
    """Run every Table-1 firmware's campaign (the full Table-3 sweep).

    ``options`` are further :class:`~repro.fuzz.spec.CampaignSpec`
    fields, applied to every firmware's campaign.

    With ``checkpoint_dir``, each firmware checkpoints into its own file
    (``campaign_<firmware>.json``), making a multi-firmware sweep
    interruption-safe: re-running the sweep resumes each firmware from
    its last checkpoint instead of starting over.

    The sweep is one job per firmware under the
    :mod:`repro.fuzz.supervisor` fleet entry, ``workers`` at a time:
    one runs them in this process, more in supervised worker processes
    with heartbeat liveness checks and checkpoint-driven restart of
    killed or hung workers.  Results come back in catalog order and
    are byte-identical whatever the worker count (per-job RNG isolation
    is the determinism contract); a job that exhausts its retry budget
    yields ``None`` in its slot instead of aborting the sweep.
    ``faults`` is a fault-plan DSL string, compiled to a fresh
    per-firmware plan, so worker count never changes which faults fire.
    """
    from repro.fuzz.supervisor import FleetSupervisor, make_jobs

    if options.pop("fault_plan", None) is not None:
        raise FuzzerError(
            "a live fault_plan cannot be shared across a sweep; pass "
            "faults=<DSL spec> so each campaign builds its own plan"
        )
    template = CampaignSpec(firmware=CATALOG, budget=budget, seed=seed,
                            seeds=seeds, faults=faults, **options)
    jobs = make_jobs(template, checkpoint_dir=checkpoint_dir)
    fleet = FleetSupervisor(jobs, workers=workers, observer=observer).run()
    return fleet.results
