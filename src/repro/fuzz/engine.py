"""The coverage-guided fuzzing engine shared by both fuzzers.

Syzkaller and Tardis differ in interface style (syscall table vs task
API), coverage source (kcov vs emulator events) and target OS — the
mutation/corpus/crash-triage loop is the same, so it lives here once.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.emulator.snapshot import Checkpoint, ForkServer
from repro.errors import FuzzerError, GuestFault, GuestHang
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.diagnostics import CrashRecord, capture_crash
from repro.fuzz.ifspec import INTERESTING, InterfaceSpec, driver_interface
from repro.fuzz.program import (
    Mutator,
    Program,
    ResourcePool,
    resolve_args,
)
from repro.fuzz.spec import EXEC_MODES, SURFACES
from repro.sanitizers.runtime.reports import BugType, SanitizerReport

#: host-level crashes tolerated before a campaign degrades to skip mode
DEFAULT_CRASH_BUDGET = 25
#: default per-program watchdog budgets armed by the fuzzer frontends;
#: generous (3+ orders of magnitude above a normal program) so only a
#: genuinely wedged guest trips
DEFAULT_WATCHDOG_INSNS = 2_000_000
DEFAULT_WATCHDOG_CYCLES = 5_000_000


class Finding:
    """One deduplicated bug found during a campaign.

    ``context`` holds the programs executed earlier in the same target
    session — multi-input state bugs (mount in one input, trigger in a
    later one) need them, exactly like syzkaller extracts reproducers
    from its execution log rather than the last program alone.
    """

    def __init__(self, key: tuple, report: SanitizerReport,
                 program: Program, context: Optional[List[Program]] = None,
                 seed: Optional[int] = None):
        self.key = key
        self.report = report
        self.program = program
        self.context: List[Program] = context or []
        self.reproducible = False
        self.reproducer: Optional[List[Program]] = None
        #: campaign RNG seed that produced this finding (exact replay)
        self.seed = seed

    def reproducer_calls(self) -> List:
        """Flattened call list of the minimized reproducer."""
        programs = self.reproducer if self.reproducer is not None else (
            self.context + [self.program]
        )
        return [call for program in programs for call in program.calls]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Finding {self.key} repro={self.reproducible}>"


class FuzzTarget:
    """One live firmware instance under test.

    ``make`` builds a fresh (image, runtime, coverage) triple.

    ``exec_mode`` selects the reset strategy:

    * ``"journal"`` — every program runs behind a journal-backed
      :class:`Checkpoint`, and each refresh rebuilds the target from
      scratch through ``make``.
    * ``"forkserver"`` — a golden :class:`ForkServer` snapshot is
      captured right after the first build; refreshes rewind to it by
      copying back only dirty pages, and programs run without any
      per-write journalling.  Boot is deterministic, so a restore is
      byte-identical to a rebuild — census results match journal mode
      exactly (the CI identity matrix enforces this).
    """

    def __init__(self, make: Callable[[], tuple], exec_mode: str = "journal"):
        if exec_mode not in EXEC_MODES:
            raise FuzzerError(
                f"unknown exec mode {exec_mode!r} "
                f"(expected one of {', '.join(EXEC_MODES)})"
            )
        self.make = make
        self.exec_mode = exec_mode
        self.image = None
        self.runtime = None
        self.coverage: Optional[CoverageMap] = None
        self.rebuilds = 0
        #: fork-server delta restores performed (forkserver mode)
        self.restores = 0
        self.fork_server: Optional[ForkServer] = None
        #: cost of the most recent reset (observability)
        self.last_reset_pages = 0
        self.last_reset_us = 0.0
        self.reset()

    def reset(self) -> None:
        """Return the target to a pristine ready-to-run state.

        Journal mode rebuilds from scratch.  Fork-server mode rewinds
        to the golden snapshot in O(dirty pages); if the delta restore
        ever fails (a region was remapped, a task held a live
        coroutine), it falls back to a full rebuild and captures a
        fresh golden snapshot, so a campaign never dies to a restore.
        """
        if self.fork_server is not None:
            try:
                stats = self.fork_server.restore()
            except Exception:
                self.fork_server.detach()
                self.fork_server = None
            else:
                self.coverage.reset(self._golden_points)
                self.restores += 1
                self.last_reset_pages = stats.pages
                self.last_reset_us = stats.us
                return
        started = time.perf_counter()
        self.image, self.runtime, self.coverage = self.make()
        self.rebuilds += 1
        self.last_reset_pages = 0
        self.last_reset_us = (time.perf_counter() - started) * 1e6
        if self.exec_mode == "forkserver":
            self.fork_server = ForkServer(
                self.image.ctx.machine,
                host_roots=(self.image.kernel, self.image.ctx),
            )
            # boot-time coverage: a rebuild re-collects it, so a restore
            # must rewind the map to it rather than to empty
            self._golden_points = frozenset(self.coverage.points)

    def execute(self, program: Program, style: str) -> Optional[GuestFault]:
        """Run one program; returns the fault when the guest dies.

        In journal mode each program runs behind a journal-backed
        :class:`Checkpoint`: a :class:`GuestFault` (including watchdog
        hangs) is part of normal fuzzing and commits — the engine's
        crash-oracle and refresh logic handle it — but *any other*
        escaping exception rolls guest memory and engine state back to
        the pre-program point before re-raising, so the caller can
        quarantine the input against a machine that is not also
        corrupted.

        In fork-server mode there is no per-program journal — dropping
        the per-write pre-image log is most of the throughput win — and
        the dirty-page restore at the next refresh is the isolation
        boundary instead.  A host-level crash therefore quarantines
        against the crashed (not rolled-back) state; the engine's
        recovery path restores the golden snapshot immediately after.
        """
        ctx = self.image.ctx
        kernel = self.image.kernel
        machine = ctx.machine
        watchdog = machine.watchdog
        if watchdog is not None:
            watchdog.reset()  # budgets are per-program
        checkpoint = (
            Checkpoint(machine) if self.exec_mode == "journal" else None
        )
        pool = ResourcePool()
        try:
            for nr, args, produces in program.resolve():
                concrete = resolve_args(args, pool)
                if style == "syscall":
                    result = kernel.do_syscall(ctx, nr, *concrete)
                elif style == "driver":
                    result = kernel.driver_invoke(ctx, nr, *concrete[:3])
                else:
                    result = kernel.invoke(ctx, nr, *concrete[:3])
                if produces and isinstance(result, int):
                    pool.put(produces, result)
        except GuestFault as fault:
            if checkpoint is not None:
                checkpoint.commit()
            return fault
        except BaseException:
            if checkpoint is not None:
                checkpoint.rollback()
            raise
        if checkpoint is not None:
            checkpoint.commit()
        return None


class FuzzerEngine:
    """Corpus management + mutation + triage."""

    #: the campaign spec's identity (:meth:`CampaignSpec.identity`),
    #: set by the campaign runner; checkpoints record it and refuse to
    #: resume under a different one
    campaign_identity: Optional[dict] = None

    def __init__(
        self,
        target: FuzzTarget,
        spec: InterfaceSpec,
        seed: int = 0,
        refresh_interval: int = 500,
        crash_budget: int = DEFAULT_CRASH_BUDGET,
        fault_plan=None,
        observer=None,
        corpus_store=None,
        shard=None,
    ):
        self.target = target
        self.spec = spec
        self.seed = seed
        self.rng = random.Random(seed)
        self.mutator = Mutator(self.rng, INTERESTING)
        self.corpus: List[Program] = spec.seed_programs(self.rng)
        #: optional :class:`repro.corpus.CorpusStore`: coverage-novel
        #: programs and crash reproducers persist there, and existing
        #: entries join the corpus (and triage queue) at startup
        self.corpus_store = corpus_store
        #: digests of corpus programs already known to the store
        self._known_digests: set = set()
        #: store entries adopted from other sessions/shards
        self.corpus_imported = 0
        if shard is not None:
            # disjoint seed shards: worker i of n keeps every n-th
            # description-derived seed, so an intra-firmware fleet
            # starts from a partition instead of n identical corpora
            index, count = shard
            if not 0 <= index < count:
                raise FuzzerError(
                    f"shard index {index} outside 0..{count - 1}"
                )
            self.corpus = [
                program for position, program in enumerate(self.corpus)
                if position % count == index
            ]
        self.shard = shard
        if corpus_store is not None:
            from repro.corpus.codec import program_digest

            self._known_digests = {
                program_digest(program) for program in self.corpus
            }
        self.findings: Dict[tuple, Finding] = {}
        self.execs = 0
        self.crashes = 0
        self.refresh_interval = refresh_interval
        #: host-level (non-GuestFault) crashes tolerated before degrading
        self.crash_budget = crash_budget
        self.host_crashes = 0
        self.quarantined: List[CrashRecord] = []
        #: set when the crash budget is exhausted or a rebuild failed;
        #: run() stops early and the campaign records the degradation
        self.degraded = False
        #: the fault plan shared across target rebuilds (its RNG stream
        #: is campaign state and rides along in checkpoints)
        self.fault_plan = fault_plan
        #: watchdog trips harvested from machines discarded by rebuilds
        self._watchdog_trips_retired = 0
        #: optional :class:`repro.obs.Observer`; None costs one attribute
        #: test per step and nothing per access
        self.observer = observer
        if observer is not None:
            observer.watch_machine(self._machine())
        #: seed-corpus programs awaiting their unmutated triage pass;
        #: explicit state so checkpoints can resume mid-triage
        self._triage: List[Program] = [p.clone() for p in self.corpus]
        #: inherited crash reproducers awaiting replay; kept apart from
        #: the plain triage queue because reproducers were minimized
        #: against a *fresh* target and only replay reliably from one
        self._triage_crash: List[Program] = []
        # a single writer adopts what earlier campaigns persisted;
        # imports queue into the triage lists above, so inherited
        # entries get their unmutated replay pass too.  A shard imports
        # at the start of each sync round instead (see run())
        if corpus_store is not None and shard is None:
            self.import_store_entries()
        self._execs_since_refresh = 0
        self._current_reports: List[SanitizerReport] = []
        #: programs executed on the current target session (for
        #: multi-input reproducer extraction), most recent last
        self._session: List[Program] = []
        self._listen()

    def _listen(self) -> None:
        sink = self._sink = getattr(self.target.runtime, "sink", None)
        if sink is not None:
            sink.listeners.append(self._current_reports.append)

    def _begin_exec(self) -> None:
        """Start collecting a new exec's reports: the sink builds the
        first report of each key afresh (see ``ReportSink.begin_exec``)."""
        self._current_reports.clear()
        if self._sink is not None:
            self._sink.begin_exec()

    # ------------------------------------------------------------------
    def _generate_program(self) -> Program:
        length = self.rng.randint(1, 6)
        return Program([self.spec.generate_call(self.rng)
                        for _ in range(length)])

    def _pick_input(self) -> Program:
        if self.corpus and self.rng.random() < 0.75:
            return self.mutator.mutate(
                self.rng.choice(self.corpus),
                lambda: self.spec.generate_call(self.rng),
            )
        return self._generate_program()

    # ------------------------------------------------------------------
    # persistent corpus plumbing (no-ops without a store)
    # ------------------------------------------------------------------
    def import_store_entries(self, triage: bool = True,
                             max_execs: Optional[int] = None) -> int:
        """Adopt store entries this engine does not have yet.

        Entries are imported in digest order (deterministic) and, when
        ``triage`` is set, queued for one unmutated replay — this is
        the receive side of a fleet corpus sync.  ``max_execs`` is the
        sync watermark: entries inserted later than this exec count
        are skipped, so a shard restarted mid-round imports exactly
        what it would have seen at its round boundary (sharded
        determinism survives worker deaths; see ``docs/corpus.md``).
        Returns the number of programs adopted.
        """
        store = self.corpus_store
        if store is None:
            return 0
        imported = 0
        for digest in store.digests():
            if digest in self._known_digests:
                continue
            if max_execs is not None and \
                    store.entries[digest].execs > max_execs:
                continue
            program = store.get(digest)
            self._known_digests.add(digest)
            self.corpus.append(program)
            if triage:
                if store.entries[digest].kind == "crash":
                    self._triage_crash.append(program.clone())
                else:
                    self._triage.append(program.clone())
            imported += 1
        self.corpus_imported += imported
        if imported and self.observer is not None:
            self.observer.counter("corpus.imports").inc(imported)
        return imported

    def _corpus_append(self, program: Program, signature) -> None:
        """One new corpus program: list, store, metrics."""
        self.corpus.append(program)
        if self.corpus_store is not None:
            digest, inserted = self.corpus_store.add(
                program, signature=sorted(signature), kind="cover",
                execs=self.execs,
            )
            self._known_digests.add(digest)
            self._observe_store(inserted)

    def _store_crash(self, program: Program, signature) -> None:
        """Persist a bug-triggering program as a ``crash`` entry."""
        if self.corpus_store is None:
            return
        digest, inserted = self.corpus_store.add(
            program, signature=sorted(signature), kind="crash",
            execs=self.execs,
        )
        self._known_digests.add(digest)
        self._observe_store(inserted)

    def _observe_store(self, inserted: bool) -> None:
        observer = self.observer
        if observer is None:
            return
        if inserted:
            observer.counter("corpus.inserts").inc()
        else:
            observer.counter("corpus.dedup_hits").inc()
        observer.gauge("corpus.size").set(len(self.corpus_store))

    # ------------------------------------------------------------------
    def run(
        self,
        budget: int,
        checkpoint_every: int = 0,
        on_checkpoint=None,
    ) -> "FuzzerEngine":
        """Execute up to ``budget`` fuzz inputs (stops early when degraded).

        The first pass triages the seed corpus as-is (each description-
        derived chain runs once, unmutated) before mutation takes over;
        the triage queue is explicit engine state so a checkpointed run
        resumes exactly where it stopped.

        ``checkpoint_every`` > 0 invokes ``on_checkpoint(self)`` every
        that many execs.  Each boundary also forces a target refresh and
        session clear, making the campaign trajectory a function of the
        (seed, cadence) pair alone — an interrupted-and-resumed run and
        an uninterrupted one produce identical results.

        For a shard, a call that will run (``execs < budget``) is one
        sync round: it first adopts the store entries no newer than its
        own exec count, so what a round imports depends only on where
        it starts — not on sibling timing, and not on whether an
        earlier call already reached the budget.
        """
        if self.shard is not None and self.execs < budget:
            self.import_store_entries(max_execs=self.execs)
        while self.execs < budget and not self.degraded:
            self.step()
            if (
                checkpoint_every
                and self.execs % checkpoint_every == 0
                and self.execs < budget
            ):
                # deterministic boundary: fresh target + empty session,
                # matching the state a resumed run starts from
                if self._execs_since_refresh:
                    self._fresh_target()
                else:
                    self._session.clear()
                if on_checkpoint is not None:
                    on_checkpoint(self)
        return self

    def step(self, program: Optional[Program] = None) -> None:
        """One fuzz iteration: pick (or take), execute, triage.

        A non-:class:`GuestFault` exception escaping the target is a
        *host-level* crash: the input is quarantined into a
        :class:`CrashRecord`, the (already rolled-back) target is
        rebuilt, and the campaign continues — until ``crash_budget``
        such crashes, after which the engine degrades and stops.
        """
        if program is None:
            if self._triage_crash:
                # replay inherited reproducers the way _replays verified
                # them: against a fresh target (state-dependent bugs
                # rarely fire from a polluted heap)
                program = self._triage_crash.pop(0)
                if self._execs_since_refresh:
                    self._fresh_target()
            elif self._triage:
                program = self._triage.pop(0)
            else:
                program = self._pick_input()
        self.execs += 1
        self._execs_since_refresh += 1
        coverage = self.target.coverage
        coverage.begin_input()
        self._begin_exec()
        before_keys = set(self.findings)
        observer = self.observer
        try:
            if observer is not None:
                observer.counter("campaign.execs").inc()
                started = time.perf_counter()
                with observer.span("program:execute", cat="campaign",
                                   args={"exec": self.execs,
                                         "calls": len(program.calls)}):
                    fault = self.target.execute(program, self.spec.style)
                observer.histogram("campaign.program_ms").observe(
                    (time.perf_counter() - started) * 1e3)
            else:
                fault = self.target.execute(program, self.spec.style)
        except Exception as exc:
            self._quarantine(program, exc)
            return

        context = list(self._session[-30:])
        for report in self._current_reports:
            key = report.dedup_key()
            if key not in self.findings:
                self.findings[key] = Finding(key, report, program.clone(),
                                             context=context, seed=self.seed)
        if fault is not None:
            self.crashes += 1
            report = _fault_report(fault)
            key = report.dedup_key()
            if key not in self.findings:
                self.findings[key] = Finding(key, report, program.clone(),
                                             context=context, seed=self.seed)
        elif coverage.new_coverage() > 0:
            self._corpus_append(program, coverage.input_points())
        self._session.append(program.clone())

        new_findings = set(self.findings) - before_keys
        if new_findings:
            self._store_crash(program, coverage.input_points())
        if observer is not None:
            if fault is not None:
                observer.counter("campaign.guest_crashes").inc()
            if new_findings:
                observer.counter("campaign.findings").inc(len(new_findings))
        if fault is not None or new_findings or (
            self.execs % self.refresh_interval == 0
        ):
            # refresh after crashes and findings (contain state
            # pollution) and periodically, like snapshot-restoring
            # fuzzers do
            self._fresh_target()

    def _quarantine(self, program: Program, exc: Exception) -> None:
        """Record a host-level crash and recover (or degrade)."""
        self.host_crashes += 1
        self.quarantined.append(capture_crash(self, program, exc))
        if self.observer is not None:
            self.observer.counter("campaign.host_crashes").inc()
            self.observer.instant("campaign:host_crash", cat="campaign",
                                  args={"exec": self.execs,
                                        "exc": type(exc).__name__})
        if self.host_crashes >= self.crash_budget:
            # graceful degradation, stage 2: stop fuzzing this firmware;
            # the campaign completes with what it has plus diagnostics
            self.degraded = True
            return
        try:
            # stage 1: rebuild — Checkpoint rolled guest memory back,
            # but host-side kernel objects may be inconsistent
            self._fresh_target()
        except Exception:
            self.degraded = True

    def _fresh_target(self) -> None:
        self._watchdog_trips_retired += self._live_watchdog_trips()
        observer = self.observer
        if observer is not None:
            # harvest the machine we are about to discard: each machine
            # is folded into the registry exactly once (the live one is
            # harvested by the campaign at the end)
            observer.harvest_target(self.target)
            observer.counter("campaign.refreshes").inc()
        started = time.perf_counter()
        self.target.reset()
        if observer is not None:
            observer.histogram("campaign.reset_us").observe(
                (time.perf_counter() - started) * 1e6)
            observer.histogram("campaign.reset_pages").observe(
                self.target.last_reset_pages)
        self._session.clear()
        self._execs_since_refresh = 0
        self._listen()
        if observer is not None:
            observer.watch_machine(self._machine())

    def _machine(self):
        """The current target's machine, or None mid-wreckage."""
        try:
            return self.target.image.ctx.machine
        except Exception:
            return None

    def _live_watchdog_trips(self) -> int:
        try:
            watchdog = self.target.image.ctx.machine.watchdog
        except Exception:
            return 0
        return watchdog.trips if watchdog is not None else 0

    def watchdog_trips(self) -> int:
        """Total watchdog trips across every machine this campaign built."""
        return self._watchdog_trips_retired + self._live_watchdog_trips()

    # ------------------------------------------------------------------
    def reproduce_findings(self, minimize_budget: int = 150) -> List[Finding]:
        """Extract a minimized reproducer for every finding.

        Tries the triggering program alone, then progressively longer
        session suffixes (state-dependent bugs), then drop-one
        minimizes the reproducing sequence under an execution budget.
        """
        for finding in self.findings.values():
            base = self._find_reproducing_base(finding)
            if base is None:
                finding.reproducible = False
                continue
            finding.reproducible = True
            finding.reproducer = self._minimize(base, finding.key,
                                                minimize_budget)
        return list(self.findings.values())

    def _find_reproducing_base(self, finding: Finding):
        candidates = [[finding.program]]
        for depth in (5, 15, len(finding.context)):
            if depth:
                candidates.append(finding.context[-depth:] + [finding.program])
        for candidate in candidates:
            if self._replays(candidate, finding.key):
                return candidate
        return None

    def _minimize(self, programs: List[Program], key: tuple,
                  budget: int) -> List[Program]:
        spent = 0
        # pass 1: drop whole context programs
        current = [p.clone() for p in programs]
        idx = 0
        while idx < len(current) - 1 and spent < budget:
            candidate = current[:idx] + current[idx + 1:]
            spent += 1
            if self._replays(candidate, key):
                current = candidate
            else:
                idx += 1
        # pass 2: drop individual calls
        prog_idx = 0
        while prog_idx < len(current) and spent < budget:
            program = current[prog_idx]
            call_idx = 0
            while call_idx < len(program.calls) and spent < budget:
                candidate = [p.clone() for p in current]
                del candidate[prog_idx].calls[call_idx]
                if not candidate[prog_idx].calls:
                    del candidate[prog_idx]
                spent += 1
                if self._replays(candidate, key):
                    current = candidate
                    if prog_idx >= len(current):
                        break
                    program = current[prog_idx]
                else:
                    call_idx += 1
            prog_idx += 1
        return current

    def _replays(self, programs: List[Program], key: tuple) -> bool:
        try:
            self._fresh_target()
        except Exception:
            self.degraded = True
            return False
        self._begin_exec()
        for program in programs:
            try:
                fault = self.target.execute(program, self.spec.style)
            except Exception as exc:
                # a replay escaping the guest boundary is quarantined the
                # same as a fuzz-loop escape; the candidate is a non-repro
                self._quarantine(program, exc)
                return False
            if any(r.dedup_key() == key for r in self._current_reports):
                return True
            if fault is not None:
                return _fault_report(fault).dedup_key() == key
        return False


class FirmwareFuzzer(FuzzerEngine):
    """A fuzzer over one catalog firmware: the options, declared once.

    The keyword options are the ones
    :meth:`~repro.fuzz.spec.CampaignSpec.fuzzer_options` passes, plus
    the placement hooks the campaign runner adds.  A frontend sets
    ``name`` and supplies :meth:`build_target` (build, attach the
    sanitizers, pick the coverage source) and :meth:`interface`; the
    driver surface uses the registered driver ops for every frontend.
    """

    def __init__(
        self,
        firmware: str,
        sanitizers: Sequence[str] = ("kasan",),
        seed: int = 0,
        fault_plan=None,
        crash_budget: int = DEFAULT_CRASH_BUDGET,
        watchdog_insns: int = DEFAULT_WATCHDOG_INSNS,
        watchdog_cycles: float = DEFAULT_WATCHDOG_CYCLES,
        observer=None,
        corpus_store=None,
        shard=None,
        exec_mode: str = "journal",
        surface: str = "syscall",
    ):
        if surface not in SURFACES:
            raise FuzzerError(
                f"unknown fuzz surface {surface!r} "
                f"(expected one of {', '.join(SURFACES)})"
            )
        self.firmware = firmware
        self.sanitizers = tuple(sanitizers)
        self.surface = surface
        driver = surface == "driver"

        def make():
            image, runtime, coverage = self.build_target(driver)
            image.boot()
            # arm hardening after boot so boot-time work never trips the
            # per-program watchdog; the shared fault plan keeps one RNG
            # stream across target rebuilds
            if fault_plan is not None:
                image.machine.set_fault_plan(fault_plan)
            image.machine.set_watchdog(
                insn_budget=watchdog_insns, cycle_budget=watchdog_cycles
            )
            return image, runtime, coverage

        target = FuzzTarget(make, exec_mode=exec_mode)
        kernel = target.image.kernel
        spec = driver_interface(kernel) if driver else self.interface(kernel)
        super().__init__(target, spec, seed=seed, fault_plan=fault_plan,
                         crash_budget=crash_budget, observer=observer,
                         corpus_store=corpus_store, shard=shard)

    def build_target(self, driver: bool) -> tuple:
        """An unbooted ``(image, runtime, coverage)`` triple; ``driver``
        attaches the modeled peripherals."""
        raise NotImplementedError

    def interface(self, kernel) -> InterfaceSpec:
        """The syscall/task interface spec of a booted ``kernel``."""
        raise NotImplementedError


def _fault_report(fault: GuestFault) -> SanitizerReport:
    """Synthesize the crash-oracle report for a guest fault."""
    if isinstance(fault, GuestHang):
        return SanitizerReport(
            "oracle", BugType.HANG, fault.pc, 0, False, fault.pc, 0,
            location="guest-hang", detail=str(fault),
        )
    addr = fault.addr or 0
    bug = BugType.NULL_DEREF if addr < 0x1000 else BugType.WILD_ACCESS
    return SanitizerReport(
        "oracle", bug, addr, 0, False, 0, 0, location="guest-fault",
        detail=str(fault),
    )
