"""The one fleet entry: every campaign job runs through a supervisor.

:class:`FleetSupervisor` (function form: :func:`run_fleet`) runs a list
of :class:`CampaignJob` records built by :func:`make_jobs`.  The catalog
sweep (``run_all_campaigns``, ``repro fuzz-all`` with or without
``--shard``) goes through it, so there is one scheduling loop, one
retry policy and one result merge.

``workers`` is how many jobs run at once.  Where they run is the
transport: with none given, one worker runs each job in this process
(:class:`~repro.fuzz.transport.InlineTransport`) and more workers run
them in supervised ``spawn`` processes; a passed-in transport (a
:class:`~repro.fuzz.transport.SpawnTransport` or a TCP listener for
``repro worker --connect`` peers) is used as is.  Supervised workers
heartbeat over their channel, and worker death — crash, OOM kill,
operator SIGKILL, heartbeat silence — is a routine, recoverable event:
the job restarts with exponential backoff and resumes from its last
checkpoint file.  After ``max_retries`` restarts the job is marked
*degraded* and the fleet moves on, so one pathological firmware can
never stall the sweep.

Shard jobs (``make_jobs(..., shards=N)``) run in sync rounds of
``spec.checkpoint_every`` per-shard execs: between rounds every shard
has flushed its corpus segment, so each round starts from the same
shared store however the shards were scheduled.  Their results come
back folded into one record per firmware (:attr:`FleetResult.merged`).

Determinism contract: every job runs ``run_job`` on the same spec and
owns its RNG stream, so a job's result is byte-identical whatever the
worker count, transport, interleaving, or how many times workers were
killed and resumed mid-job.  ``tests/test_determinism.py`` checks it
cell by cell against one result digest (see ``docs/robustness.md``).

Observability: every supervision decision is appended to a structured
JSONL event log (``job_started``, ``heartbeat``, ``worker_died``,
``job_resumed``, ``checkpoint_discarded``, ``job_degraded``,
``job_done``, ``corpus_synced``, ``fleet_done``) and aggregated into a
:class:`~repro.fuzz.diagnostics.FleetDiagnostics` record that nests
each completed campaign's own ``CampaignDiagnostics``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import CheckpointError, CorpusError, FuzzerError
from repro.fuzz.diagnostics import FleetDiagnostics, JobDiagnostics
from repro.fuzz.spec import CATALOG, CampaignSpec
from repro.fuzz.transport import (
    InlineTransport,
    SpawnTransport,
    WorkerTransport,
)

#: seconds between worker heartbeats
DEFAULT_HEARTBEAT_INTERVAL = 1.0
#: liveness timeout: a silent worker is declared hung after this long
DEFAULT_HEARTBEAT_TIMEOUT = 30.0
#: restarts granted per job before it is marked degraded
DEFAULT_MAX_RETRIES = 3
#: first retry delay; doubles per subsequent retry of the same job
DEFAULT_BACKOFF_BASE = 0.5
DEFAULT_BACKOFF_FACTOR = 2.0
#: supervisor event-queue poll granularity (also bounds loop latency)
_POLL = 0.05
#: grace period for a cleanly exited worker's terminal message to
#: drain from the queue before its silence is ruled a death
_DRAIN_GRACE = 1.0


@dataclass(frozen=True)
class CampaignJob:
    """One unit of fleet work: a campaign spec and where it runs.

    ``checkpoint_path`` is where the campaign checkpoints, and what it
    resumes from after a worker death.  ``corpus_dir`` is a persistent
    corpus store (shared with sibling shards in sharded mode), and
    ``shard=(index, count)`` makes the job one shard of an
    intra-firmware fleet.  A spec with ``seeds`` runs a repeated
    campaign, which restarts from scratch on retry.
    """

    job_id: str
    spec: CampaignSpec
    checkpoint_path: Optional[str] = None
    corpus_dir: Optional[str] = None
    shard: Optional[Tuple[int, int]] = None

    def payload(self, attempt: int, heartbeat_interval: float,
                observe: bool = False) -> dict:
        """The JSON-encodable dict handed to ``worker_main``."""
        return {
            "job_id": self.job_id,
            "attempt": attempt,
            "heartbeat_interval": heartbeat_interval,
            "observe": observe,
            "spec": self.spec.to_json(),
            "checkpoint_path": self.checkpoint_path,
            "corpus_dir": self.corpus_dir,
            "shard": None if self.shard is None else list(self.shard),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CampaignJob":
        """Rebuild the job a :meth:`payload` dict describes."""
        shard = payload.get("shard")
        return cls(
            job_id=payload["job_id"],
            spec=CampaignSpec.from_json(payload["spec"]),
            checkpoint_path=payload.get("checkpoint_path"),
            corpus_dir=payload.get("corpus_dir"),
            shard=None if shard is None else tuple(shard),
        )


@dataclass
class FleetResult:
    """Everything a finished fleet produced."""

    #: per-job campaign results in job *submission* order (the merge is
    #: deterministic by construction); ``None`` where a job degraded
    results: List[Optional[object]]
    diagnostics: FleetDiagnostics
    #: the full structured event stream (also on disk when
    #: ``events_path`` was configured)
    events: List[dict] = field(default_factory=list)
    #: True when :meth:`FleetSupervisor.interrupt` stopped the fleet
    #: before every job finished — unfinished jobs keep their
    #: checkpoints and a rerun resumes them; they are *not* degraded
    interrupted: bool = False
    #: job ids that were still waiting or running at interrupt time
    unfinished: List[str] = field(default_factory=list)
    #: one result per campaign, submission order: a job's own result,
    #: or every shard job of one firmware folded into one census record
    #: (:func:`~repro.fuzz.campaign.merge_into`, budgets summed);
    #: ``None`` where every contributing job degraded
    merged: List[Optional[object]] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any job exhausted its retry budget.

        An interrupted fleet's unfinished jobs do not count: they were
        stopped by the operator mid-flight, not abandoned by the
        supervisor, and their checkpoints make them resumable.
        """
        if self.interrupted:
            return any(
                result is None
                for result, job_id in zip(self.results, self._job_ids())
                if job_id not in self.unfinished
            )
        return any(result is None for result in self.results)

    def _job_ids(self) -> List[str]:
        return [diag.job_id for diag in self.diagnostics.jobs]

    def completed(self) -> List[object]:
        """The successful results, submission order preserved."""
        return [result for result in self.results if result is not None]


class _JobState:
    """Supervisor-side bookkeeping for one job."""

    __slots__ = ("job", "status", "handle", "attempt",
                 "last_signal", "not_before", "dead_since", "death_cause",
                 "diag", "result", "discard_logged", "span_start")

    def __init__(self, job: CampaignJob, diag: JobDiagnostics):
        self.job = job
        self.status = "waiting"  # waiting | running | done | degraded
        #: the current attempt's :class:`AttemptHandle` — a spawn
        #: process + fresh queue, or a job dispatched to a TCP peer
        self.handle = None
        self.attempt = 0
        self.last_signal = 0.0
        self.not_before = 0.0  # backoff deadline (monotonic)
        self.dead_since = None  # first time the worker was seen dead
        self.death_cause = None
        #: the job's history across attempts and sync rounds
        self.diag = diag
        self.result = None
        self.discard_logged = False
        #: tracer timestamp when the current attempt started (observer)
        self.span_start = 0.0

    def drop_handle(self) -> None:
        """Reap the current attempt's handle (worker is gone)."""
        if self.handle is not None:
            self.handle.close()
            self.handle = None


class FleetSupervisor:
    """Run campaign jobs, in this process or on supervised workers."""

    def __init__(
        self,
        jobs: Sequence[CampaignJob],
        workers: int = 1,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        events_path: Optional[str] = None,
        on_event: Optional[Callable[[dict], None]] = None,
        observer=None,
        transport: Optional[WorkerTransport] = None,
    ):
        if workers < 1:
            raise FuzzerError(f"fleet needs >= 1 worker, got {workers}")
        if not jobs:
            raise FuzzerError("fleet needs at least one job")
        seen = set()
        for job in jobs:
            if job.job_id in seen:
                raise FuzzerError(f"duplicate job id {job.job_id!r}")
            seen.add(job.job_id)
        self.jobs = list(jobs)
        #: jobs running at once, whatever the transport
        self.workers = workers
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.events_path = events_path
        #: observation hook, called with every event record as it is
        #: logged — the test suite uses it to inject failures
        #: (SIGKILL/SIGSTOP) at precise fleet states; exceptions it
        #: raises abort the fleet
        self.on_event = on_event
        #: optional :class:`repro.obs.Observer`.  The supervisor feeds
        #: it fleet-level counters/spans and asks each worker (via the
        #: job payload's ``observe`` flag) to ship its own metrics and
        #: trace back for merging, so one document covers the whole fleet
        self.observer = observer
        #: worker channel; ``None`` means a supervisor-owned one — an
        #: :class:`~repro.fuzz.transport.InlineTransport` for one worker,
        #: a :class:`~repro.fuzz.transport.SpawnTransport` for more.  The
        #: caller keeps ownership (and must ``close()``) of transports it
        #: passes in.
        self.transport = transport
        self._transport: Optional[WorkerTransport] = None
        self._events: List[dict] = []
        self._events_fh = None
        self._interrupted = threading.Event()
        #: the thread running jobs in-process (inline transport only)
        self._inline_thread: Optional[threading.Thread] = None

    def interrupt(self) -> None:
        """Ask a running fleet to stop at the next scheduling round.

        Safe to call from any thread (the CLI's SIGTERM handler, or a
        library caller's own thread).  Running attempts are killed,
        waiting jobs stay waiting, and :meth:`run` returns a
        :class:`FleetResult` with ``interrupted=True`` listing the
        unfinished job ids.  Checkpoints written so far stay on disk,
        so a rerun of the same jobs resumes rather than restarts.  On
        the thread running an in-process job (a signal handler) it
        raises ``KeyboardInterrupt`` to unwind that job; :meth:`run`
        absorbs it.
        """
        self._interrupted.set()
        if self._inline_thread is threading.current_thread():
            raise KeyboardInterrupt

    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        """Run every job to completion (or degradation); block until done."""
        transport = self.transport
        owned = transport is None
        if owned:
            transport = (InlineTransport() if self.workers == 1
                         else SpawnTransport())
        if isinstance(transport, InlineTransport):
            self._inline_thread = threading.current_thread()
        self._transport = transport
        diags = {
            job.job_id: JobDiagnostics(job_id=job.job_id,
                                       firmware=job.spec.firmware,
                                       seed=job.spec.seed)
            for job in self.jobs
        }
        final = {job.job_id: _JobState(job, diags[job.job_id])
                 for job in self.jobs}
        states: List[_JobState] = []
        synced = {}  # shared corpus store -> entries at the last barrier
        started_wall = time.time()
        started = time.monotonic()
        if self.events_path:
            from repro.obs.observer import ensure_parent

            self._events_fh = open(ensure_parent(self.events_path), "w",
                                   encoding="utf-8")
        transport_stats = None
        try:
            self._emit("fleet_started", jobs=len(self.jobs),
                       workers=self.workers,
                       heartbeat_timeout=self.heartbeat_timeout,
                       max_retries=self.max_retries)
            if self.observer is not None:
                self.observer.gauge("fleet.workers").set(self.workers)
                self.observer.gauge("fleet.jobs").set(len(self.jobs))
            rounds = max(_rounds(job) for job in self.jobs)
            try:
                for round_index in range(rounds):
                    states = [_JobState(_round_job(job, round_index),
                                        diags[job.job_id])
                              for job in self.jobs
                              if round_index < _rounds(job)]
                    final.update((s.job.job_id, s) for s in states)
                    while (not self._interrupted.is_set()
                           and any(s.status in ("waiting", "running")
                                   for s in states)):
                        self._fill_slots(states)
                        self._pump(states)
                        self._check_liveness(states)
                    if self._interrupted.is_set():
                        break
                    self._sync_shards(states, round_index + 1, synced)
            except KeyboardInterrupt:
                # interrupt() unwinding an in-process job: its last
                # checkpoint is on disk and a rerun resumes it
                if not self._interrupted.is_set():
                    raise
            self._inline_thread = None
            unfinished = [s.job.job_id for s in final.values()
                          if s.status in ("waiting", "running")]
            transport_stats = transport.stats()
            self._emit(
                "fleet_interrupted" if unfinished else "fleet_done",
                jobs=len(self.jobs),
                completed=sum(1 for s in final.values()
                              if s.status == "done"),
                degraded=[s.job.job_id for s in final.values()
                          if s.status == "degraded"],
                unfinished=unfinished,
                restarts=sum(len(d.restarts) for d in diags.values()),
                wall_time=round(time.monotonic() - started, 3),
                transport=transport_stats,
            )
            self._absorb_transport_stats(transport_stats)
        finally:
            self._inline_thread = None
            for state in states:
                if state.handle is not None:
                    state.handle.kill()
                state.drop_handle()
            if owned:
                transport.close()
            self._transport = None
            if self._events_fh is not None:
                self._events_fh.close()
                self._events_fh = None
        diagnostics = FleetDiagnostics(
            workers=self.workers,
            heartbeat_timeout=self.heartbeat_timeout,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            jobs=list(diags.values()),
            wall_time=time.time() - started_wall,
            events_logged=len(self._events),
            transport=transport_stats,
        )
        results = [state.result for state in final.values()]
        return FleetResult(
            results=results,
            diagnostics=diagnostics,
            events=list(self._events),
            interrupted=self._interrupted.is_set(),
            unfinished=unfinished,
            merged=_merge_shards(self.jobs, results),
        )

    def _sync_shards(self, states: List[_JobState], round_number: int,
                     synced: dict) -> None:
        """Log the corpus-sync barrier that closes a round of shard jobs.

        Every shard of the round has flushed its segment and gone idle,
        so each shared store is exactly what the next round's resumes
        import from.
        """
        from repro.corpus import CorpusStore

        planned = {job.job_id: job for job in self.jobs}
        stores = {}
        for state in states:
            job = planned[state.job.job_id]
            if job.shard is not None:
                stores.setdefault((job.corpus_dir, job.spec.firmware), job)
        for (corpus_dir, firmware), job in stores.items():
            store = CorpusStore(corpus_dir, firmware=firmware)
            previous = synced.get(corpus_dir, 0)
            synced[corpus_dir] = len(store)
            self._emit("corpus_synced", firmware=firmware,
                       round=round_number, rounds=_rounds(job),
                       entries=len(store), new_entries=len(store) - previous)
            if self.observer is not None:
                self.observer.counter("corpus.syncs").inc()
                self.observer.counter("corpus.sync_volume").inc(
                    len(store) - previous)
                self.observer.gauge("corpus.size").set(len(store))

    def _absorb_transport_stats(self, stats: Optional[dict]) -> None:
        if stats is None or self.observer is None:
            return
        for key in ("connects", "reconnects", "frames_dropped",
                    "resends", "remote_attempts", "spawn_fallbacks",
                    "bytes_sent", "bytes_received"):
            if stats.get(key):
                self.observer.counter(
                    f"fleet.transport.{key}").inc(stats[key])

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _fill_slots(self, states: List[_JobState]) -> None:
        now = time.monotonic()
        running = sum(1 for s in states if s.status == "running")
        for state in states:
            if running >= self.workers:
                return
            if state.status != "waiting" or state.not_before > now:
                continue
            if self._start(state):
                running += 1

    def _start(self, state: _JobState) -> bool:
        state.attempt += 1
        state.diag.attempts += 1
        payload = state.job.payload(state.attempt, self.heartbeat_interval,
                                    observe=self.observer is not None)
        handle = self._transport.launch(payload)
        if handle is None:
            # no capacity right now (every remote busy, fallback off):
            # leave the job waiting; the next poll retries
            state.attempt -= 1
            state.diag.attempts -= 1
            return False
        state.dead_since = None
        state.death_cause = None
        state.handle = handle
        state.status = "running"
        state.last_signal = time.monotonic()
        observer = self.observer
        if observer is not None:
            observer.counter("fleet.attempts").inc()
            if observer.tracer is not None:
                state.span_start = observer.tracer.now()
        path = state.job.checkpoint_path
        where = dict(job=state.job.job_id, pid=handle.pid,
                     where=handle.where,
                     from_checkpoint=bool(path and os.path.exists(path)))
        if state.attempt == 1:
            spec = state.job.spec
            self._emit("job_started", firmware=spec.firmware,
                       seed=spec.seed, budget=spec.budget, **where)
        else:
            self._emit("job_resumed", attempt=state.attempt, **where)
        return True

    # ------------------------------------------------------------------
    # event-queue pump
    # ------------------------------------------------------------------
    def _pump(self, states: List[_JobState]) -> None:
        by_id = {state.job.job_id: state for state in states}
        drained_any = False
        for state in states:
            handle = state.handle
            if handle is None:
                continue
            for message in handle.poll():
                drained_any = True
                self._handle(by_id, message)
        if not drained_any:
            time.sleep(_POLL)

    def _handle(self, by_id, message) -> None:
        kind, job_id, attempt, payload = message
        state = by_id.get(job_id)
        if state is None:
            return
        now = time.monotonic()
        if kind == "heartbeat":
            if state.status == "running" and attempt == state.attempt:
                gap = now - state.last_signal
                state.diag.max_heartbeat_gap = max(
                    state.diag.max_heartbeat_gap, gap)
                state.last_signal = now
                state.diag.heartbeats += 1
                if self.observer is not None:
                    self.observer.counter("fleet.heartbeats").inc()
                    self.observer.histogram(
                        "fleet.heartbeat_gap_ms").observe(gap * 1e3)
                self._emit("heartbeat", job=job_id, attempt=attempt,
                           elapsed=payload.get("elapsed"),
                           gap=round(gap, 3))
        elif kind == "started":
            if state.status == "running" and attempt == state.attempt:
                state.last_signal = now
                if payload.get("checkpoint_corrupt") and \
                        not state.discard_logged:
                    state.discard_logged = True
                    self._emit("checkpoint_discarded", job=job_id,
                               attempt=attempt,
                               reason=payload["checkpoint_corrupt"])
        elif kind == "metrics":
            # the worker's observability bundle, shipped just before its
            # result; stale-attempt bundles are dropped so counters are
            # never absorbed twice
            if self.observer is not None and attempt == state.attempt \
                    and state.status == "running":
                self.observer.absorb(payload,
                                     process_name=f"worker:{job_id}")
        elif kind == "result":
            if state.status in ("done", "degraded"):
                return  # duplicate from a stale attempt: same bytes
            from repro.fuzz.checkpoint import result_from_json

            result = result_from_json(payload)
            state.result = result
            state.status = "done"
            state.diag.campaign = result.diagnostics
            if self.observer is not None:
                self.observer.counter("fleet.jobs_done").inc()
                tracer = self.observer.tracer
                if tracer is not None:
                    tracer.complete(
                        f"job:{job_id}", state.span_start, cat="fleet",
                        args={"attempt": attempt, "execs": result.execs},
                    )
            diagnostics = result.diagnostics
            if diagnostics is not None and \
                    diagnostics.checkpoint_discarded and \
                    not state.discard_logged:
                state.discard_logged = True
                self._emit("checkpoint_discarded", job=job_id,
                           attempt=attempt,
                           reason=diagnostics.checkpoint_discarded)
            self._emit(
                "job_done", job=job_id, attempt=attempt,
                execs=result.execs, crashes=result.crashes,
                found=result.found_count(),
                census=result.census(),
                campaign_degraded=bool(diagnostics is not None
                                       and diagnostics.degraded),
            )
        elif kind == "failed":
            if state.status == "running" and attempt == state.attempt:
                # remember the structured cause; the exit-code path in
                # _check_liveness turns it into a death ruling
                state.death_cause = (
                    f"worker-error:{payload['exc_type']}: "
                    f"{payload['message']}"
                )
        elif kind == "checkpoint_sync":
            # a TCP worker shipping checkpoint custody home; persisting
            # it is what makes reassignment after a remote death resume
            # instead of restart.  The corpus bundle lands first so the
            # checkpoint's corpus_digests resolve against the store.
            if state.status == "running" and attempt == state.attempt:
                state.last_signal = now
                persisted = False
                rejected = None
                try:
                    bundle = payload.get("corpus")
                    if bundle and state.job.corpus_dir:
                        self._import_corpus(state, bundle, job_id)
                    ckpt = payload.get("state")
                    if ckpt is not None and state.job.checkpoint_path:
                        from repro.fuzz.checkpoint import (
                            write_checkpoint_state,
                        )

                        write_checkpoint_state(
                            state.job.checkpoint_path, ckpt)
                        persisted = True
                except (CheckpointError, CorpusError) as exc:
                    rejected = str(exc)
                if self.observer is not None:
                    self.observer.counter(
                        "fleet.transport.checkpoints_synced").inc()
                self._emit("checkpoint_synced", job=job_id,
                           attempt=attempt,
                           execs=(payload.get("state") or {}).get("execs"),
                           persisted=persisted, rejected=rejected)
        elif kind == "corpus_sync":
            # final corpus custody return from a TCP worker, sent just
            # before its result
            if state.status == "running" and attempt == state.attempt:
                state.last_signal = now
                added = None
                rejected = None
                try:
                    bundle = payload.get("bundle")
                    if bundle and state.job.corpus_dir:
                        added = self._import_corpus(state, bundle, job_id)
                except CorpusError as exc:
                    rejected = str(exc)
                self._emit("corpus_received", job=job_id, attempt=attempt,
                           entries=added, rejected=rejected)

    def _import_corpus(self, state: _JobState, bundle: dict,
                       job_id: str) -> int:
        from repro.corpus import CorpusStore

        store = CorpusStore(state.job.corpus_dir,
                            firmware=state.job.spec.firmware)
        added = store.import_bundle_obj(bundle, source=f"worker:{job_id}")
        if self.observer is not None and added:
            self.observer.counter(
                "fleet.transport.corpus_entries").inc(added)
        return added

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def _check_liveness(self, states: List[_JobState]) -> None:
        now = time.monotonic()
        by_id = {state.job.job_id: state for state in states}
        for state in states:
            handle = state.handle
            if handle is None:
                continue
            if state.status in ("done", "degraded"):
                if not handle.alive() or state.status == "degraded":
                    state.drop_handle()
                continue
            if not handle.alive():
                # dead worker: grant a short grace for its terminal
                # message (result/failed) still draining the channel —
                # except abrupt deaths (signal kills, TCP disconnects),
                # which can never have sent one
                if state.dead_since is None:
                    state.dead_since = now
                terminal_known = state.death_cause is not None
                grace_over = now - state.dead_since > _DRAIN_GRACE
                if terminal_known or handle.abrupt() or grace_over:
                    # final drain before ruling: a message routed in the
                    # instant the channel died (a checkpoint_sync racing
                    # its own disconnect) is durable progress that must
                    # not be dropped with the handle
                    for message in handle.poll():
                        self._handle(by_id, message)
                    if state.status in ("done", "degraded"):
                        state.drop_handle()
                        continue
                    cause = state.death_cause or handle.exit_cause()
                    state.drop_handle()
                    self._on_death(state, cause)
            elif now - state.last_signal > self.heartbeat_timeout:
                # heartbeat silence: the worker is schedulable-dead
                # (SIGSTOP, swap thrash, runaway C loop) or its frames
                # are not arriving; kill/disconnect it hard
                handle.kill()
                state.drop_handle()
                self._on_death(
                    state,
                    f"heartbeat-timeout:{self.heartbeat_timeout}s",
                )

    def _on_death(self, state: _JobState, cause: str) -> None:
        state.dead_since = None
        state.death_cause = None
        observer = self.observer
        if observer is not None:
            observer.counter("fleet.worker_deaths").inc()
            if observer.tracer is not None:
                observer.tracer.complete(
                    f"job:{state.job.job_id}", state.span_start,
                    cat="fleet",
                    args={"attempt": state.attempt, "died": cause},
                )
        if state.attempt > self.max_retries:
            state.status = "degraded"
            state.diag.degraded = True
            state.diag.degraded_cause = cause
            if observer is not None:
                observer.counter("fleet.jobs_degraded").inc()
            self._emit("job_degraded", job=state.job.job_id,
                       attempts=state.attempt, cause=cause)
            return
        backoff = (self.backoff_base
                   * DEFAULT_BACKOFF_FACTOR ** (state.attempt - 1))
        state.status = "waiting"
        state.not_before = time.monotonic() + backoff
        state.diag.restarts.append({
            "attempt": state.attempt,
            "cause": cause,
            "backoff": round(backoff, 3),
        })
        self._emit("worker_died", job=state.job.job_id,
                   attempt=state.attempt, cause=cause,
                   backoff=round(backoff, 3))

    # ------------------------------------------------------------------
    #: events whose loss would blind a postmortem: fsync the JSONL log
    #: after these so a supervisor crash cannot truncate the verdicts
    _DURABLE_EVENTS = frozenset({"job_degraded", "job_done", "fleet_done",
                                 "fleet_interrupted"})

    def _emit(self, event: str, **fields) -> None:
        record = {"ts": round(time.time(), 6), "event": event, **fields}
        self._events.append(record)
        if self._events_fh is not None:
            self._events_fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._events_fh.flush()
            if event in self._DURABLE_EVENTS:
                os.fsync(self._events_fh.fileno())
        if self.on_event is not None:
            self.on_event(record)


# ----------------------------------------------------------------------
# the one job builder, shard rounds and the per-firmware merge
# ----------------------------------------------------------------------
def make_jobs(
    template: CampaignSpec,
    firmware: Optional[Sequence[str]] = None,
    checkpoint_dir: Optional[str] = None,
    shards: int = 0,
    corpus_dir: Optional[str] = None,
) -> List[CampaignJob]:
    """The jobs that run ``template``, one per firmware or per shard.

    The firmware set is ``firmware``, else the template's own firmware,
    else (a :data:`~repro.fuzz.spec.CATALOG` template) every Table-1
    entry — with ``surface="driver"``, only those that model
    peripherals (have a ``driver_factory``).  An explicit list is taken
    as-is: a member without a driver surface fails at build time.

    With ``checkpoint_dir`` each job checkpoints into its own file
    there, which is what it resumes from after a worker death or a
    rerun (repeated campaigns, ``seeds`` set, restart from scratch).

    ``shards=N`` fuzzes ONE firmware with N cooperating shard jobs:
    ``template.budget`` is the total, split evenly; shard ``i`` seeds
    its RNG with ``seed + i``, starts from its disjoint slice of the
    spec seed corpus, checkpoints into its own file and writes its own
    manifest segment of the shared store at ``corpus_dir``.
    ``template.checkpoint_every`` is the corpus-sync cadence in
    per-shard execs (0: one round, syncing only through the seed
    slices and the final merge); the supervisor runs shard jobs in
    rounds of that many execs.
    """
    from repro.firmware.registry import all_firmware, firmware_spec

    if firmware is not None:
        names = [firmware_spec(name).name for name in firmware]
    elif template.firmware != CATALOG:
        names = [firmware_spec(template.firmware).name]
    else:
        names = [
            spec.name for spec in all_firmware()
            if template.surface != "driver" or spec.driver_factory is not None
        ]
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)

    def _path(stem: str) -> Optional[str]:
        if checkpoint_dir is None or template.seeds is not None:
            return None
        return os.path.join(checkpoint_dir, stem.replace("/", "_") + ".json")

    if not shards:
        return [
            CampaignJob(job_id=name, spec=replace(template, firmware=name),
                        checkpoint_path=_path(f"campaign_{name}"))
            for name in names
        ]
    if shards < 1:
        raise FuzzerError(f"need >= 1 shard, got {shards}")
    if len(names) != 1:
        raise FuzzerError("shards fuzz exactly one firmware")
    if corpus_dir is None or checkpoint_dir is None:
        raise FuzzerError(
            "sharded jobs need corpus_dir (the sync medium) and "
            "checkpoint_dir (the resume medium)"
        )
    if template.budget < shards:
        raise FuzzerError(
            f"budget {template.budget} cannot be split across {shards} "
            f"shards"
        )
    name = names[0]
    per_shard = template.budget // shards
    return [
        CampaignJob(
            job_id=f"{name}#s{index}",
            spec=replace(template, firmware=name, seed=template.seed + index,
                         budget=per_shard,
                         checkpoint_every=template.checkpoint_every
                         or per_shard),
            checkpoint_path=_path(f"shard_{name}_{index:02d}"),
            corpus_dir=corpus_dir,
            shard=(index, shards),
        )
        for index in range(shards)
    ]


def _rounds(job: CampaignJob) -> int:
    """Sync rounds a job runs in: one, or one per cadence for a shard."""
    every = job.spec.checkpoint_every
    if job.shard is None or not every:
        return 1
    return -(-job.spec.budget // every)


def _round_job(job: CampaignJob, round_index: int) -> CampaignJob:
    """``job`` cut to the exec budget its ``round_index`` ends at.

    A shard checkpoints only at sync boundaries, so a kill mid-round
    resumes from the round start, where the import watermark sees the
    same store every uninterrupted run saw.
    """
    if _rounds(job) == 1:
        return job
    budget = min(job.spec.budget,
                 (round_index + 1) * job.spec.checkpoint_every)
    return replace(job, spec=replace(job.spec, budget=budget))


def _merge_shards(jobs: Sequence[CampaignJob],
                  results: Sequence[Optional[object]]) -> List[Optional[object]]:
    """One result per campaign: shard results fold per firmware."""
    import copy

    from repro.fuzz.campaign import merge_into

    merged: List[Optional[object]] = []
    slot = {}
    for job, result in zip(jobs, results):
        if job.shard is None:
            merged.append(result)
            continue
        key = job.spec.firmware
        if key not in slot:
            slot[key] = len(merged)
            merged.append(None)
        if result is None:
            continue
        into = merged[slot[key]]
        if into is None:
            # deep copy: callers keep the per-shard results alongside
            merged[slot[key]] = copy.deepcopy(result)
        else:
            merge_into(into, result)
            into.budget += result.budget
    return merged


def run_fleet(jobs: Sequence[CampaignJob], workers: int = 1,
              **supervisor_kwargs) -> FleetResult:
    """Run ``jobs`` under a :class:`FleetSupervisor` and return its result."""
    return FleetSupervisor(jobs, workers=workers, **supervisor_kwargs).run()
