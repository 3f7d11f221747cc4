"""Fleet worker: one campaign job inside an expendable process.

:func:`worker_main` is the ``spawn``-context entry point the
:mod:`repro.fuzz.supervisor` launches one process per job attempt;
:func:`run_attempt` is its body, shared with in-process runs.  The
worker's only side channel is the supervisor's event queue; everything
it sends is a plain JSON-encodable tuple

    (kind, job_id, attempt, payload)

so a message from a stale attempt (a worker the supervisor already
declared dead but whose queue writes were still in flight) can be
recognized and discarded.  Message kinds:

``started``
    Posted before fuzzing begins; carries the pid, the exec count the
    job resumed from (``None`` for a fresh start) and a diagnosis
    string when an existing checkpoint had to be discarded as corrupt.
``heartbeat``
    Posted every ``heartbeat_interval`` seconds by a daemon thread, the
    first one an interval after ``started``.  Its absence past the supervisor's liveness
    timeout is what declares this process hung.
``metrics``
    Sent only when the job payload's ``observe`` flag is set: the
    worker's :meth:`repro.obs.Observer.export` bundle (metrics
    document + raw trace events), posted immediately before ``result``
    so the supervisor merges a completed attempt exactly once.
``result``
    The completed campaign, serialized with
    :func:`repro.fuzz.checkpoint.result_to_json`.
``failed``
    An exception escaped the campaign; carries the type, message and a
    trimmed traceback.  The worker then exits nonzero.

The worker never retries anything itself: retry policy, backoff and
checkpoint-driven resume all belong to the supervisor, which simply
starts a fresh attempt — ``run_campaign`` finds the last checkpoint on
disk and continues from it.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from typing import Callable, Optional


def _liveness_loop(post, job_id: str, attempt: int, interval: float,
                   stop: threading.Event) -> None:
    """Post a heartbeat every ``interval`` seconds until stopped.

    Runs on a daemon thread, so a SIGSTOP/SIGKILL of the process (or a
    wedged interpreter) silences it — which is the point: heartbeats
    prove the *process* is schedulable, while in-guest hangs are the
    watchdog's job (see ``docs/robustness.md``).
    """
    start = time.monotonic()
    while not stop.wait(interval):
        post(("heartbeat", job_id, attempt, {
            "pid": os.getpid(),
            "elapsed": round(time.monotonic() - start, 3),
        }))


def run_attempt(job: dict, post: Callable[[tuple], None],
                heartbeat: bool = True,
                on_checkpoint_saved: Optional[Callable[[str], None]] = None,
                checkpoint_corrupt: Optional[str] = None) -> bool:
    """Run one job attempt, posting its message tuples; True if it failed.

    The body of a fleet worker wherever it runs: a spawn process
    (:func:`worker_main`), the supervisor's own thread
    (:class:`~repro.fuzz.transport.InlineTransport`, which passes
    ``heartbeat=False``: nothing polls while the job holds the thread)
    or a TCP worker (:func:`~repro.fuzz.transport.run_worker`), which
    passes ``on_checkpoint_saved`` to ship each checkpoint upstream and
    ``checkpoint_corrupt``, the supervisor's diagnosis of the
    checkpoint it sent, in which case the local copy is not read.
    """
    from repro.errors import CheckpointError
    from repro.fuzz.campaign import run_job
    from repro.fuzz.checkpoint import load_checkpoint, result_to_json
    from repro.fuzz.supervisor import CampaignJob

    job_id = job["job_id"]
    attempt = job.get("attempt", 1)
    stop = threading.Event()
    try:
        resumed_execs = None
        path = job.get("checkpoint_path")
        if path is not None and checkpoint_corrupt is None:
            try:
                state = load_checkpoint(path)
                if state is not None:
                    resumed_execs = state.get("execs")
            except CheckpointError as exc:
                # run_campaign will discard it the same way; surfacing
                # the diagnosis early lets the supervisor log the event
                # before the (budget-long) fresh run completes
                checkpoint_corrupt = str(exc)
        post(("started", job_id, attempt, {
            "pid": os.getpid(),
            "resumed_execs": resumed_execs,
            "checkpoint_corrupt": checkpoint_corrupt,
        }))
        if heartbeat:
            threading.Thread(
                target=_liveness_loop,
                args=(post, job_id, attempt,
                      job.get("heartbeat_interval", 1.0), stop),
                name=f"heartbeat-{job_id}",
                daemon=True,
            ).start()
        observer = None
        if job.get("observe"):
            # the supervisor holds an Observer: collect here and ship
            # the bundle back just before the result so the supervisor
            # can merge every worker into one fleet-wide document
            from repro.obs import Observer

            observer = Observer(process_name=f"worker:{job_id}")
        result = run_job(CampaignJob.from_payload(job), observer=observer,
                         on_checkpoint_saved=on_checkpoint_saved)
        stop.set()
        if observer is not None:
            post(("metrics", job_id, attempt, observer.export()))
        post(("result", job_id, attempt, result_to_json(result)))
        return False
    except Exception as exc:  # report, then die loudly
        post(("failed", job_id, attempt, {
            "pid": os.getpid(),
            "exc_type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(limit=20),
        }))
        return True
    finally:
        stop.set()


def worker_main(job: dict, events) -> None:
    """Process entry point: run one job attempt, report, exit."""
    try:
        failed = run_attempt(job, events.put)
    finally:
        # flush the queue's feeder thread before the process exits so
        # the terminal message is never lost to a fast shutdown
        events.close()
        events.join_thread()
    if failed:
        sys.exit(1)
