"""The always-on fuzzing service: WAL queue durability + the daemon.

Contract under test (``docs/serve.md``): the job queue survives a
``kill -9`` at any point (fsync'd submissions and terminal records,
torn-tail tolerance, snapshot compaction), leases requeue when their
owner dies, a drained daemon exits 0 and a restarted one resumes every
job from its checkpoint to **byte-identical** results, poisoned jobs
quarantine instead of wedging the service, and admission control
rejects with an explicit ``retry_after`` instead of queueing without
bound.
"""

import json
import os
import threading
import time

import pytest

from repro.errors import AdmissionError, FuzzerError, QueueError
from repro.fuzz.campaign import run_campaign
from repro.fuzz.checkpoint import result_to_json
from repro.fuzz.queue import (
    DONE,
    QUARANTINED,
    QUEUED,
    RUNNING,
    JobQueue,
)
from repro.fuzz.serve import (
    FuzzService,
    ServeClient,
    normalized_findings,
    parse_address,
)
from repro.fuzz.spec import CampaignSpec

FW = "InfiniTime"
FW2 = "OpenHarmony-stm32f407"


def _spec(firmware=FW, budget=150, **kw):
    spec = {"firmware": firmware, "budget": budget, "seed": 1}
    spec.update(kw)
    return spec


def _result_bytes(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# WAL-backed queue
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_submit_lease_complete_round_trip(self, tmp_path):
        q = JobQueue(str(tmp_path / "q"))
        job, deduped = q.submit(_spec(), dedup_key="k")
        assert (job.state, deduped) == (QUEUED, False)
        leased = q.lease("owner-1")
        assert leased.job_id == job.job_id
        assert leased.state == RUNNING and leased.attempts == 1
        q.complete(job.job_id, {"execs": 1})
        assert q.get(job.job_id).state == DONE
        q.close()

    def test_dedup_key_is_idempotent_across_states(self, tmp_path):
        q = JobQueue(str(tmp_path / "q"))
        job, _ = q.submit(_spec(), dedup_key="k")
        again, deduped = q.submit(_spec(), dedup_key="k")
        assert deduped and again.job_id == job.job_id
        q.lease("o")
        q.complete(job.job_id, {"execs": 1})
        # even terminal jobs dedup: the client gets the original result
        done, deduped = q.submit(_spec(), dedup_key="k")
        assert deduped and done.state == DONE
        q.close()

    def test_bounded_queue_rejects_with_retry_after(self, tmp_path):
        q = JobQueue(str(tmp_path / "q"), max_pending=2, retry_after=7.5)
        q.submit(_spec())
        q.submit(_spec())
        with pytest.raises(AdmissionError) as exc:
            q.submit(_spec())
        assert exc.value.reason == "queue-full"
        assert exc.value.retry_after == 7.5
        # a terminal job frees its slot
        q.lease("o")
        q.complete("job-000001", {})
        q.submit(_spec())
        q.close()

    def test_replay_after_hard_kill_loses_nothing(self, tmp_path):
        root = str(tmp_path / "q")
        q = JobQueue(root)
        a, _ = q.submit(_spec(), dedup_key="a")
        b, _ = q.submit(_spec(firmware=FW2), dedup_key="b")
        q.lease("o")
        q.complete(a.job_id, {"execs": 42})
        q.lease("o")
        # kill -9: no close(), no flush — the file object just vanishes
        del q
        q2 = JobQueue(root)
        assert q2.get(a.job_id).state == DONE
        assert q2.get(a.job_id).result == {"execs": 42}
        # the leased-but-unfinished job was requeued, attempt preserved
        assert q2.recovered_leases == [b.job_id]
        recovered = q2.get(b.job_id)
        assert recovered.state == QUEUED and recovered.attempts == 1
        assert "daemon-crash" in recovered.requeues
        # dedup map survives replay
        again, deduped = q2.submit(_spec(), dedup_key="a")
        assert deduped and again.job_id == a.job_id
        q2.close()

    def test_torn_tail_record_is_dropped_and_truncated(self, tmp_path):
        root = str(tmp_path / "q")
        q = JobQueue(root)
        q.submit(_spec(), dedup_key="a")
        q.close()
        wal = os.path.join(root, "wal.jsonl")
        with open(wal, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 99, "record": "done", "jo')  # torn append
        q2 = JobQueue(root)
        assert q2.get("job-000001").state == QUEUED
        # the fragment was truncated so new appends stay parseable
        q2.submit(_spec(firmware=FW2), dedup_key="b")
        q2.close()
        q3 = JobQueue(root)
        assert q3.get("job-000002").state == QUEUED
        q3.close()

    def test_corrupt_newline_terminated_tail_is_torn(self, tmp_path):
        """A garbage *final* line is tolerated even with its newline.

        Size-before-data journaling can land a complete line of
        garbage at the tail; like the newline-less fragment above it
        is dropped and physically truncated, not a startup refusal.
        """
        root = str(tmp_path / "q")
        q = JobQueue(root)
        q.submit(_spec(), dedup_key="a")
        q.close()
        wal = os.path.join(root, "wal.jsonl")
        with open(wal, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 99, "record": "done", "garba\n')
        q2 = JobQueue(root)
        assert q2.get("job-000001").state == QUEUED
        # the corrupt line was truncated away, not merely skipped
        with open(wal, "rb") as fh:
            assert b"garba" not in fh.read()
        q2.submit(_spec(firmware=FW2), dedup_key="b")
        q2.close()
        q3 = JobQueue(root)
        assert q3.get("job-000002").state == QUEUED
        q3.close()

    def test_mid_log_corruption_is_a_queue_error(self, tmp_path):
        root = str(tmp_path / "q")
        q = JobQueue(root)
        q.submit(_spec())
        q.submit(_spec())
        q.close()
        wal = os.path.join(root, "wal.jsonl")
        lines = open(wal, encoding="utf-8").read().splitlines()
        lines[0] = lines[0][:10]  # corrupt a NON-tail record
        with open(wal, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(QueueError):
            JobQueue(root)

    def test_snapshot_compaction_bounds_the_wal(self, tmp_path):
        root = str(tmp_path / "q")
        q = JobQueue(root, snapshot_every=4)
        for i in range(4):
            q.submit(_spec(), dedup_key=f"k{i}")
        assert os.path.exists(os.path.join(root, "snapshot.json"))
        assert os.path.getsize(os.path.join(root, "wal.jsonl")) == 0
        q.lease("o")
        q.complete("job-000001", {"execs": 9})
        q.close()
        q2 = JobQueue(root, snapshot_every=4)
        assert q2.get("job-000001").state == DONE
        assert q2.get("job-000004").state == QUEUED
        # job numbering continues after the snapshot
        fresh, _ = q2.submit(_spec())
        assert fresh.job_id == "job-000005"
        q2.close()

    def test_fail_requeues_until_quarantine(self, tmp_path):
        q = JobQueue(str(tmp_path / "q"), max_attempts=2)
        job, _ = q.submit(_spec())
        q.lease("o")
        q.fail(job.job_id, "boom")
        assert q.get(job.job_id).state == QUEUED
        q.lease("o")
        q.fail(job.job_id, "boom again")
        assert q.get(job.job_id).state == QUARANTINED
        assert "boom again" in q.get(job.job_id).error
        assert q.lease("o") is None
        q.close()

    def test_drain_requeue_refunds_the_attempt(self, tmp_path):
        q = JobQueue(str(tmp_path / "q"), max_attempts=1)
        job, _ = q.submit(_spec())
        q.lease("o")
        q.requeue(job.job_id, "drain", counted=False)
        assert q.get(job.job_id).attempts == 0
        # with the refund, the single-attempt budget still admits a run
        assert q.lease("o").job_id == job.job_id
        q.close()

    def test_cancel_queued_job_and_refuse_terminal(self, tmp_path):
        q = JobQueue(str(tmp_path / "q"))
        job, _ = q.submit(_spec())
        q.cancel(job.job_id)
        assert q.get(job.job_id).state == "cancelled"
        with pytest.raises(QueueError):
            q.cancel(job.job_id)
        assert q.lease("o") is None
        q.close()

    def test_terminal_records_are_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        q = JobQueue(str(tmp_path / "q"))
        before = len(synced)
        q.submit(_spec())
        assert len(synced) > before  # submission is durable on return
        q.lease("o")
        before = len(synced)
        q.complete("job-000001", {})
        assert len(synced) > before  # terminal record is durable
        q.close()


# ----------------------------------------------------------------------
# spec validation + findings contract
# ----------------------------------------------------------------------
class TestContracts:
    def test_validate_spec_shape(self):
        # admission is CampaignSpec.from_json: types and value domains
        # are checked, the firmware name only syntactically
        assert CampaignSpec.from_json(_spec()).firmware == FW
        assert CampaignSpec.from_json(_spec(firmware="no-such-fw"))
        for bad in (
            "nope",
            {"budget": 10},
            _spec(budget=0),
            _spec(bogus_knob=1),
            _spec(engine="bogus"),
            _spec(engine="tcg" + "-interp"),  # the deleted tier
            _spec(exec_mode="nope"),
            _spec(seed="x"),
            _spec(sanitizers="kasan"),
            _spec(sanitizers=["kasan", "ubsan"]),
            _spec(jit_threshold=-5),
            _spec(watchdog_insns=-1),
            _spec(faults="nonsense:every=1"),
            _spec(firmware=""),
            _spec(budget=True),
            _spec(seed=1.5),
            _spec(seeds=[]),
            _spec(seeds=["1"]),
            _spec(crash_budget=-1),
            _spec(watchdog_cycles=-0.5),
            _spec(checkpoint_every=-10),
            _spec(faults=""),
            _spec(seed_schedule="lifo"),
            _spec(jit_threshold=0),
        ):
            with pytest.raises(FuzzerError):
                CampaignSpec.from_json(bad)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7400") == ("127.0.0.1", 7400)
        with pytest.raises(FuzzerError):
            parse_address("7400")
        with pytest.raises(FuzzerError):
            parse_address("host:port")

    def test_normalized_findings_attribute_catalog_rows(self):
        payload = result_to_json(run_campaign(FW, budget=150, seed=1))
        records = normalized_findings(payload)
        assert len(records) == len(payload["findings"])
        matched_keys = {tuple(k) for k in payload["matched"].values()}
        for record in records:
            assert record["firmware"] == FW
            assert set(record) == {
                "firmware", "fuzzer", "bug_id", "key", "tool",
                "bug_type", "location", "pc", "addr", "task",
                "detail", "seed", "reproducible",
            }
            if tuple(record["key"]) in matched_keys:
                assert record["bug_id"] is not None


# ----------------------------------------------------------------------
# the daemon, in process
# ----------------------------------------------------------------------
class TestFuzzService:
    @pytest.fixture()
    def service(self, tmp_path):
        svc = FuzzService(str(tmp_path / "state"), port=0, max_running=2)
        svc.start()
        yield svc
        svc.close()

    def _client(self, svc, **kw):
        return ServeClient(svc.host, svc.port, **kw)

    def test_submit_run_results_byte_identical_to_sequential(
            self, service, tmp_path):
        ref = result_to_json(run_campaign(
            FW, budget=150, seed=1,
            checkpoint_path=str(tmp_path / "ref.json"),
            checkpoint_every=50,
        ))
        with self._client(service) as client:
            reply = client.submit(_spec(checkpoint_every=50), "k1")
            assert reply["type"] == "submitted"
            final = client.wait(reply["job"], timeout=240.0)
        assert final["state"] == DONE
        assert _result_bytes(final["result"]) == _result_bytes(ref)
        assert final["findings"] == normalized_findings(ref)

    def test_dedup_and_status_and_metrics(self, service):
        with self._client(service) as client:
            first = client.submit(_spec(), "dup")
            again = client.submit(_spec(), "dup")
            assert again["deduped"] and again["job"] == first["job"]
            status = client.status()
            assert any(j["job_id"] == first["job"] for j in status["jobs"])
            assert not status["draining"]
            metrics = client.metrics()
            assert sum(metrics["queue"].values()) == 1
            client.wait(first["job"], timeout=240.0)

    def test_queue_full_rejection_carries_retry_after(self, tmp_path):
        svc = FuzzService(str(tmp_path / "s"), port=0, max_running=1,
                          max_pending=1, retry_after=3.25)
        svc.start()
        try:
            with self._client(svc) as client:
                client.submit(_spec(budget=2000), "a")
                reply = client.submit(_spec(budget=2000), "b")
                assert reply["type"] == "rejected"
                assert reply["reason"] == "queue-full"
                assert reply["retry_after"] == 3.25
                # idempotent resubmission of an ADMITTED job is not
                # backpressured: the dedup hit bypasses admission
                again = client.submit(_spec(budget=2000), "a")
                assert again["type"] == "submitted" and again["deduped"]
        finally:
            svc.close()

    def test_cancel_queued_job(self, tmp_path):
        svc = FuzzService(str(tmp_path / "s"), port=0, max_running=1)
        svc.start()
        try:
            with self._client(svc) as client:
                running = client.submit(_spec(budget=2000), "run")
                queued = client.submit(_spec(budget=2000), "queued")
                reply = client.cancel(queued["job"])
                assert reply["type"] == "ok"
                final = client.wait(queued["job"], timeout=30.0)
                assert final["state"] == "cancelled"
                assert client.cancel(running["job"])["type"] == "ok"
        finally:
            svc.close()

    def test_poisoned_job_quarantines_service_survives(self, tmp_path):
        svc = FuzzService(str(tmp_path / "s"), port=0, max_running=2,
                          max_attempts=2, max_retries=0,
                          backoff_base=0.05)
        svc.start()
        try:
            with self._client(svc) as client:
                poison = client.submit(_spec(firmware="no-such-fw"), "p")
                healthy = client.submit(_spec(), "h")
                bad = client.wait(poison["job"], timeout=120.0)
                assert bad["state"] == QUARANTINED
                assert "crash budget exhausted" in bad["error"]
                good = client.wait(healthy["job"], timeout=240.0)
                assert good["state"] == DONE
        finally:
            svc.close()

    def test_auth_token_is_enforced(self, tmp_path):
        from repro.errors import TransportError

        svc = FuzzService(str(tmp_path / "s"), port=0, token="sekrit")
        svc.start()
        try:
            with pytest.raises(TransportError):
                ServeClient(svc.host, svc.port, token="wrong")
            with self._client(svc, token="sekrit") as client:
                assert client.status()["type"] == "status"
        finally:
            svc.close()

    def test_watch_streams_job_lifecycle(self, service):
        with self._client(service) as client:
            job = client.submit(_spec(), "w")["job"]
        with self._client(service) as watcher:
            events = watcher.watch(job, timeout=240.0)
        kinds = [e["event"] for e in events]
        assert kinds and kinds[-1] == DONE

    def test_drain_requeues_and_restart_resumes_identical(self, tmp_path):
        """The graceful half of the recovery matrix, in process."""
        state = str(tmp_path / "state")
        ref = result_to_json(run_campaign(
            FW, budget=600, seed=1,
            checkpoint_path=str(tmp_path / "ref.json"),
            checkpoint_every=100,
        ))
        svc = FuzzService(state, port=0, max_running=1)
        svc.start()
        with self._client(svc) as client:
            job = client.submit(
                _spec(budget=600, checkpoint_every=100), "d")["job"]
            # wait for the first checkpoint, then drain mid-campaign
            ck = os.path.join(state, "checkpoints", job, f"campaign_{FW}.json")
            deadline = time.monotonic() + 120
            while not os.path.exists(ck):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            client.drain()
        svc.serve_forever()  # returns once drained
        requeued = svc.queue.get(job)
        assert requeued.state == QUEUED
        assert "drain" in requeued.requeues
        assert requeued.attempts == 0  # drain refunded the attempt

        svc2 = FuzzService(state, port=0, max_running=1)
        svc2.start()
        try:
            with ServeClient(svc2.host, svc2.port) as client:
                final = client.wait(job, timeout=240.0)
            assert final["state"] == DONE
            assert _result_bytes(final["result"]) == _result_bytes(ref)
        finally:
            svc2.close()

    def test_max_running_bounds_inflight_leases(self, tmp_path, monkeypatch):
        """max_running must gate *leases*, not registered supervisors.

        A runner registers in ``_running`` only after constructing its
        supervisor; gating on that map let back-to-back leases start
        arbitrarily many concurrent jobs.  With runners parked on a
        gate, a max_running=1 service must hold the other jobs queued.
        """
        import repro.fuzz.serve as serve_mod

        release = threading.Event()
        state = {"live": 0, "peak": 0}
        mx = threading.Lock()

        class _GatedSupervisor:
            def __init__(self, jobs, **kw):
                pass

            def interrupt(self):
                release.set()

            def run(self):
                with mx:
                    state["live"] += 1
                    state["peak"] = max(state["peak"], state["live"])
                release.wait(30.0)
                with mx:
                    state["live"] -= 1

                class _Fleet:
                    results = [{"sentinel": True}]
                    interrupted = False

                return _Fleet()

        monkeypatch.setattr(serve_mod, "FleetSupervisor", _GatedSupervisor)
        monkeypatch.setattr(serve_mod, "result_to_json", lambda r: r)
        svc = FuzzService(str(tmp_path / "s"), port=0, max_running=1)
        svc.start()
        try:
            for i in range(3):
                svc.queue.submit(_spec(), dedup_key=f"k{i}")
            deadline = time.monotonic() + 10
            while state["peak"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.5)  # give a buggy scheduler room to over-lease
            counts = svc.queue.counts()
            assert counts.get(RUNNING, 0) == 1
            assert counts.get(QUEUED, 0) == 2
            release.set()
            deadline = time.monotonic() + 30
            while svc.queue.counts().get(DONE, 0) < 3:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert state["peak"] == 1
        finally:
            release.set()
            svc.close()

    def test_drain_racing_runner_start_requeues_without_deadlock(
            self, tmp_path, monkeypatch):
        """Drain arriving while a supervisor is being built must not wedge.

        The runner requeues the lease when drain wins the race; that
        WAL append publishes to watchers, which once re-acquired the
        service lock the runner was still holding — a self-deadlock
        that turned graceful drain into a hang.
        """
        import repro.fuzz.serve as serve_mod

        building = threading.Event()
        release = threading.Event()

        class _SlowBuildSupervisor:
            def __init__(self, jobs, **kw):
                building.set()
                release.wait(30.0)

            def interrupt(self):
                pass

            def run(self):
                raise AssertionError("drain won the race: must requeue")

        monkeypatch.setattr(serve_mod, "FleetSupervisor",
                            _SlowBuildSupervisor)
        svc = FuzzService(str(tmp_path / "s"), port=0, max_running=1)
        svc.start()
        try:
            job, _ = svc.queue.submit(_spec(), dedup_key="race")
            assert building.wait(10.0)
            svc.drain(cause="test")  # admissions close mid-construction
            release.set()            # runner now observes the drain
            assert svc._stopped.wait(15.0), "drain deadlocked"
            requeued = svc.queue.get(job.job_id)
            assert requeued.state == QUEUED
            assert "drain" in requeued.requeues
            assert requeued.attempts == 0  # lease handed back uncounted
        finally:
            release.set()
            # a deadlocked runner holds the queue lock; close() would
            # hang on it, so only tear down after a clean stop — the
            # daemon threads die with the process otherwise
            if svc._stopped.is_set():
                svc.close()

    def test_wait_timeout_raises_fuzzer_error(self, service):
        # an already-elapsed deadline must not NameError on `reply`
        with self._client(service) as client:
            with pytest.raises(FuzzerError, match="still"):
                client.wait("job-000001", timeout=0.0)

    def test_draining_service_rejects_new_submissions(self, tmp_path):
        svc = FuzzService(str(tmp_path / "s"), port=0)
        svc.start()
        try:
            with self._client(svc) as client:
                # flip the admission gate without racing the shutdown
                # (the full drain path is covered above)
                svc._draining.set()
                reply = client.submit(_spec(), "late")
                assert reply["type"] == "rejected"
                assert reply["reason"] == "draining"
                assert reply["retry_after"] > 0
        finally:
            svc.close()
