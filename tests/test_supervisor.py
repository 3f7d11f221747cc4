"""Fleet supervisor failure matrix.

The tests drive :class:`repro.fuzz.supervisor.FleetSupervisor` in
this process and on real ``spawn`` worker processes, and assert the two
properties the fleet promises:

* **determinism** — the merged results are byte-identical to a
  sequential sweep regardless of worker count, interleaving, or how
  many times workers were killed mid-job, and
* **self-healing** — worker death (SIGKILL, hang, crash, corrupt
  checkpoint) is recovered by checkpoint-driven restart, degrading a
  job only after its retry budget and never stalling its siblings.

Failure injection uses the supervisor's ``on_event`` observation hook,
which sees every structured event as it is logged.  A SIGKILL landing
after a given checkpoint is a cell of ``tests/test_determinism.py``.
"""

import functools
import json
import os
import signal

import pytest

from repro.errors import CheckpointError, FuzzerError
from repro.fuzz.campaign import run_all_campaigns, run_campaign
from repro.fuzz.checkpoint import result_digest, result_to_json
from repro.fuzz.diagnostics import FleetDiagnostics
from repro.fuzz.spec import CampaignSpec
from repro.fuzz.supervisor import (
    CampaignJob,
    FleetSupervisor,
    make_jobs,
    run_fleet,
)
from repro.fuzz.transport import SpawnTransport
from tests.test_determinism import _armed_worker_main

#: small, fast firmware for fleet tests (tardis targets boot quickest)
FAST_FW = ("InfiniTime", "OpenHarmony-stm32f407")


def _jobs(budget=200, seed=1):
    return [
        CampaignJob(job_id=fw, spec=CampaignSpec(fw, budget=budget, seed=seed))
        for fw in FAST_FW
    ]


class _PidTracker:
    """Collect worker pids from job_started/job_resumed events."""

    def __init__(self):
        self.pids = {}

    def __call__(self, event):
        if event["event"] in ("job_started", "job_resumed"):
            self.pids[event["job"]] = event["pid"]


class TestFleetDeterminism:
    @pytest.fixture(scope="class")
    def sequential(self):
        return [run_campaign(fw, budget=200, seed=1) for fw in FAST_FW]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fleet_matches_sequential_bytes(self, sequential, workers):
        fleet = run_fleet(_jobs(), workers=workers, heartbeat_interval=0.2)
        assert not fleet.degraded
        assert [result_digest(r) for r in fleet.results] == [
            result_digest(r) for r in sequential
        ]

    def test_results_come_back_in_submission_order(self):
        # reverse the catalog order: results must follow job order, not
        # completion order
        jobs = list(reversed(_jobs()))
        fleet = run_fleet(jobs, workers=2, heartbeat_interval=0.2)
        assert [r.firmware for r in fleet.results] == [
            job.spec.firmware for job in jobs
        ]

    def test_run_all_campaigns_delegates_to_fleet(self):
        # every spec option the sequential sweep takes, the fleet takes
        for options in ({}, {"faults": "alloc:every=25"}):
            seq = run_all_campaigns(budget=60, seed=1, **options)
            par = run_all_campaigns(budget=60, seed=1, workers=2, **options)
            assert [result_digest(r) for r in par] == [
                result_digest(r) for r in seq
            ]

    def test_live_fault_plan_rejected_across_processes(self):
        from repro.emulator.faults import plan_for

        with pytest.raises(FuzzerError):
            run_all_campaigns(budget=10, workers=2,
                              fault_plan=plan_for("alloc:every=9", seed=1))


class TestWorkerDeath:
    def test_hung_worker_is_detected_and_restarted(self, tmp_path):
        fw = "InfiniTime"
        # checkpoint cadence is part of the deterministic trajectory, so
        # the reference runs with the same cadence (different file)
        reference = run_campaign(fw, budget=200, seed=1,
                                 checkpoint_path=str(tmp_path / "ref.json"),
                                 checkpoint_every=100)
        job = CampaignJob(
            job_id=fw,
            spec=CampaignSpec(fw, budget=200, seed=1, checkpoint_every=100),
            checkpoint_path=str(tmp_path / "cp.json"))
        tracker = _PidTracker()
        stopped = []

        def chaos(event):
            tracker(event)
            if not stopped and event["event"] == "heartbeat":
                stopped.append(True)
                # SIGSTOP: the process is alive but unschedulable — the
                # exact failure heartbeats exist to catch
                os.kill(tracker.pids[fw], signal.SIGSTOP)

        fleet = run_fleet([job], workers=1, heartbeat_interval=0.1,
                          heartbeat_timeout=0.6, backoff_base=0.05,
                          on_event=chaos, transport=SpawnTransport())
        assert stopped
        assert not fleet.degraded
        assert result_digest(fleet.results[0]) == result_digest(reference)
        diag = fleet.diagnostics.jobs[0]
        assert any(r["cause"].startswith("heartbeat-timeout")
                   for r in diag.restarts)

    def test_retry_exhaustion_degrades_without_stalling_siblings(self):
        good_fw = "InfiniTime"
        reference = run_campaign(good_fw, budget=200, seed=1)
        jobs = [
            CampaignJob(job_id="doomed",
                        spec=CampaignSpec("NoSuchFirmware", budget=50, seed=1)),
            CampaignJob(job_id=good_fw,
                        spec=CampaignSpec(good_fw, budget=200, seed=1)),
        ]
        fleet = run_fleet(jobs, workers=2, heartbeat_interval=0.1,
                          max_retries=2, backoff_base=0.01)
        assert fleet.degraded
        assert fleet.results[0] is None
        # the sibling finished normally and identically
        assert result_digest(fleet.results[1]) == result_digest(reference)
        doomed = fleet.diagnostics.job("doomed")
        assert doomed.degraded
        assert doomed.attempts == 3  # 1 initial + 2 retries
        assert doomed.degraded_cause.startswith("worker-error:")
        assert [e["job"] for e in fleet.events
                if e["event"] == "job_degraded"] == ["doomed"]

    def test_corrupted_checkpoint_restarts_clean(self, tmp_path):
        fw = "InfiniTime"
        reference = run_campaign(fw, budget=200, seed=1,
                                 checkpoint_path=str(tmp_path / "ref.json"),
                                 checkpoint_every=100)
        path = str(tmp_path / "cp.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"version": 1, "truncated mid-wri')
        job = CampaignJob(
            job_id=fw,
            spec=CampaignSpec(fw, budget=200, seed=1, checkpoint_every=100),
            checkpoint_path=path)
        fleet = run_fleet([job], workers=1, heartbeat_interval=0.2)
        assert not fleet.degraded
        # identical census/findings; only the diagnostics remember that
        # a corrupt file was discarded
        got = result_to_json(fleet.results[0])
        assert "corrupt" in got["diagnostics"]["checkpoint_discarded"]
        got["diagnostics"]["checkpoint_discarded"] = None
        assert (json.dumps(got, sort_keys=True)
                == json.dumps(result_to_json(reference), sort_keys=True))
        discarded = [e for e in fleet.events
                     if e["event"] == "checkpoint_discarded"]
        assert discarded and "corrupt" in discarded[0]["reason"]
        campaign_diag = fleet.diagnostics.jobs[0].campaign
        assert campaign_diag.checkpoint_discarded


class TestFleetDiagnostics:
    def test_interrupted_fleet_completes_no_job(self):
        def stop(event):
            if event["event"] == "job_started":
                supervisor.interrupt()

        supervisor = FleetSupervisor(_jobs(), workers=2,
                                     heartbeat_interval=0.2, on_event=stop)
        fleet = supervisor.run()
        assert fleet.interrupted and not fleet.degraded
        assert sorted(fleet.unfinished) == sorted(FAST_FW)
        assert fleet.diagnostics.summary() == "0/2 job(s) completed"
        assert fleet.events[-1]["event"] == "fleet_interrupted"
        assert fleet.events[-1]["completed"] == 0

    def test_shard_restart_survives_later_rounds(self, tmp_path, monkeypatch):
        # two shards of 500 execs syncing every 250: two rounds, and the
        # first shard to write its round-1 checkpoint is SIGKILLed
        jobs = make_jobs(
            CampaignSpec("InfiniTime", budget=1000, seed=1,
                         checkpoint_every=250),
            checkpoint_dir=str(tmp_path / "ck"), shards=2,
            corpus_dir=str(tmp_path / "corpus"))
        marker = str(tmp_path / "killed")
        monkeypatch.setattr(
            "repro.fuzz.worker.worker_main",
            functools.partial(_armed_worker_main, 250, marker))
        fleet = run_fleet(jobs, workers=2, heartbeat_interval=0.2,
                          backoff_base=0.05)
        assert not fleet.degraded and os.path.exists(marker)
        assert [e["round"] for e in fleet.events
                if e["event"] == "corpus_synced"] == [1, 2]
        diagnostics = fleet.diagnostics
        assert [r["cause"] for d in diagnostics.jobs
                for r in d.restarts] == ["signal:SIGKILL"]
        # two attempts in round 1 for the killed shard, one otherwise
        assert sorted(d.attempts for d in diagnostics.jobs) == [2, 3]
        for d in diagnostics.jobs:
            assert d.heartbeats == sum(
                1 for e in fleet.events
                if e["event"] == "heartbeat" and e["job"] == d.job_id)
        assert diagnostics.summary() == (
            "2/2 job(s) completed, 1 worker death(s) recovered")


class TestSupervisorPlumbing:
    def test_rejects_bad_fleet_shapes(self):
        jobs = _jobs()
        with pytest.raises(FuzzerError):
            FleetSupervisor(jobs, workers=0)
        with pytest.raises(FuzzerError):
            FleetSupervisor([])
        with pytest.raises(FuzzerError):
            FleetSupervisor([jobs[0], jobs[0]])

    def test_events_log_is_valid_jsonl(self, tmp_path):
        log = str(tmp_path / "events.jsonl")
        fleet = run_fleet(_jobs(budget=60), workers=2,
                          heartbeat_interval=0.2, events_path=log)
        lines = [json.loads(line)
                 for line in open(log, encoding="utf-8")]
        assert [r["event"] for r in lines] == [
            e["event"] for e in fleet.events
        ]
        assert lines[0]["event"] == "fleet_started"
        assert lines[-1]["event"] == "fleet_done"
        done = [r for r in lines if r["event"] == "job_done"]
        assert {r["job"] for r in done} == set(FAST_FW)

    def test_fleet_diagnostics_round_trip(self):
        fleet = run_fleet(_jobs(budget=60), workers=2,
                          heartbeat_interval=0.2)
        blob = json.dumps(fleet.diagnostics.to_json(), sort_keys=True)
        back = FleetDiagnostics.from_json(json.loads(blob))
        assert json.dumps(back.to_json(), sort_keys=True) == blob
        assert back.total_restarts() == fleet.diagnostics.total_restarts()
        assert "2/2 job(s) completed" in back.summary()

    def test_worker_checkpoint_peek_reports_corruption(self, tmp_path):
        # unit-level: the worker's pre-run peek surfaces the diagnosis
        from repro.fuzz.checkpoint import load_checkpoint

        path = str(tmp_path / "cp.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json at all")
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert path in str(info.value)
