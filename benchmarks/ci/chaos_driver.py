"""Fleet chaos driver: SIGKILL a worker mid-run, resume, re-verify.

Invoked by the ``fleet-smoke`` CI job (and runnable locally) after a
sequential reference sweep has written ``seq_results.json``::

    PYTHONPATH=src python benchmarks/ci/chaos_driver.py

The driver must be a real file: spawn-context workers re-import
``__main__``, which fails for stdin scripts.
"""

import json
import os
import signal

from repro.fuzz.spec import CampaignSpec
from repro.fuzz.supervisor import CampaignJob, run_fleet

FIRMWARE = ["InfiniTime", "OpenHarmony-stm32f407"]


def main():
    jobs = [
        CampaignJob(job_id=fw,
                    spec=CampaignSpec(fw, budget=1500, seed=1,
                                      checkpoint_every=500),
                    checkpoint_path=f"chaos_{i}.json")
        for i, fw in enumerate(FIRMWARE)
    ]
    pids, killed = {}, []

    def chaos(event):
        if event["event"] in ("job_started", "job_resumed"):
            pids[event["job"]] = event["pid"]
        # SIGKILL the first worker once it has durably checkpointed
        # progress, so the restart must resume
        if killed or event["event"] != "heartbeat":
            return
        path = "chaos_0.json"
        if not os.path.exists(path):
            return
        state = json.load(open(path))
        if state.get("execs", 0) >= 500:
            killed.append(True)
            os.kill(pids[FIRMWARE[0]], signal.SIGKILL)

    fleet = run_fleet(jobs, workers=2, heartbeat_interval=0.2,
                      backoff_base=0.1, on_event=chaos,
                      events_path="chaos_events.jsonl")
    assert killed, "chaos hook never fired"
    assert not fleet.degraded
    diag = fleet.diagnostics.job(FIRMWARE[0])
    assert diag.attempts >= 2, "killed worker was not restarted"
    assert any(r["cause"] == "signal:SIGKILL" for r in diag.restarts)
    resumed = [e for e in fleet.events if e["event"] == "job_resumed"]
    assert resumed and resumed[0]["from_checkpoint"]

    from repro.fuzz.checkpoint import result_to_json
    got = [result_to_json(r) for r in fleet.results]
    ref = json.load(open("seq_results.json"))
    assert json.dumps(got, sort_keys=True) == \
        json.dumps(ref, sort_keys=True), \
        "post-SIGKILL resumed sweep diverged from sequential"
    with open("chaos_diagnostics.json", "w") as fh:
        json.dump(fleet.diagnostics.to_json(), fh, indent=2)
    print("SIGKILL mid-run recovered;", fleet.diagnostics.summary())


if __name__ == "__main__":
    main()
