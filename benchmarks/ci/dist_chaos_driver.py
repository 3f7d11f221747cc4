"""Distributed chaos driver: SIGKILL a TCP worker mid-job, re-verify.

Invoked by the ``distributed-smoke`` CI job (and runnable locally)
after a sequential reference sweep has written ``seq_results.json``::

    PYTHONPATH=src python benchmarks/ci/dist_chaos_driver.py

The driver must be a real file: spawn-fallback workers re-import
``__main__``, which fails for stdin scripts.
"""

import json
import subprocess
import sys

from repro.fuzz.checkpoint import result_to_json
from repro.fuzz.spec import CampaignSpec
from repro.fuzz.supervisor import CampaignJob, run_fleet
from repro.fuzz.transport import TcpJsonlTransport

FW = "OpenHarmony-stm32f407"


def main():
    transport = TcpJsonlTransport(host="127.0.0.1", port=0,
                                  spawn_fallback=True)
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", f"127.0.0.1:{transport.port}",
         "--name", "victim", "--max-reconnects", "0"],
    )
    assert transport.wait_for_workers(1, timeout=60), \
        "remote worker never connected"
    killed = []

    def chaos(event):
        # SIGKILL the remote worker process the moment it has durably
        # synced checkpointed progress home, so the reassigned attempt
        # must resume, not restart
        if killed or event["event"] != "checkpoint_synced":
            return
        if event["persisted"] and (event["execs"] or 0) >= 500:
            killed.append(True)
            worker.kill()

    job = CampaignJob(job_id=FW,
                      spec=CampaignSpec(FW, budget=1500, seed=1,
                                        checkpoint_every=500),
                      checkpoint_path="dist_chaos_cp.json")
    try:
        fleet = run_fleet([job], workers=1, heartbeat_interval=0.2,
                          backoff_base=0.1, on_event=chaos,
                          transport=transport,
                          events_path="dist_chaos_events.jsonl")
    finally:
        transport.close()
        worker.wait(timeout=60)
    assert killed, "chaos hook never fired"
    assert not fleet.degraded
    diag = fleet.diagnostics.jobs[0]
    assert diag.attempts >= 2, "dead TCP worker not reassigned"
    assert any(r["cause"].startswith("remote-disconnect")
               for r in diag.restarts), diag.restarts
    resumed = [e for e in fleet.events if e["event"] == "job_resumed"]
    assert resumed and resumed[0]["from_checkpoint"]
    got = json.dumps(result_to_json(fleet.results[0]), sort_keys=True)
    ref = json.dumps(json.load(open("seq_results.json"))[1],
                     sort_keys=True)
    assert got == ref, \
        "post-kill resumed TCP job diverged from sequential"
    with open("dist_chaos_diagnostics.json", "w") as fh:
        json.dump(fleet.diagnostics.to_json(), fh, indent=2)
    print("TCP worker SIGKILL mid-job recovered;",
          fleet.diagnostics.summary())


if __name__ == "__main__":
    main()
