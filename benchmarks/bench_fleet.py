"""Fleet supervision benchmark: sweep wall-clock vs worker count.

Runs the same multi-firmware campaign sweep sequentially and under the
:mod:`repro.fuzz.supervisor` fleet at 1, 2, and 4 workers, recording
wall-clock per configuration and verifying the determinism contract —
every configuration's merged results are byte-identical to the
sequential sweep's.

Parallel speedup requires parallel hardware: the >= 1.5x floor at 4
workers is asserted only when the host exposes >= 2 CPUs (the CI
runner does; a single-core container cannot speed anything up, and the
recorded numbers say so honestly via the ``cpus`` field).  The
byte-identity check is asserted unconditionally — determinism does not
depend on core count.

Run as a script to (re)generate the committed artifact::

    PYTHONPATH=src python benchmarks/bench_fleet.py [out.json]

writes ``BENCH_fleet.json`` (default) with per-worker-count wall-clock
so future PRs have a scaling trajectory; CI uploads it per run.
"""

import json
import os
import sys
import time

#: acceptance floor (ISSUE 3): 4-worker sweep vs sequential, given cores
MIN_SPEEDUP_4W = 1.5
#: worker counts swept
WORKER_COUNTS = (1, 2, 4)
#: per-firmware budget: long enough that campaign time dominates the
#: ~1s spawn cost of each worker interpreter
BUDGET = 1500
SEED = 1
#: fast-booting tardis targets; 4 jobs give 4 workers real parallelism
FIRMWARE = (
    "InfiniTime",
    "OpenHarmony-stm32f407",
    "OpenHarmony-stm32mp1",
    "OpenHarmony-rk3566",
)


def _result_bytes(result) -> str:
    from repro.fuzz.checkpoint import result_to_json

    return json.dumps(result_to_json(result), sort_keys=True)


def profile_fleet() -> dict:
    from repro.fuzz.campaign import run_campaign
    from repro.fuzz.spec import CampaignSpec
    from repro.fuzz.supervisor import CampaignJob, run_fleet

    start = time.perf_counter()
    sequential = [run_campaign(fw, budget=BUDGET, seed=SEED)
                  for fw in FIRMWARE]
    t_seq = time.perf_counter() - start
    reference = [_result_bytes(r) for r in sequential]

    jobs = [CampaignJob(job_id=fw,
                        spec=CampaignSpec(fw, budget=BUDGET, seed=SEED))
            for fw in FIRMWARE]
    results = {
        "cpus": os.cpu_count(),
        "budget": BUDGET,
        "firmware": list(FIRMWARE),
        "sequential_s": round(t_seq, 3),
        "workers": {},
    }
    for workers in WORKER_COUNTS:
        start = time.perf_counter()
        fleet = run_fleet(jobs, workers=workers)
        elapsed = time.perf_counter() - start
        identical = [_result_bytes(r) for r in fleet.results] == reference
        results["workers"][str(workers)] = {
            "wall_s": round(elapsed, 3),
            "speedup": round(t_seq / elapsed, 3),
            "identical": identical,
            "degraded": fleet.degraded,
            "restarts": fleet.diagnostics.total_restarts(),
            "heartbeats": sum(j.heartbeats for j in fleet.diagnostics.jobs),
        }
    return results


def _format(results) -> str:
    lines = [
        f"Fleet sweep: {len(results['firmware'])} firmware x "
        f"budget {results['budget']} on {results['cpus']} CPU(s)",
        f"  sequential           {results['sequential_s']:>8.2f}s",
    ]
    for workers in WORKER_COUNTS:
        row = results["workers"][str(workers)]
        lines.append(
            f"  workers={workers}            {row['wall_s']:>8.2f}s  "
            f"{row['speedup']:.2f}x  identical={row['identical']}"
        )
    return "\n".join(lines)


def _check(results) -> None:
    for workers in WORKER_COUNTS:
        row = results["workers"][str(workers)]
        assert row["identical"], (
            f"workers={workers} results diverged from the sequential sweep"
        )
        assert not row["degraded"]
    if results["cpus"] and results["cpus"] >= 2:
        speedup = results["workers"]["4"]["speedup"]
        assert speedup >= MIN_SPEEDUP_4W, (
            f"4-worker speedup {speedup:.2f}x below the {MIN_SPEEDUP_4W}x "
            f"floor on a {results['cpus']}-CPU host"
        )


def test_fleet_scaling(once):
    results = once(profile_fleet)
    print("\n" + _format(results))
    _check(results)


def main(path: str = "BENCH_fleet.json") -> None:
    results = profile_fleet()
    print(_format(results))
    _check(results)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
