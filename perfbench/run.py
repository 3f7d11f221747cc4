"""Campaign benchmark: sanitized fuzz campaigns on catalog firmware.

Run from the root of a checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

``--trace 0`` makes ``round(seconds / nominal sweep time)`` sweeps, each
in a fresh process (see ``workloads.py``), and prints the end-to-end
metrics.  ``--trace 1`` runs sweep 0 twice, untraced and then with every
layer wrapped (see ``ledger.py``), and prints the per-layer metrics.
Either way every campaign's exact counters are checked against
``expected.jsonl``; any mismatch, or a campaign not recorded there,
makes the result incorrect and the exit code 1.  A ``--seed`` with no
record runs the campaigns of a recorded one (:func:`input_seed`).
``--record`` adds the run's campaigns, for the seed as given, to
``expected.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from ledger import LAYERS  # noqa: E402
from workloads import WORKLOADS, record, workload  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.jsonl")
#: where a traced run stores its spans, relative to the checkout root
SPANS_DIR = os.path.join(".perfbench", "spans")
#: one sweep may not take longer than this (the whole run has 180 s)
SWEEP_TIMEOUT_S = 150
#: on a slow machine a run stops adding sweeps past this many times
#: ``--seconds``, so it still ends in time (at the cost of fewer sweeps)
OVERRUN = 1.3
#: printed with the rest but left out of the JSON metrics.  The first
#: two are 0 on some workloads (the fork-server workloads do not
#: reproduce, and a healthy run quarantines nothing), so no relative
#: bound can hold them.  Over ten seeds on a shared 2-vCPU x86-64
#: virtual machine, host-calibrated, the quartile spread of ``wall_s``
#: on census (mostly reproduction, whose length is seed luck) was 0.26
#: of the median, and that of ``exec_ms.p99`` (rebuild steps; 25 beyond
#: it per census sweep) 0.18 on census and 0.14 on vxworks: too close
#: to the 0.25 bound to gate on.  The last two show the calibration
#: itself (see :func:`host_reference`).
PRINTED_ONLY = ("reproduce_s", "failed_share", "wall_s", "exec_ms.p99",
                "host_speed", "execs_per_sec.uncalibrated")
#: seeds whose campaigns have outcomes in ``expected.jsonl``: 1 to 10,
#: and 97, held out while the benchmark was tuned
RECORDED_SEEDS = tuple(range(1, 11)) + (97,)


def input_seed(seed: int) -> int:
    """The recorded seed whose campaigns a run with ``seed`` makes.

    Outcomes are checked against records, so any seed without one is
    folded onto 1 to 10; the same seed always gives the same inputs.
    """
    return seed if seed in RECORDED_SEEDS else 1 + seed % 10


#: seconds :func:`host_reference` takes at nominal host speed, on a
#: 2-vCPU x86-64 virtual machine in one of its faster phases
REFERENCE_NOMINAL_S = 0.020
#: the large table the reference walks, built on first use
_TABLE: List[dict] = []


def host_reference() -> float:
    """How long a fixed pure-Python loop takes now, in seconds.

    The geometric mean of two medians of three passes: dict updates on a
    small table, and a scattered walk over 300,000 small dicts, so that
    it exercises the interpreter and memory as a campaign does.  On a
    shared host the speed of the machine drifts by up to 1.8x in phases
    lasting minutes; timings scaled by ``REFERENCE_NOMINAL_S /
    host_reference()`` taken next to them drift far less (see
    README.md).  It runs in this process, never in a sweep's, so the
    program cannot change what it measures.
    """
    if not _TABLE:
        _TABLE.extend({"k": i, "v": [i, i + 1]} for i in range(300_000))

    def updates() -> int:
        table: Dict[int, int] = {}
        total = 0
        for i in range(60_000):
            table[i & 1023] = i
            total += table.get((i * 7) & 1023, 0) % 13
        return total

    def walk() -> int:
        total = 0
        for i in range(0, 300_000, 7):
            entry = _TABLE[(i * 7919) % 300_000]
            total += entry["k"] + entry["v"][1]
        return total

    def timed(loop) -> float:
        times = []
        for _ in range(3):
            started = time.perf_counter()
            loop()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    return (timed(updates) * timed(walk)) ** 0.5


class BenchError(Exception):
    """A sweep failed to run; the benchmark prints no result."""


def spawn(job: Dict[str, object]) -> Dict[str, object]:
    """Run one sweep in a fresh interpreter and return its result."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # set and dict order must not depend on the process
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "sweep.py"), json.dumps(job)],
            env=env, capture_output=True, text=True, timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sweep {job} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"sweep {job} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sweeps(name: str, seed: int, seconds: float) -> List[dict]:
    """``round(seconds / nominal sweep time)`` sweeps, one process each.

    The count depends only on ``seconds``, so two commits measured with
    the same settings run exactly the same campaigns.
    """
    count = max(1, round(seconds / workload(name).nominal_sweep_s))
    started = time.perf_counter()
    sweeps: List[dict] = []
    before = host_reference()
    for index in range(count):
        elapsed = time.perf_counter() - started
        if sweeps and elapsed * (1 + 1 / len(sweeps)) > seconds * OVERRUN:
            print(f"stopping after {len(sweeps)} of {count} sweeps: "
                  f"{elapsed:.1f} s elapsed", file=sys.stderr)
            break
        sweep = spawn({"workload": name, "seed": seed, "index": index})
        after = host_reference()
        sweep["reference_s"] = (before + after) / 2
        sweeps.append(sweep)
        before = after
    return sweeps


def campaign_key(campaign: Dict[str, object]) -> str:
    return f"{campaign['firmware']}/{campaign['seed']}"


def load_expected() -> Dict[tuple, list]:
    """``(workload, campaign key) -> record`` from ``expected.jsonl``."""
    expected = {}
    with open(EXPECTED, encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            expected[entry["workload"], entry["campaign"]] = entry["record"]
    return expected


def check_campaigns(name: str, sweeps: List[dict],
                    write: bool) -> List[str]:
    """Compare every campaign with its record; returns the mismatches.

    A campaign with no record is a mismatch.  With ``write`` the records
    are added to ``expected.jsonl`` instead of compared.
    """
    expected = load_expected()
    problems: List[str] = []
    for sweep in sweeps:
        for campaign in sweep["campaigns"]:
            key = (name, campaign_key(campaign))
            got = record(campaign["counters"])
            if write:
                expected[key] = got
            elif key not in expected:
                problems.append(f"{name} {key[1]}: not recorded; record it "
                                f"with --record")
            elif expected[key] != got:
                problems.append(f"{name} {key[1]}: recorded {expected[key]}, "
                                f"got {got}")
    if write:
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            for (workload_name, campaign), got in sorted(expected.items()):
                fh.write(json.dumps({"workload": workload_name,
                                     "campaign": campaign,
                                     "record": got}) + "\n")
    checked = sum(len(sweep["campaigns"]) for sweep in sweeps)
    print(f"correctness: {checked} campaigns, {len(problems)} mismatches")
    return problems


def quantile(samples: List[float], q: int) -> float:
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(sweeps: List[dict]) -> Dict[str, tuple]:
    """The eight end-to-end metrics, and two readings of the host
    calibration, as ``name -> (value, unit, note)``.

    Each is computed per sweep and reported as the median over sweeps,
    so a host stall that slows one sweep does not move the figure.
    Times are host-calibrated: a sweep's are scaled by
    ``REFERENCE_NOMINAL_S`` over the :func:`host_reference` taken next
    to it.  ``host_speed`` and the uncalibrated ``execs_per_sec`` are
    printed beside them.
    """
    def median(per_sweep) -> float:
        return statistics.median(per_sweep(sweep) for sweep in sweeps)

    def slowdown(sweep) -> float:
        return sweep["reference_s"] / REFERENCE_NOMINAL_S

    def execs(sweep) -> int:
        return sum(c["counters"]["execs"] for c in sweep["campaigns"])

    def timing(per_sweep):
        return median(lambda s: per_sweep(s) / slowdown(s))

    steps = sum(len(sweep["steps_ms"]) for sweep in sweeps)
    attempted = sum(sweep["attempted"] for sweep in sweeps)
    failed = sum(sweep["failed"] for sweep in sweeps)
    of_sweeps = f"median of {len(sweeps)} sweeps"
    of_steps = f"{of_sweeps}, n={steps} steps in all"
    return {
        "execs_per_sec": (
            median(lambda s: execs(s) * slowdown(s) / s["fuzz_s"]), "1/s",
            of_sweeps),
        "exec_ms.p50": (timing(lambda s: quantile(s["steps_ms"], 50)),
                        "ms", of_steps),
        "exec_ms.p99": (timing(lambda s: quantile(s["steps_ms"], 99)),
                        "ms", of_steps),
        "setup_s": (timing(lambda s: s["setup_s"]), "s", of_sweeps),
        "reproduce_s": (timing(lambda s: s["reproduce_s"]), "s", of_sweeps),
        "wall_s": (timing(lambda s: s["wall_s"]), "s", of_sweeps),
        "peak_rss_mib": (median(lambda s: s["peak_rss_mib"]), "MiB",
                         of_sweeps),
        "failed_share": (failed / attempted, "ratio",
                         f"{failed} failed of {attempted} attempted"),
        "host_speed": (median(lambda s: 1 / slowdown(s)), "x",
                       "nominal reference time / measured"),
        "execs_per_sec.uncalibrated": (
            median(lambda s: execs(s) / s["fuzz_s"]), "1/s", of_sweeps),
    }


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def per_layer(untraced: dict, traced: dict) -> Dict[str, tuple]:
    """Per-layer metrics of a traced sweep as ``name -> (value, unit, note)``."""
    ledger = traced["ledger"]
    out: Dict[str, tuple] = {}
    moves = {name: text for name, _targets, text in LAYERS}
    for name, entry in ledger["layers"].items():
        out[f"{name}.calls"] = (entry["calls"], "count", "")
        out[f"{name}.self_ms"] = (entry["self_ms"], "ms",
                                  f"moves {moves[name]}")
    total: Dict[str, int] = {}
    for campaign in traced["campaigns"]:
        counters = campaign["counters"]
        for key, value in counters["sessions"].items():
            total[key] = total.get(key, 0) + value
        for key in ("execs", "rebuilds", "restores", "corpus"):
            total[key] = total.get(key, 0) + counters[key]
    added = total["corpus"] - total.get("corpus_seeded", 0)
    out.update({
        "sanitizers.fastpath_hit_ratio": (
            _ratio(total["shadow_fastpath_hits"], total["shadow_checks"]),
            "ratio", "base: sanitizers.shadow_checks"),
        "sanitizers.shadow_checks": (total["shadow_checks"], "count", ""),
        "sanitizers.unique_report_ratio": (
            _ratio(total["unique_reports"], total["reports"]),
            "ratio", "base: sanitizers.reports"),
        "sanitizers.reports": (total["reports"], "count", ""),
        "reset.pages_per_restore": (
            _ratio(total.get("restore_pages", 0), total["restores"]),
            "pages", "base: reset.restores"),
        "reset.rebuilds": (total["rebuilds"], "count", ""),
        "reset.restores": (total["restores"], "count", ""),
        "isa.insns": (total.get("isa_insns", 0), "count", ""),
        "fuzz.corpus_add_ratio": (_ratio(added, total["execs"]), "ratio",
                                  "base: fuzz.execs"),
        "fuzz.execs": (total["execs"], "count", ""),
        "fuzz_phase_ms": (ledger["fuzz_ms"], "ms", "traced"),
        "unattributed_ms": (ledger["unattributed_ms"], "ms",
                            "fuzz phase minus summed layer self time"),
        "trace_overhead": (traced["wall_s"] / untraced["wall_s"], "x",
                           "traced sweep wall / untraced sweep wall"),
    })
    return out


def print_metrics(title: str, metrics: Dict[str, tuple]) -> None:
    print(title)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit:6s} {note}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="add this run's campaigns to expected.jsonl")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py: src/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # the census firmware list comes from the catalog in src/
    sys.path.insert(0, os.path.abspath("src"))
    name = args.workload
    seed = args.seed if args.record else input_seed(args.seed)
    if seed != args.seed:
        print(f"seed {args.seed} has no recorded outcomes: running the "
              f"campaigns of recorded seed {seed}")
    try:
        if args.trace:
            untraced = spawn({"workload": name, "seed": seed, "index": 0})
            traced = spawn({"workload": name, "seed": seed, "index": 0,
                            "spans": os.path.join(SPANS_DIR, name)})
            sweeps = [untraced]
            metrics = per_layer(untraced, traced)
            print(f"spans: {traced['ledger']['spans']} written to "
                  f"{os.path.join(SPANS_DIR, name)}")
        else:
            sweeps = run_sweeps(name, seed, args.seconds)
            metrics = end_to_end(sweeps)
        problems = check_campaigns(name, sweeps, args.record)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        if traced["campaigns"] != untraced["campaigns"]:
            problems.append("traced counters differ from untraced ones")
        if name == "census":
            # zero-work predictions: no guest ISA code, no golden capture
            for layer in ("isa.run", "emulator.snapshot.golden"):
                if metrics[f"{layer}.calls"][0] != 0:
                    problems.append(f"{layer} ran on census")
    print_metrics(f"{name} seed={seed} trace={args.trace}", metrics)
    for problem in problems:
        print(f"MISMATCH {problem}")
    if not args.trace:
        for key in PRINTED_ONLY:
            metrics.pop(key)
    source = [traced] if args.trace else sweeps
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in source),
        "failed": sum(s["failed"] for s in source),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit, _note) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
