"""The benchmark's workloads and the probe that times them.

A *sweep* is one pass over a workload's campaigns in one fresh
process.  Sweep ``index`` of a run with seed ``seed`` gives its ``k``-th
campaign slot the campaign seed ``seed * 1000 + index * slots + k``, so
the same seed always yields the same campaigns.

* ``census`` — ``run_campaign`` on each of the ten non-VxWorks catalog
  firmware with the library defaults (journal exec mode, ``tcg``
  engine, catalog sanitizer set, refresh every 500 execs): what
  ``repro fuzz-all`` does, reproduction included.
* ``reset-storm`` — the AFL fork-server cadence of ``bench_execs.py``:
  ``exec_mode="forkserver"`` and ``refresh_interval = 1`` on the
  largest-RAM (OpenWRT-x86_64) and smallest (InfiniTime) firmware.
* ``vxworks`` — TP-Link WDR-7660, the only firmware that runs guest ISA
  code, at the same fork-server cadence.  Under ``run_campaign``'s
  defaults its per-exec cost depends on how long a session's
  ``memPartAlloc`` free list has grown since the last refresh, which
  varies 30x between seeds (0.3 to 9 ms per exec over 100 execs); a
  golden restore before every program keeps ISA and allocator work
  per exec steady.

The fork-server workloads stop after the fuzz phase, as
``bench_execs.py`` does: reproduction time there is dominated by
whether one finding needs a long minimization, which is seed luck.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections import Counter
from typing import Dict, List, NamedTuple, Tuple

VXWORKS = "TP-Link WDR-7660"


class Workload(NamedTuple):
    firmware: Tuple[str, ...]
    #: campaign seeds per firmware in one sweep
    slots: int
    budget: int
    #: wall seconds of one sweep, process start included, measured on a
    #: 2-vCPU x86-64 virtual machine; ``--seconds`` divided by it fixes
    #: how many sweeps a run makes
    nominal_sweep_s: float
    #: True: drive ``run_campaign``; False: the fork-server storm
    campaign: bool


def _census_firmware() -> Tuple[str, ...]:
    from repro.firmware.registry import all_firmware

    return tuple(spec.name for spec in all_firmware() if spec.name != VXWORKS)


def workload(name: str) -> Workload:
    """The named workload (raises KeyError for an unknown name)."""
    if name == "census":
        return Workload(_census_firmware(), 1, 250, 6.0, True)
    if name == "reset-storm":
        return Workload(("OpenWRT-x86_64", "InfiniTime"), 1, 1500, 2.4, False)
    if name == "vxworks":
        return Workload((VXWORKS,), 6, 150, 4.0, False)
    raise KeyError(name)


WORKLOADS = ("census", "reset-storm", "vxworks")


def campaign_seed(seed: int, index: int, slots: int, slot: int) -> int:
    return seed * 1000 + index * slots + slot


class Probe:
    """Light wrappers on the fuzz entry points: the untraced timings.

    Times fuzzer construction (setup), every ``FuzzerEngine.step``, the
    fuzz phase and ``reproduce_findings``, and harvests each target
    session's counters before the target resets.  Per exec this costs
    two clock reads, cheap enough to stay on in the untraced run.
    """

    def __init__(self):
        self.setup_s = 0.0
        self.fuzz_s = 0.0
        self.reproduce_s = 0.0
        self.steps_ms: List[float] = []
        self.fuzzer = None
        #: summed over every target session of the current campaign
        self.sessions: Counter = Counter()
        #: counters of the live target when its session started, and
        #: right after its last rebuild (one target lives at a time)
        self.base: Counter = Counter()
        self.golden: Counter = Counter()

    def install(self) -> "Probe":
        from repro.fuzz.engine import FuzzerEngine, FuzzTarget
        from repro.fuzz.syzkaller import SyzkallerFuzzer
        from repro.fuzz.tardis import TardisFuzzer

        clock = time.perf_counter
        probe = self

        def setup(init):
            @functools.wraps(init)
            def __init__(fuzzer, *args, **kwargs):
                started = clock()
                init(fuzzer, *args, **kwargs)
                probe.setup_s += clock() - started
                probe.fuzzer = fuzzer
                probe.sessions["corpus_seeded"] = len(fuzzer.corpus)
            return __init__

        step_impl = FuzzerEngine.step
        samples = self.steps_ms

        @functools.wraps(step_impl)
        def step(fuzzer, *args, **kwargs):
            started = clock()
            step_impl(fuzzer, *args, **kwargs)
            samples.append((clock() - started) * 1e3)

        run_impl = FuzzerEngine.run

        @functools.wraps(run_impl)
        def run(fuzzer, *args, **kwargs):
            started = clock()
            try:
                return run_impl(fuzzer, *args, **kwargs)
            finally:
                probe.fuzz_s += clock() - started

        reproduce_impl = FuzzerEngine.reproduce_findings

        @functools.wraps(reproduce_impl)
        def reproduce_findings(fuzzer, *args, **kwargs):
            started = clock()
            try:
                return reproduce_impl(fuzzer, *args, **kwargs)
            finally:
                probe.reproduce_s += clock() - started

        reset_impl = FuzzTarget.reset

        @functools.wraps(reset_impl)
        def reset(target):
            probe.harvest(target)
            restores = target.restores
            reset_impl(target)
            if target.restores != restores:
                probe.sessions["restore_pages"] += target.last_reset_pages
                # a restore rewinds the counters to their golden values
                probe.base = probe.golden
            else:
                # a rebuild boots a fresh runtime and engine from zero;
                # in fork-server mode its post-boot counters are the
                # golden values every later restore rewinds to
                probe.base = Counter()
                probe.golden = probe.read(target)

        SyzkallerFuzzer.__init__ = setup(SyzkallerFuzzer.__init__)
        TardisFuzzer.__init__ = setup(TardisFuzzer.__init__)
        FuzzerEngine.step = step
        FuzzerEngine.run = run
        FuzzerEngine.reproduce_findings = reproduce_findings
        FuzzTarget.reset = reset
        return self

    @staticmethod
    def read(target) -> Counter:
        """The target's runtime and engine counters as they stand."""
        stats = target.runtime.stats()
        values = Counter({key: stats[key] for key in (
            "shadow_checks", "shadow_fastpath_hits", "reports",
            "unique_reports")})
        for engine in target.image.ctx.machine.engines:
            values["isa_insns"] += engine.stats()["insns"]
        return values

    def harvest(self, target) -> None:
        """Fold in what the ending target session added to the counters
        over the values it started from (``base``)."""
        if target.runtime is None:
            return
        for key, value in self.read(target).items():
            self.sessions[key] += value - self.base[key]


def counters(fuzzer, sessions: Counter, result=None) -> Dict[str, object]:
    """Every exact count a campaign produces, read at its end.

    The first five are the census row of the campaign; the rest are the
    counts a later change may cite.  All must repeat exactly for a
    fixed campaign seed, in any process, traced or not.
    """
    target = fuzzer.target
    machine = target.image.ctx.machine
    return {
        "execs": fuzzer.execs,
        "guest_crashes": fuzzer.crashes,
        "coverage": len(target.coverage),
        "unique_findings": len(fuzzer.findings),
        "matched": sorted(result.matched) if result is not None else None,
        "reproducible": sum(f.reproducible for f in fuzzer.findings.values()),
        "findings_digest": _digest(sorted(map(str, fuzzer.findings))),
        "host_crashes": fuzzer.host_crashes,
        "degraded": fuzzer.degraded,
        "corpus": len(fuzzer.corpus),
        "rebuilds": target.rebuilds,
        "restores": target.restores,
        "runtime": target.runtime.stats(),
        "engines": [engine.stats() for engine in machine.engines],
        "sessions": dict(sorted(sessions.items())),
    }


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def record(values: Dict[str, object]) -> List[object]:
    """The compact form stored in ``expected.jsonl`` for one campaign:
    execs, guest crashes, coverage, unique findings, matched census rows
    and a digest over every counter."""
    return [values["execs"], values["guest_crashes"], values["coverage"],
            values["unique_findings"], values["matched"], _digest(values)]


def run_sweep(name: str, seed: int, index: int,
              tracer=None) -> Dict[str, object]:
    """Run one sweep in this process.

    A ``tracer`` (:class:`ledger.Tracer`) is installed after the probe
    and before the first fuzzer is built, so its spans enclose the
    probe's own work wherever the two wrap the same function.
    """
    spec = workload(name)
    probe = Probe().install()
    if tracer is not None:
        tracer.install()
    from repro.firmware.registry import firmware_spec
    from repro.fuzz.campaign import run_campaign
    from repro.fuzz.syzkaller import SyzkallerFuzzer
    from repro.fuzz.tardis import TardisFuzzer

    campaigns = []
    attempted = failed = 0
    started = time.perf_counter()
    for slot in range(spec.slots):
        sub = campaign_seed(seed, index, spec.slots, slot)
        for firmware in spec.firmware:
            probe.sessions = Counter()
            result = None
            if spec.campaign:
                result = run_campaign(firmware, budget=spec.budget, seed=sub)
                fuzzer = probe.fuzzer
            else:
                cls = (SyzkallerFuzzer
                       if firmware_spec(firmware).fuzzer == "syzkaller"
                       else TardisFuzzer)
                fuzzer = cls(firmware, seed=sub, exec_mode="forkserver")
                fuzzer.refresh_interval = 1
                fuzzer.run(spec.budget)
            probe.harvest(fuzzer.target)
            values = counters(fuzzer, probe.sessions, result)
            campaigns.append({"firmware": firmware, "seed": sub,
                              "counters": values})
            attempted += spec.budget
            failed += fuzzer.host_crashes
            if fuzzer.degraded:
                failed += spec.budget - fuzzer.execs
    wall_s = time.perf_counter() - started
    return {
        "campaigns": campaigns,
        "attempted": attempted,
        "failed": failed,
        "setup_s": probe.setup_s,
        "fuzz_s": probe.fuzz_s,
        "reproduce_s": probe.reproduce_s,
        "wall_s": wall_s,
        "steps_ms": probe.steps_ms,
    }
