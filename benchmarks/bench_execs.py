"""Execution-throughput benchmark: journal vs fork-server resets.

Runs the same campaign budget in both execution modes at
``refresh_interval=1`` — one pristine target per program, the
canonical AFL fork-server cadence, where reset cost dominates — on a
small firmware and on the largest-RAM firmware in the catalog, and
records executions per wall-clock second for each.  At the default
refresh cadence the modes are within noise of each other (guest
execution dominates; see the reset-cost section of
``docs/cost_model.md``); this benchmark measures the regime the fork
server exists for.

Asserted floors:

* fork-server >= 2x journal execs/s on the large-RAM case (the
  dirty-page delta restore replaces an O(firmware) rebuild);
* both modes produce byte-identical fuzzing outcomes (findings,
  coverage, crash counts) — throughput must not buy divergence;
* doubling DRAM leaves the per-restore cost for identical dirty work
  within noise (the restore is O(dirty pages), not O(RAM));
* doubling DRAM leaves the golden-capture cost within the same noise
  bound, and the golden bytes the fork server holds exactly equal (the
  capture copies pages on first write, not RAM up front).

Run as a script to (re)generate the committed artifact::

    PYTHONPATH=src python benchmarks/bench_execs.py [out.json]

writes ``BENCH_execs.json`` (default); CI regenerates it per run and
gates the large-case numbers against the committed baseline via
``check_bench_regression.py``.
"""

import json
import sys
import time

#: acceptance floor: fork-server vs journal execs/s on the large case
MIN_SPEEDUP_LARGE = 2.0
#: dirty pages written per sample in the RAM-scaling measurement
SCALING_PAGES = 8
#: samples per configuration (min is reported: scheduling noise only adds)
SCALING_SAMPLES = 5

#: (case name, firmware, budget).  InfiniTime is the smallest target in
#: the catalog; OpenWRT-x86_64 carries the largest RAM (128 MiB DRAM),
#: which is exactly what makes its per-refresh rebuild expensive.
CASES = (
    ("small", "InfiniTime", 400),
    ("large", "OpenWRT-x86_64", 300),
)
SEED = 1


def _outcome_bytes(fuzzer) -> str:
    """Canonical serialization of everything a campaign would report."""
    return json.dumps(
        {
            "execs": fuzzer.execs,
            "crashes": fuzzer.crashes,
            "findings": sorted(map(str, fuzzer.findings)),
            "coverage": sorted(fuzzer.target.coverage.points),
        },
        sort_keys=True,
    )


def _run_mode(firmware: str, budget: int, mode: str) -> dict:
    from repro.firmware.registry import firmware_spec
    from repro.fuzz.syzkaller import SyzkallerFuzzer
    from repro.fuzz.tardis import TardisFuzzer

    spec = firmware_spec(firmware)
    cls = SyzkallerFuzzer if spec.fuzzer == "syzkaller" else TardisFuzzer
    start = time.perf_counter()
    fuzzer = cls(firmware, seed=SEED, exec_mode=mode)
    setup_s = time.perf_counter() - start
    # one pristine target per program: the fork-server cadence
    fuzzer.refresh_interval = 1
    start = time.perf_counter()
    fuzzer.run(budget)
    fuzz_s = time.perf_counter() - start
    return {
        "setup_s": round(setup_s, 3),
        "fuzz_s": round(fuzz_s, 3),
        "execs_per_sec": round(fuzzer.execs / fuzz_s, 2),
        "resets": fuzzer.target.rebuilds + fuzzer.target.restores,
        "outcome": _outcome_bytes(fuzzer),
    }


def profile_scaling() -> dict:
    """Golden-capture and per-restore cost as DRAM doubles."""
    from repro.emulator.arch import arch_by_name
    from repro.emulator.machine import Machine
    from repro.emulator.snapshot import ForkServer
    from repro.mem.dirty import PAGE_SIZE

    out = {}
    for scale in (1, 2):
        # ARM: the only map with address headroom directly above DRAM
        arch = arch_by_name("arm")
        arch = arch._replace(memory_map=tuple(
            spec._replace(size=spec.size * scale)
            if spec.name == "dram" else spec
            for spec in arch.memory_map
        ))
        machine = Machine(arch, name=f"scaling-{scale}x")
        dram = next(r for r in machine.bus.regions if r.kind == "dram")
        capture = None
        for _ in range(SCALING_SAMPLES):
            start = time.perf_counter()
            fork = ForkServer(machine)
            us = (time.perf_counter() - start) * 1e6
            capture = us if capture is None else min(capture, us)
        fork.restore()  # warm-up
        best = None
        for _ in range(SCALING_SAMPLES):
            for page in range(SCALING_PAGES):
                machine.bus.store(dram.base + page * PAGE_SIZE, 4, 0xAB)
            stats = fork.restore()
            assert stats.pages == SCALING_PAGES
            best = stats.us if best is None else min(best, stats.us)
        out[str(scale)] = {
            "dram_mib": dram.size // (1024 * 1024),
            "dirty_pages": SCALING_PAGES,
            "capture_us": round(capture, 1),
            "restore_us": round(best, 1),
            "golden_bytes": fork.ram_bytes(),
        }
    return out


def profile_execs() -> dict:
    results = {"seed": SEED, "refresh_interval": 1, "cases": {}}
    for name, firmware, budget in CASES:
        case = {"firmware": firmware, "budget": budget}
        for mode in ("journal", "forkserver"):
            case[mode] = _run_mode(firmware, budget, mode)
        case["identical"] = case["journal"].pop("outcome") == \
            case["forkserver"].pop("outcome")
        case["speedup"] = round(
            case["forkserver"]["execs_per_sec"]
            / case["journal"]["execs_per_sec"], 3)
        results["cases"][name] = case
    results["scaling"] = profile_scaling()
    return results


def check(results: dict) -> None:
    for name, case in results["cases"].items():
        assert case["identical"], (
            f"{name}: fork-server outcome diverged from journal mode")
    large = results["cases"]["large"]
    assert large["speedup"] >= MIN_SPEEDUP_LARGE, (
        f"fork-server speedup {large['speedup']}x on "
        f"{large['firmware']} below the {MIN_SPEEDUP_LARGE}x floor")
    scaling = results["scaling"]
    for metric in ("capture_us", "restore_us"):
        base = scaling["1"][metric]
        doubled = scaling["2"][metric]
        # identical work, twice the RAM: flat within (generous) noise;
        # an O(RAM) full copy would be ~1000x off this bound at restore
        assert doubled < base * 10 + 200, (
            f"{metric} grew with RAM size: {base}us -> {doubled}us")
    # the exact guard: a capture that copied RAM up front would hold
    # twice the golden bytes on twice the RAM
    assert scaling["1"]["golden_bytes"] == scaling["2"]["golden_bytes"], (
        "golden bytes held grew with RAM size")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = argv[0] if argv else "BENCH_execs.json"
    results = profile_execs()
    check(results)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, case in results["cases"].items():
        print(f"{name:5s} {case['firmware']:16s} "
              f"journal {case['journal']['execs_per_sec']:8.1f}/s  "
              f"forkserver {case['forkserver']['execs_per_sec']:8.1f}/s  "
              f"speedup {case['speedup']:.2f}x  "
              f"identical={case['identical']}")
    scaling = results["scaling"]
    print(f"capture: "
          f"{scaling['1']['dram_mib']} MiB -> {scaling['1']['capture_us']}us, "
          f"{scaling['2']['dram_mib']} MiB -> {scaling['2']['capture_us']}us")
    print(f"restore @ {SCALING_PAGES} dirty pages: "
          f"{scaling['1']['dram_mib']} MiB -> {scaling['1']['restore_us']}us, "
          f"{scaling['2']['dram_mib']} MiB -> {scaling['2']['restore_us']}us")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
