"""TCG engine microbenchmark: hot-loop instructions per host second.

Measures guest instructions per host second on the figure-2-style hot
loop (``repro.bench.tcg_profile``) for the specialized TCG engine, bare
and with KASAN+KCSAN attached in EMBSAN-D mode.  The numbers are a
throughput floor for the ISA layer, not a headline: end-to-end execs/s
lives in ``perfbench``.

Run as a script to (re)generate the artifact::

    PYTHONPATH=src python benchmarks/bench_isa.py [out.json]

writes ``BENCH_isa.json`` (default).  Gate a fresh run against the
committed baseline with ``benchmarks/check_bench_regression.py``.
"""

import json
import sys

from repro.bench.tcg_profile import profile_isa_all

#: outer iterations; ~150 guest instructions each
ITERATIONS = 1200


def _format(results) -> str:
    lines = ["TCG engine: hot-loop instructions/second"]
    for key in ("spec_bare", "spec_kasan_kcsan"):
        row = results[key]
        lines.append(
            f"  {key:20s} {row['insn_per_sec']:>12,.0f} insn/s  "
            f"({row['instructions']} insns, chain hits="
            f"{row['tb_chain_hits']})"
        )
    return "\n".join(lines)


def _check(results) -> None:
    # sanitizers change host time only: the guest retires the identical
    # instruction stream and is charged the identical guest cycles
    bare, sanitized = results["spec_bare"], results["spec_kasan_kcsan"]
    assert bare["instructions"] == sanitized["instructions"]
    assert bare["guest_cycles"] == sanitized["guest_cycles"]
    assert bare["insn_per_sec"] > 0 and sanitized["insn_per_sec"] > 0


def test_isa_throughput(once):
    results = once(profile_isa_all, ITERATIONS)
    print("\n" + _format(results))
    _check(results)


def main(path: str = "BENCH_isa.json") -> None:
    results = profile_isa_all(ITERATIONS)
    print(_format(results))
    _check(results)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
