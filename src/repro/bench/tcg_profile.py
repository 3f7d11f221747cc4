"""Wall-clock hot-loop profile for the TCG engine.

The Figure-2 cost model reports *modeled* guest-cycle ratios, which are
engine-independent by construction; this module measures the orthogonal
quantity — how many guest instructions per host second the engine
actually retires — on a figure-2-style workload: a memory-heavy inner
loop (the fill/scan mix the overhead corpus replays) plus calls and
branches, run bare and with KASAN+KCSAN attached in EMBSAN-D mode.

Used by ``benchmarks/bench_isa.py`` to produce the committed
``BENCH_isa.json`` artifact.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.emulator.arch import arch_by_name
from repro.emulator.machine import Machine
from repro.isa.assembler import assemble
from repro.sanitizers.runtime.runtime import CommonSanitizerRuntime, RuntimeConfig

#: Entry point of the profile program in flash.
TEXT_BASE = 0x0800_0000
#: Scratch buffer the loop streams through (sram).
DATA_BASE = 0x2000_0000

#: The hot loop: ~1/3 memory traffic, the rest ALU + branches + a call
#: per outer iteration — the instruction mix the merged overhead corpus
#: exhibits (see repro.bench.workload).
HOT_LOOP = """
.org 0x08000000
.global entry
entry:
    movi a0, 0x2000
    shli a0, a0, 16     ; data buffer base
    movi t0, 0          ; outer counter
    lui  t1, %(outer_hi)d
    ori  t1, t1, %(outer_lo)d
outer:
    call body
    addi t0, t0, 1
    blt  t0, t1, outer
    hlt
.global body
body:
    movi t2, 0
    movi t3, 24         ; words per inner pass
inner:
    shli s0, t2, 2
    add  s0, a0, s0
    st32 t2, [s0]       ; stream a word out ...
    ld32 s1, [s0]       ; ... and back in
    add  s2, s1, t2
    mul  s2, s2, t3
    xor  s2, s2, t0
    shri s3, s2, 3
    addi t2, t2, 1
    blt  t2, t3, inner
    ret
"""


def build_workload(iterations: int) -> str:
    """Render the hot-loop source for ``iterations`` outer passes."""
    return HOT_LOOP % {
        "outer_hi": (iterations >> 16) & 0xFFFF,
        "outer_lo": iterations & 0xFFFF,
    }


def _make_machine(engine: str, sanitized: bool, iterations: int):
    machine = Machine(arch_by_name("arm"), name=f"tcg-profile-{engine}")
    program = assemble(build_workload(iterations), base=TEXT_BASE)
    with machine.bus.untraced():
        machine.bus.region_named("flash").write(TEXT_BASE, program.image)
    runtime = None
    if sanitized:
        config = RuntimeConfig(sanitizers=("kasan", "kcsan"), mode="d")
        runtime = CommonSanitizerRuntime(machine, config).attach()
    core = machine.add_cpu(pc=program.symbols["entry"], sp=0x2000_4000,
                           engine=engine)
    if runtime is not None:
        # past the ready point: every access is validated
        machine.mark_ready()
    return machine, core


def profile_mode(engine: str, sanitized: bool, iterations: int = 2000,
                 max_steps: int = 50_000_000) -> Dict[str, float]:
    """Run the hot loop once under ``engine``; returns timing facts."""
    machine, core = _make_machine(engine, sanitized, iterations)
    start = time.perf_counter()
    executed = core.run(max_steps=max_steps)
    elapsed = time.perf_counter() - start
    if not core.state.halted:  # pragma: no cover - budget misconfiguration
        raise RuntimeError(f"profile did not halt within {max_steps} steps")
    out = {
        "engine": engine,
        "sanitized": sanitized,
        "instructions": executed,
        "seconds": elapsed,
        "insn_per_sec": executed / elapsed if elapsed else 0.0,
        "guest_cycles": core.cycles,
    }
    for counter in ("tb_chain_hits", "tb_flush_count", "tb_evictions"):
        if hasattr(core, counter):
            out[counter] = getattr(core, counter)
    return out


def profile_isa_all(iterations: int = 2000) -> Dict[str, Dict[str, float]]:
    """Profile the TCG engine bare and fully sanitized.

    Returns a dict keyed ``spec_bare`` / ``spec_kasan_kcsan``, the rows
    the BENCH_isa document gates.
    """
    return {
        "spec_bare": profile_mode("tcg", False, iterations),
        "spec_kasan_kcsan": profile_mode("tcg", True, iterations),
    }
