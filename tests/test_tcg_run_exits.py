"""Engine counters on every way out of ``TcgEngine.run``.

``run`` keeps its per-block counters (guest cycles, instructions, host
ops, chain hits, the watchdog's ledger checks) in locals and writes them
back once, on the way out.  Each scenario below leaves ``run`` by a
different exit — a bus fault mid-block, a raising probe, a watchdog
trip, ``HLT``, a halting ``VMCALL`` and the ``max_steps`` cutoff — and
must leave exactly the counters, watchdog state and ledger count pinned
in ``EXPECTED``.
"""

import pytest

from repro.emulator.arch import arch_by_name
from repro.emulator.machine import Machine
from repro.errors import BusError, GuestHang
from repro.isa.assembler import assemble

TEXT_BASE = 0x0800_0000

#: a chained loop over sram (five passes), then the exit under test
PRELUDE = """
.org 0x08000000
.global entry
entry:
    lui  a0, 0x2000
    movi t0, 0
    movi t1, 5
loop:
    st32 t0, [a0 + 0]
    ld32 t2, [a0 + 0]
    addi t0, t0, 1
    blt  t0, t1, loop
"""

EXITS = {
    # 0x30000000 is unmapped on the arm map: the load faults mid-block
    "fault": """
    lui  a1, 0x3000
    addi a2, a2, 1
    ld32 t3, [a1 + 0]
    addi a2, a2, 1
    hlt
""",
    "probe_raises": """
    addi a2, a2, 1
    st32 t0, [a0 + 64]
    addi a2, a2, 1
    hlt
""",
    "spin": """
spin:
    addi a2, a2, 1
    jmp  spin
""",
    "hlt": """
    addi a2, a2, 1
    hlt
""",
    "vmcall": """
    addi a2, a2, 1
    vmcall 7
    addi a2, a2, 1
    hlt
""",
}


class ProbeTrap(Exception):
    """Raised by the test probe on its trigger address."""


def _run(exit_name, probed=False, insn_budget=10_000, steps=(1_000_000,)):
    machine = Machine(arch_by_name("arm"), name="tcg-exits")
    program = assemble(PRELUDE + EXITS[exit_name], base=TEXT_BASE)
    with machine.bus.untraced():
        machine.bus.region_named("flash").write(TEXT_BASE, program.image)
    machine.set_watchdog(insn_budget=insn_budget)
    core = machine.add_cpu(pc=program.symbols["entry"], sp=0x2000_4000)

    def halt(engine, number):
        engine.state.halted = True

    core.hypercall = halt
    if probed:
        def probe(access):
            if access.addr == 0x2000_0040:
                raise ProbeTrap(hex(access.addr))

        core.add_mem_probe(probe)
    outcome = []
    for max_steps in steps:
        try:
            outcome.append(core.run(max_steps=max_steps))
        except (BusError, GuestHang, ProbeTrap) as exc:
            outcome.append(type(exc).__name__)
    watchdog = machine.watchdog
    return {
        "outcome": outcome,
        "stats": core.stats(),
        "counters": (core.cycles, core.insn_count, core.host_ops,
                     core.tb_chain_hits),
        "watchdog": (watchdog.insns, watchdog.trips,
                     tuple(pc - TEXT_BASE for pc in watchdog._ring)),
        "ledger_checks": machine.ledger.counts[watchdog.check_slot],
        "state": (core.state.pc - TEXT_BASE, core.state.halted,
                  core.state.read(3)),
    }


SCENARIOS = {
    "fault": dict(exit_name="fault"),
    "fault_probed": dict(exit_name="fault", probed=True),
    "probe_raises": dict(exit_name="probe_raises", probed=True),
    "watchdog_trip": dict(exit_name="spin", insn_budget=50),
    "hlt": dict(exit_name="hlt"),
    "vmcall_halts": dict(exit_name="vmcall"),
    "max_steps": dict(exit_name="spin", steps=(7, 30, 3)),
}

#: recorded on the engine that updated ``self`` after every block
EXPECTED = {
    "fault": {
        "outcome": ["BusError"],
        "stats": {"insns": 25,
                  "cycles": 37,
                  "host_ops": 39,
                  "tb_translations": 3,
                  "tb_flushes": 0,
                  "tb_evictions": 0,
                  "tb_invalidations": 0,
                  "tb_chain_hits": 2,
                  "tb_cache_blocks": 3,
                  "tb_compiled": 0,
                  "jit_deopts": 0,
                  "jit_trace_execs": 0},
        "counters": (37, 25, 39, 2),
        "watchdog": (23, 0, (24, 24, 24, 24, 56)),
        "ledger_checks": 5,
        "state": (72, False, 1),
    },
    "fault_probed": {
        "outcome": ["BusError"],
        "stats": {"insns": 25,
                  "cycles": 35,
                  "host_ops": 50,
                  "tb_translations": 3,
                  "tb_flushes": 1,
                  "tb_evictions": 0,
                  "tb_invalidations": 0,
                  "tb_chain_hits": 2,
                  "tb_cache_blocks": 3,
                  "tb_compiled": 0,
                  "jit_deopts": 0,
                  "jit_trace_execs": 0},
        "counters": (35, 25, 50, 2),
        "watchdog": (23, 0, (24, 24, 24, 24, 56)),
        "ledger_checks": 5,
        "state": (72, False, 1),
    },
    "hlt": {
        "outcome": [25],
        "stats": {"insns": 25,
                  "cycles": 35,
                  "host_ops": 35,
                  "tb_translations": 3,
                  "tb_flushes": 0,
                  "tb_evictions": 0,
                  "tb_invalidations": 0,
                  "tb_chain_hits": 2,
                  "tb_cache_blocks": 3,
                  "tb_compiled": 0,
                  "jit_deopts": 0,
                  "jit_trace_execs": 0},
        "counters": (35, 25, 35, 2),
        "watchdog": (25, 0, (24, 24, 24, 24, 56, 72)),
        "ledger_checks": 6,
        "state": (72, True, 1),
    },
    "max_steps": {
        "outcome": [7, 30, 4],
        "stats": {"insns": 41,
                  "cycles": 51,
                  "host_ops": 51,
                  "tb_translations": 3,
                  "tb_flushes": 0,
                  "tb_evictions": 0,
                  "tb_invalidations": 0,
                  "tb_chain_hits": 8,
                  "tb_cache_blocks": 3,
                  "tb_compiled": 0,
                  "jit_deopts": 0,
                  "jit_trace_execs": 0},
        "counters": (51, 41, 51, 8),
        "watchdog": (41,
                     0,
                     (24, 24, 24, 24, 56, 56, 56, 56, 56, 56, 56, 56, 56, 56)),
        "ledger_checks": 14,
        "state": (56, False, 9),
    },
    "probe_raises": {
        "outcome": ["ProbeTrap"],
        "stats": {"insns": 24,
                  "cycles": 34,
                  "host_ops": 49,
                  "tb_translations": 3,
                  "tb_flushes": 1,
                  "tb_evictions": 0,
                  "tb_invalidations": 0,
                  "tb_chain_hits": 2,
                  "tb_cache_blocks": 3,
                  "tb_compiled": 0,
                  "jit_deopts": 0,
                  "jit_trace_execs": 0},
        "counters": (34, 24, 49, 2),
        "watchdog": (23, 0, (24, 24, 24, 24, 56)),
        "ledger_checks": 5,
        "state": (64, False, 1),
    },
    "vmcall_halts": {
        "outcome": [25],
        "stats": {"insns": 25,
                  "cycles": 36,
                  "host_ops": 37,
                  "tb_translations": 3,
                  "tb_flushes": 0,
                  "tb_evictions": 0,
                  "tb_invalidations": 0,
                  "tb_chain_hits": 2,
                  "tb_cache_blocks": 3,
                  "tb_compiled": 0,
                  "jit_deopts": 0,
                  "jit_trace_execs": 0},
        "counters": (36, 25, 37, 2),
        "watchdog": (25, 0, (24, 24, 24, 24, 56, 72)),
        "ledger_checks": 6,
        "state": (72, True, 1),
    },
    "watchdog_trip": {
        "outcome": ["GuestHang"],
        "stats": {"insns": 51,
                  "cycles": 61,
                  "host_ops": 61,
                  "tb_translations": 3,
                  "tb_flushes": 0,
                  "tb_evictions": 0,
                  "tb_invalidations": 0,
                  "tb_chain_hits": 14,
                  "tb_cache_blocks": 3,
                  "tb_compiled": 0,
                  "jit_deopts": 0,
                  "jit_trace_execs": 0},
        "counters": (61, 51, 61, 14),
        "watchdog": (51,
                     1,
                     (24,
                      56,
                      56,
                      56,
                      56,
                      56,
                      56,
                      56,
                      56,
                      56,
                      56,
                      56,
                      56,
                      56,
                      56,
                      56)),
        "ledger_checks": 19,
        "state": (56, True, 14),
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_counters_on_exit(name):
    assert _run(**SCENARIOS[name]) == EXPECTED[name]


if __name__ == "__main__":  # print the observations, to re-record
    for name in sorted(SCENARIOS):
        print(f"    {name!r}: {_run(**SCENARIOS[name])!r},")
