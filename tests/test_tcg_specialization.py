"""TB semantics of the specialized TCG engine.

Covers the translation-block contract the engine must preserve: block
boundaries, flush/invalidation behaviour (probe churn, chained links,
self-modifying code), cache capacity, undecodable code, and — the
load-bearing property — that the specialized closures and the reference
``Cpu`` retire bit-identical architectural state with identical cycle
accounting, from single programs up to whole firmware replays.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bugs.catalog import table4_bugs_for
from repro.bugs.replay import replay_on_embsan
from repro.firmware.instrument import InstrumentationMode
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu
from repro.errors import BusError, GuestFault, GuestHang, InvalidOpcode
from repro.isa.insn import INSN_SIZE, Instruction, Op, apply_load_sign, encode
from repro.isa.tcg import MAX_BLOCK_LEN, TcgEngine
from repro.mem.bus import MemoryBus
from repro.mem.regions import MemoryRegion, Perm
from repro.sanitizers.runtime.shadow import ShadowCode, ShadowMemory

RAM_BASE = 0x10000


def make_core(source, engine="tcg", text_perm=Perm.RX, hypercall=None,
              text_size=0x4000, **kw):
    """Build a core over ``source`` (assembly text or a raw text image)."""
    bus = MemoryBus()
    bus.map(MemoryRegion("text", 0, text_size, text_perm, "flash"))
    bus.map(MemoryRegion("ram", RAM_BASE, 0x4000, Perm.RW, "ram"))
    image = source if isinstance(source, bytes) else assemble(source).image
    with bus.untraced():
        bus.region_named("text").write(0, image)
    if engine == "interp":
        core = Cpu(bus, pc=0, sp=RAM_BASE + 0x4000, hypercall=hypercall)
    else:
        core = TcgEngine(bus, pc=0, sp=RAM_BASE + 0x4000, hypercall=hypercall,
                         **kw)
    return core, image


def ram_bytes(core, size=0x100):
    with core.bus.untraced():
        return core.bus.read_bytes(RAM_BASE, size)


STRAIGHT_LINE = "\n".join(
    [f"    addi a0, a0, {i % 7}" for i in range(100)] + ["    hlt"]
)

MIXED_PROGRAM = f"""
    movi a0, {RAM_BASE}
    movi t0, 0
    movi t1, 12
loop:
    shli t2, t0, 2
    add  t2, a0, t2
    st32 t0, [t2]
    ld32 t3, [t2]
    mul  t3, t3, t1
    st8  t3, [t2]
    ld8s s0, [t2]
    ld16s s1, [t2]
    addi t0, t0, 1
    blt  t0, t1, loop
    call tail
    hlt
tail:
    movi s2, -3
    sra  s3, s2, t1
    ret
"""


class TestBlockBoundaries:
    def test_max_block_len_split(self):
        core, _ = make_core(STRAIGHT_LINE)
        core.run()
        # 101 instructions split at the MAX_BLOCK_LEN fall-through
        first = core.tb_cache[0]
        assert len(first) == MAX_BLOCK_LEN
        assert first.end_pc == MAX_BLOCK_LEN * INSN_SIZE
        assert MAX_BLOCK_LEN * INSN_SIZE in core.tb_cache
        assert core.insn_count == 101
        ref, _ = make_core(STRAIGHT_LINE, "interp")
        ref.run()
        assert core.state.regs == ref.state.regs

    def test_fallthrough_block_chains(self):
        core, _ = make_core(STRAIGHT_LINE)
        core.run()
        assert core.tb_cache[0].links[MAX_BLOCK_LEN * INSN_SIZE] is (
            core.tb_cache[MAX_BLOCK_LEN * INSN_SIZE]
        )


class TestFlushSemantics:
    def test_probe_add_remove_flush_counts(self):
        core, _ = make_core(MIXED_PROGRAM)
        def probe(access):
            return None
        assert core.tb_flush_count == 0
        core.add_mem_probe(probe)
        assert core.tb_flush_count == 1
        core.remove_mem_probe(probe)
        assert core.tb_flush_count == 2

    def test_remove_unregistered_probe_is_noop(self):
        core, _ = make_core(MIXED_PROGRAM)
        core.add_mem_probe(lambda access: None)
        flushes = core.tb_flush_count
        core.remove_mem_probe(lambda access: None)  # never registered
        assert core.tb_flush_count == flushes
        assert len(core._mem_probes) == 1

    def test_flush_invalidates_chained_links(self):
        """A probe added mid-run via hypercall must see subsequent accesses

        even though the remaining blocks were already chained: flush_tbs()
        bumps the generation, so stale links are refused and retranslated
        with the probe compiled in.
        """
        seen = []

        def hypercall(engine, number):
            engine.add_mem_probe(lambda access: seen.append(access.addr))
            return None

        source = f"""
            movi a0, {RAM_BASE}
            movi t0, 0
            movi t1, 6
        loop:
            st32 t0, [a0]
            addi t0, t0, 1
            blt  t0, t1, loop
            vmcall 7
            movi t0, 0
            jmp  loop2
        loop2:
            st32 t0, [a0 + 4]
            addi t0, t0, 1
            blt  t0, t1, loop2
            hlt
        """
        core, _ = make_core(source, hypercall=hypercall)
        core.run()
        assert core.tb_chain_hits > 0
        # only the six post-VMCALL stores are probed
        assert seen == [RAM_BASE + 4] * 6

    def test_self_modifying_code_retranslates(self):
        """A store into translated text must invalidate the stale blocks."""
        # patch_target starts as `movi a1, 7`; the program overwrites its
        # 8 encoded bytes with `movi a1, 42` (op=0x26 rd=2 in the low
        # word, the new immediate in the high word) before jumping back
        # through it
        source = """
            jmp  start
        patch_target:
            movi a1, 7
            hlt
        start:
            movi t0, 8         ; address of patch_target
            call warm
            movi t1, 0x0226    ; MOVI encoding low half: op=0x26 rd=2
            st32 t1, [t0]
            movi t2, 42        ; imm word
            st32 t2, [t0 + 4]
            jmp  patch_target
        warm:
            ret
        """
        core, _ = make_core(source, text_perm=Perm.RWX)
        ref, _ = make_core(source, "interp", text_perm=Perm.RWX)
        core.run()
        ref.run()
        assert core.state.read(2) == 42  # not the stale 7
        assert core.state.regs == ref.state.regs
        assert core.tb_flush_count >= 1

    def test_bulk_write_into_code_flushes(self):
        """Bulk writes (write_bytes/fill/copy/DMA family) into translated
        code bypass the scalar-store templates; the bus write watcher must
        flush so re-execution sees the patched image."""
        source = """
            movi a1, 7
            hlt
        """
        core, _ = make_core(source, text_perm=Perm.RWX)
        core.run()
        assert core.state.read(2) == 7
        flushes = core.tb_flush_count
        patched = assemble("    movi a1, 42\n    hlt").image
        core.bus.write_bytes(0, patched)
        assert core.tb_flush_count == flushes + 1
        core.state.halted = False
        core.state.pc = 0
        core.run()
        assert core.state.read(2) == 42

    def test_bulk_write_outside_code_does_not_flush(self):
        core, _ = make_core(MIXED_PROGRAM)
        core.run()
        flushes = core.tb_flush_count
        core.bus.write_bytes(RAM_BASE, b"\x00" * 64)
        assert core.tb_flush_count == flushes


class TestCacheCapacity:
    def test_eviction_counter_and_correctness(self):
        blocks = "\n".join(
            f"b{i}:\n    addi a0, a0, {i + 1}\n    jmp b{i + 1}"
            for i in range(12)
        )
        source = f"    jmp b0\n{blocks}\nb12:\n    hlt"
        core, _ = make_core(source, tb_cache_capacity=4)
        core.run()
        assert core.tb_evictions > 0
        assert len(core.tb_cache) <= 4
        assert core.state.read(1) == sum(range(1, 13))

    def test_unbounded_default_keeps_everything(self):
        core, _ = make_core(MIXED_PROGRAM)
        core.run()
        assert core.tb_evictions == 0

    def test_eviction_severs_chain_links(self):
        """An evicted block must not stay executable through chained
        links: eviction kills its generation so every incoming link
        misses, making the capacity a bound on live translations."""
        core, _ = make_core(STRAIGHT_LINE, tb_cache_capacity=2)
        first = core.translate(0)
        second = core.translate(first.end_pc)
        core.translate(second.end_pc)  # evicts the oldest (first)
        assert core.tb_evictions == 1
        assert first.generation != core.tb_generation
        assert second.generation == core.tb_generation

    def test_chain_hit_touches_lru(self):
        """Chain hits bypass translate(); they must still age the target
        in the cache, or the hottest loop blocks evict first."""
        calls = []

        def hypercall(engine, number):
            calls.append(number)
            if len(calls) == 3:
                # a colder block enters the cache mid-loop...
                engine.translate(OTHER_PC)
            return None

        source = """
            movi t1, 6
        loop:
            vmcall 0
            addi t0, t0, 1
            blt  t0, t1, loop
            hlt
        other:
            hlt
        """
        OTHER_PC = 5 * INSN_SIZE
        loop_pc = 1 * INSN_SIZE
        core, _ = make_core(source, hypercall=hypercall)
        core.run()
        assert core.tb_chain_hits > 0
        order = list(core.tb_cache)
        # ...but the loop block, hit only via its own chain link after
        # that point, must be younger than the cold block
        assert order.index(loop_pc) > order.index(OTHER_PC)


class TestModeEquivalence:
    @pytest.mark.parametrize("source", [STRAIGHT_LINE, MIXED_PROGRAM])
    def test_tcg_cpu_identical(self, source):
        core, _ = make_core(source, "tcg")
        ref, _ = make_core(source, "interp")
        core.run()
        ref.run()
        assert core.state.regs == ref.state.regs
        assert core.state.pc == ref.state.pc
        assert ref.state.halted and core.state.halted
        assert ram_bytes(core) == ram_bytes(ref)
        # accounting parity: the calibrated figure-2 bands depend on it
        assert core.cycles == ref.cycles
        assert core.insn_count == ref.insn_count

    def test_probed_equals_unprobed_state(self):
        plain, _ = make_core(MIXED_PROGRAM)
        probed, _ = make_core(MIXED_PROGRAM)
        seen = []
        probed.add_mem_probe(lambda access: seen.append(access))
        plain.run()
        probed.run()
        assert seen  # the probe actually fired
        assert plain.state.regs == probed.state.regs
        assert plain.state.pc == probed.state.pc
        assert ram_bytes(plain) == ram_bytes(probed)
        assert plain.cycles == probed.cycles
        assert plain.insn_count == probed.insn_count

    def test_probed_modes_see_identical_accesses(self):
        """The probes the TCG templates call see exactly the accesses the
        reference ``Cpu`` sends through the traced bus."""
        streams = {}
        for mode in ("tcg", "interp"):
            core, _ = make_core(MIXED_PROGRAM, mode)
            seen = []

            def record(a, seen=seen):
                seen.append((a.addr, a.size, a.is_write, a.pc, a.atomic))

            if mode == "tcg":
                core.add_mem_probe(record)
            else:
                core.bus.add_observer(record)
            core.run()
            streams[mode] = seen
        assert streams["tcg"]
        assert streams["tcg"] == streams["interp"]

    def test_chain_hit_counter(self):
        core, _ = make_core(MIXED_PROGRAM)
        core.run()
        assert core.tb_chain_hits > 0


#: an unknown opcode, then register fields naming no register (>= NUM_REGS)
BAD_SLOTS = [bytes([0xEE]) + bytes(7)] + [encode(insn) for insn in (
    Instruction(Op.ADD, 20, 1, 2),
    Instruction(Op.ADDI, 1, 200, 0, imm=3),
    Instruction(Op.MOVI, 16, imm=5),
)]

#: a chained loop (r5 counts to 5), then
#: ``addi r1,r1,1; addi r2,r2,7`` ahead of the slot under test
PRELUDE = (
    Instruction(Op.MOVI, 6, imm=5),
    Instruction(Op.ADDI, 5, 5, imm=1),
    Instruction(Op.BLT, 0, 5, 6, imm=INSN_SIZE),
    Instruction(Op.ADDI, 1, 1, imm=1),
    Instruction(Op.ADDI, 2, 2, imm=7),
)


def fault_outcome(image, engine, **kw):
    """Run ``image`` to its fault; returns the observable end state."""
    core, _ = make_core(image, engine, **kw)
    with pytest.raises(GuestFault) as info:
        core.run()
    return (type(info.value), core.state.pc, tuple(core.state.regs),
            core.insn_count, core.cycles, core.state.halted)


class TestUndecodableCode:
    """A slot the engine cannot fetch or decode faults when execution
    reaches it, after the instructions ahead of it retire, and halts the
    engine, exactly as the reference ``Cpu.step`` does."""

    @staticmethod
    def check(image, engine, fault, **kw):
        ref = fault_outcome(image, "interp", **kw)
        # 1 + 5 loop passes of 2 + the two addis retire, 1 cycle each
        assert ref[0] is fault
        assert ref[1] == len(PRELUDE) * INSN_SIZE
        assert ref[2][1:3] == (1, 7)
        assert ref[3:] == (13, 13, True)
        assert fault_outcome(image, engine, **kw) == ref

    @pytest.mark.parametrize("bad", BAD_SLOTS, ids=lambda b: b[:4].hex())
    @pytest.mark.parametrize("engine", ["tcg"])
    def test_bad_slot_mid_block(self, engine, bad):
        image = b"".join(map(encode, PRELUDE)) + bad + encode(Instruction(Op.HLT))
        self.check(image, engine, InvalidOpcode)

    @pytest.mark.parametrize("engine", ["tcg"])
    def test_block_runs_off_mapped_text(self, engine):
        image = b"".join(map(encode, PRELUDE))
        self.check(image, engine, BusError, text_size=len(image))


class TestReplaySuiteEquivalence:
    """Bit-identical state on the bug-replay corpus.

    The VxWorks firmware is the corpus' EVM32/TCG consumer (its service
    blobs execute on the engine); replay each of its bugs under the TCG
    engine and under the reference ``Cpu`` swapped in for it, and
    require identical detection and machine state.
    """

    ENGINES = {"tcg": TcgEngine, "cpu": Cpu}

    @pytest.mark.parametrize(
        "record", table4_bugs_for("TP-Link WDR-7660"), ids=lambda r: r.bug_id
    )
    def test_vxworks_replay_identical(self, record, monkeypatch):
        outcomes = {}
        for name, cls in self.ENGINES.items():
            monkeypatch.setattr("repro.emulator.machine.TcgEngine", cls)
            result = replay_on_embsan(record, InstrumentationMode.EMBSAN_D)
            outcomes[name] = (
                result.detected, result.crashed,
                [(r.bug_type, r.addr, r.pc) for r in result.reports],
            )
        assert outcomes["tcg"][0]
        assert outcomes["tcg"] == outcomes["cpu"]

    @pytest.mark.parametrize(
        "record", table4_bugs_for("TP-Link WDR-7660"), ids=lambda r: r.bug_id
    )
    def test_vxworks_machine_state_identical(self, record, monkeypatch):
        from repro.bugs.replay import _build_for_record, run_program
        from repro.firmware.builder import attach_runtime

        states = {}
        for name, cls in self.ENGINES.items():
            monkeypatch.setattr("repro.emulator.machine.TcgEngine", cls)
            image = _build_for_record(record, InstrumentationMode.EMBSAN_D)
            runtime = attach_runtime(image, sanitizers=("kasan",))
            image.boot()
            fault = run_program(image, record.reproducer, record.interface)
            cpu = image.kernel.cpu
            assert type(cpu) is cls
            states[name] = (
                tuple(cpu.state.regs), cpu.state.pc, cpu.state.halted,
                cpu.cycles, cpu.insn_count, fault is None,
                runtime.sink.unique_count(),
            )
        assert states["tcg"][4] > 0
        assert states["tcg"] == states["cpu"]


SMC_IN_LOOP = """
    movi t1, 6
    movi s0, 136        ; address of patch_target
    movi a2, 3          ; iterations that store into ram first
    lui  s2, 1          ; ram scratch (RAM_BASE)
loop:
    slt  a3, t0, a2     ; 1 for the first iterations, then 0
    sub  s3, s2, s0
    mul  s3, s3, a3
    add  s3, s3, s0     ; target: ram early, patch_target late
    movi t2, 0x0226     ; MOVI encoding low half: op=0x26 rd=2
    st32 t2, [s3]       ; rewrite patch_target's opcode word (same bytes)
    addi t3, t0, 40
    st32 t3, [s3 + 4]   ; new immediate: 40 + i
    call patch_target
    add  s1, s1, a1
    addi t0, t0, 1
    blt  t0, t1, loop
    hlt
patch_target:
    movi a1, 7
    ret
"""


#: the hot loop's inner-loop block and the blocks that leave and
#: re-enter it (ret, addi/blt, call, body prologue)
_INNER, _RET, _OUTER, _CALL, _BODY = (
    0x8000058, 0x80000A8, 0x8000030, 0x8000028, 0x8000048)
_OUTER_EXIT = (_RET, _OUTER, _CALL, _BODY)

#: insn budget -> (trip pc, GuestHang.insns, 16-entry backtrace,
#: overhead ledger total in centi-cycles) of the 50-iteration hot loop:
#: literal values that pin the per-block watchdog metering inlined in
#: TcgEngine.run
WATCHDOG_GOLDEN = {
    1: (_BODY, 6, (_BODY,), 100),
    6: (_INNER, 18, (_BODY, _INNER), 200),
    19: (_INNER, 28, (_BODY, _INNER, _INNER), 300),
    257: (_INNER, 264, (_INNER,) * 11 + _OUTER_EXIT + (_INNER,), 2900),
    4999: (_INNER, 5008,
           (_INNER,) * 4 + _OUTER_EXIT + (_INNER,) * 8, 54900),
    6000: (_INNER, 6002,
           (_INNER,) * 3 + _OUTER_EXIT + (_INNER,) * 9, 65800),
}


class TestCpuOracle:
    """The TCG engine against the reference ``Cpu`` on the events that
    tear translations down or stop a run part-way: self-modifying code,
    watchdog trips, fork-server restores and injected bus faults."""

    def test_smc_store_into_chained_loop(self):
        core, _ = make_core(SMC_IN_LOOP, "tcg", text_perm=Perm.RWX)
        ref, _ = make_core(SMC_IN_LOOP, "interp", text_perm=Perm.RWX)
        for engine in (core, ref):
            engine.run()
        # the callee was translated and chained before its own caller
        # patched it, so every patch had to flush
        assert core.tb_flush_count >= 3
        assert core.state.regs == ref.state.regs
        assert core.state.pc == ref.state.pc
        assert core.cycles == ref.cycles
        assert core.insn_count == ref.insn_count
        # a1 took the patched immediate, not the stale 7
        assert core.state.read(2) == 45
        # 3 calls at 7, then the patched 43 + 44 + 45
        assert core.state.read(10) == 7 * 3 + 43 + 44 + 45

    @settings(max_examples=25, deadline=None)
    @given(budget=st.integers(1, 6000))
    @example(budget=1)
    @example(budget=6)
    @example(budget=19)
    @example(budget=257)
    @example(budget=4999)
    @example(budget=6000)
    def test_watchdog_trip_matches_cpu(self, budget):
        """TCG charges the watchdog once per block, so it trips at the
        end of the block that crosses the budget: never early, less than
        one block late, in exactly the state ``Cpu`` reaches after the
        same number of instructions.  At the budgets in
        ``WATCHDOG_GOLDEN`` the trip matches a recorded one exactly."""
        from repro.bench.tcg_profile import _make_machine

        machine, core = _make_machine("tcg", False, iterations=50)
        machine.set_watchdog(insn_budget=budget)
        with pytest.raises(GuestHang) as info:
            core.run(max_steps=1_000_000)
        assert machine.watchdog.trips == 1
        assert core.state.halted
        if budget in WATCHDOG_GOLDEN:
            hang = info.value
            assert (hang.pc, hang.insns, hang.backtrace,
                    machine.ledger.total()) == WATCHDOG_GOLDEN[budget]

        ref_machine, ref = _make_machine("interp", False, iterations=50)
        ref_machine.set_watchdog(insn_budget=budget)
        with pytest.raises(GuestHang):
            ref.run(max_steps=1_000_000)
        assert ref.insn_count == budget + 1

        assert budget + 1 <= core.insn_count < budget + 1 + MAX_BLOCK_LEN
        _, free = _make_machine("interp", False, iterations=50)
        assert free.run(max_steps=core.insn_count) == core.insn_count
        assert (tuple(core.state.regs), core.state.pc, core.cycles) == (
            tuple(free.state.regs), free.state.pc, free.cycles
        )

    def test_forkserver_restore_after_translation(self):
        from repro.bench.tcg_profile import _make_machine
        from repro.emulator.snapshot import ForkServer

        def run_out(core):
            core.run(max_steps=5_000_000)
            assert core.state.halted
            return (tuple(core.state.regs), core.state.pc, core.cycles,
                    core.insn_count)

        machine, core = _make_machine("tcg", False, iterations=30)
        fork = ForkServer(machine)
        first = run_out(core)
        assert core.tb_cache
        fork.restore()
        # the golden rewind restores the register file in place, so the
        # cached thunks (which bind it by identity) stay coherent
        second = run_out(core)
        _, fresh = _make_machine("tcg", False, iterations=30)
        assert second == first == run_out(fresh)

    def test_fault_plan_identity(self):
        from repro.emulator.faults import plan_for

        states = {}
        for engine in ("interp", "tcg"):
            core, _ = make_core(MIXED_PROGRAM, engine)
            core.bus.fault_plan = plan_for(
                "bitflip:0x10000-0x14000:p=0.2", seed=7
            )
            core.run()
            states[engine] = (
                tuple(core.state.regs), core.state.pc, core.cycles,
                core.insn_count, ram_bytes(core),
            )
        assert states["interp"] == states["tcg"]


class TestSignExtensionHelper:
    @pytest.mark.parametrize("op,value,expect", [
        (Op.LD8S, 0x7F, 0x7F),
        (Op.LD8S, 0x80, -0x80),
        (Op.LD8S, 0xFF, -1),
        (Op.LD16S, 0x7FFF, 0x7FFF),
        (Op.LD16S, 0x8000, -0x8000),
        (Op.LD16S, 0xFFFF, -1),
        (Op.LD8, 0xFF, 0xFF),
        (Op.LD32, 0xFFFFFFFF, 0xFFFFFFFF),
    ])
    def test_apply_load_sign(self, op, value, expect):
        assert apply_load_sign(op, value) == expect


class TestShadowFastPath:
    def make_shadow(self):
        bus = MemoryBus()
        bus.map(MemoryRegion("ram", 0x1000, 0x1000, Perm.RW, "ram"))
        return ShadowMemory(bus)

    def test_clean_granules_are_clear(self):
        shadow = self.make_shadow()
        assert shadow.clear_for(0x1000, 8)
        assert shadow.clear_for(0x1FF8, 8)  # last granule
        assert shadow.check_ops == 2

    def test_poisoned_granule_rejected_without_counting(self):
        shadow = self.make_shadow()
        shadow.poison(0x1100, 32, ShadowCode.REDZONE_HEAP)
        before = shadow.check_ops
        assert not shadow.clear_for(0x1100, 4)
        assert not shadow.clear_for(0x10F8, 16)  # straddles into poison
        assert shadow.check_ops == before  # the full check does the count

    def test_partial_granule_falls_to_slow_path(self):
        shadow = self.make_shadow()
        shadow.poison(0x1104, 12, ShadowCode.REDZONE_HEAP)  # 0x1100: partial 4
        assert not shadow.clear_for(0x1100, 4)  # in-bounds but non-zero byte
        # ... and the slow path then validates it as fine
        assert shadow.check(0x1100, 4) is None

    def test_unshadowed_is_clear_and_uncounted(self):
        shadow = self.make_shadow()
        before = shadow.check_ops
        assert shadow.clear_for(0xDEAD0000, 4)
        assert shadow.check_ops == before


#: sram offsets of the heap objects the differential programs address:
#: (offset, size, freed).  Each object leaves clean granules, a partial
#: tail granule and a trailing redzone; the freed one is poisoned whole.
_DIFF_HEAP = ((0x100, 13, False), (0x140, 30, False), (0x180, 24, True))
_DIFF_MEM_OPS = ("ld8", "ld8s", "ld16", "ld16s", "ld32", "lda32",
                 "st8", "st16", "st32", "sta32")

_diff_op = st.one_of(
    # offsets span clean memory, partial granules, redzones, freed
    # memory and accesses straddling two granules
    st.tuples(st.sampled_from(_DIFF_MEM_OPS), st.integers(0xF0, 0x1C0),
              st.integers(0, 0xFFFF)),
    # a hypercall that flips one runtime gate mid-run
    st.tuples(st.just("vmcall"), st.integers(0, 2), st.just(0)),
)


def _diff_source(ops):
    lines = ["    lui a0, 0x2000"]  # sram base 0x20000000
    for mnemonic, arg, value in ops:
        if mnemonic == "vmcall":
            lines.append(f"    vmcall {arg}")
        elif mnemonic.startswith("st"):
            lines.append(f"    movi t0, {value}")
            lines.append(f"    {mnemonic} t0, [a0 + {arg}]")
        else:
            lines.append(f"    {mnemonic} t1, [a0 + {arg}]")
            lines.append("    add t2, t2, t1")
    lines.append("    hlt")
    return "\n".join(lines)


def _diff_run(source, sanitizers, gates, with_clean):
    """Run ``source`` on a fresh machine whose TCG engine carries the
    runtime's delegate, with or without its clean-access test."""
    from repro.emulator.arch import arch_by_name
    from repro.emulator.machine import Machine
    from repro.fuzz.checkpoint import _report_to_json
    from repro.sanitizers.runtime.runtime import (
        CommonSanitizerRuntime,
        RuntimeConfig,
    )

    machine = Machine(arch_by_name("arm"), name="tcg-diff")
    program = assemble(source, base=0x0800_0000)
    with machine.bus.untraced():
        machine.bus.region_named("flash").write(0x0800_0000, program.image)
    runtime = CommonSanitizerRuntime(
        machine, RuntimeConfig(sanitizers=sanitizers, mode="d"))
    kasan = runtime.kasan
    for offset, size, freed in _DIFF_HEAP:
        kasan.on_alloc(0x2000_0000 + offset, size, 1, pc=offset)
        if freed:
            kasan.on_free(0x2000_0000 + offset, pc=offset + 1)
    runtime.enabled, runtime._suppress, kasan.suppress_depth = gates

    def flip(engine, number):
        if number == 0:
            runtime.enabled = not runtime.enabled
        elif number == 1:
            runtime._suppress ^= 1
        else:
            kasan.suppress_depth ^= 1

    core = machine.add_cpu(pc=0x0800_0000, sp=0x2000_4000)
    core.hypercall = flip
    if with_clean:
        assert (runtime._clean_cb is None) == ("kcsan" in sanitizers)
        core.add_mem_probe(runtime._probe_cb, clean=runtime._clean_cb)
    else:
        core.add_mem_probe(runtime._probe_cb)
    core.run()
    assert core.state.halted
    with machine.bus.untraced():
        sram = machine.bus.read_bytes(0x2000_0000, 0x200)
    return {
        "state": (tuple(core.state.regs), core.state.pc, core.cycles,
                  core.insn_count, sram),
        "reports": [_report_to_json(r) for r in runtime.sink.reports],
        "ledger": machine.ledger.save(),
        "counters": (runtime.events_handled, kasan.checks,
                     runtime.shadow.check_ops, runtime.shadow.fastpath_hits),
    }


class TestCleanAccessTest:
    """Templates that take the runtime's clean-access test first behave
    exactly like templates that hand every access to its ``Access``
    delegate: same state, same reports, same overhead ledger counts,
    same counters."""

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_diff_op, min_size=1, max_size=40),
           gates=st.sampled_from([(True, 0, 0)] * 4 + [
               (False, 0, 0), (True, 1, 0), (True, 0, 1)]),
           kcsan=st.booleans())
    def test_clean_test_matches_access_delegate(self, ops, gates, kcsan):
        sanitizers = ("kasan", "kcsan") if kcsan else ("kasan",)
        source = _diff_source(ops)
        fast = _diff_run(source, sanitizers, gates, with_clean=True)
        slow = _diff_run(source, sanitizers, gates, with_clean=False)
        assert fast == slow
