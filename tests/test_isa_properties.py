"""Property tests: engine equivalence and encoding invariants."""

import random
from typing import NamedTuple, Tuple

from hypothesis import assume, given, settings, strategies as st

from repro.errors import GuestFault
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu
from repro.isa.insn import INSN_SIZE, MEM_OPS, Instruction, Op, decode, encode
from repro.isa.tcg import TcgEngine
from repro.mem.bus import MemoryBus
from repro.mem.regions import MemoryRegion, Perm

RAM_BASE = 0x10000

#: ALU ops safe for random straight-line programs
_ALU3 = (Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
         Op.SRA, Op.SLT, Op.SLTU, Op.DIVU, Op.REMU)
_ALUI = (Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SHLI, Op.SHRI, Op.MOVI,
         Op.LUI, Op.MOV)

#: keep the loop counter (r13, below), sp and lr out of random clobbering
regs = st.integers(0, 12)
imms = st.integers(-(1 << 15), (1 << 15) - 1)

alu_insns = st.one_of(
    st.builds(lambda op, rd, rs1, rs2: Instruction(op, rd, rs1, rs2),
              st.sampled_from(_ALU3), regs, regs, regs),
    st.builds(lambda op, rd, rs1, imm: Instruction(op, rd, rs1, imm=imm),
              st.sampled_from(_ALUI), regs, regs, imms),
)

mem_slots = st.integers(0, 31)


def mem_pair(rng_slot, value_reg, addr_reg):
    """A store/load pair at a fixed in-RAM slot."""
    offset = rng_slot * 8
    return [
        Instruction(Op.MOVI, rd=addr_reg or 1, imm=RAM_BASE + offset),
        Instruction(Op.ST32, rs1=addr_reg or 1, rs2=value_reg),
        Instruction(Op.LD32, rd=value_reg or 1, rs1=addr_reg or 1),
    ]


def run_program(insns, engine_cls):
    bus = MemoryBus()
    bus.map(MemoryRegion("text", 0, 0x8000, Perm.RX, "flash"))
    bus.map(MemoryRegion("ram", RAM_BASE, 0x8000, Perm.RW, "ram"))
    blob = b"".join(encode(insn) for insn in insns) + encode(
        Instruction(Op.HLT)
    )
    with bus.untraced():
        bus.region_named("text").write(0, blob)
    core = engine_cls(bus, pc=0, sp=RAM_BASE + 0x8000)
    core.run(max_steps=len(insns) + 8)
    return core.state.regs, bus.region_named("ram").data


class TestEngineEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(program=st.lists(alu_insns, min_size=1, max_size=40))
    def test_alu_programs_agree(self, program):
        interp_regs, _ = run_program(program, Cpu)
        tcg_regs, _ = run_program(program, TcgEngine)
        assert interp_regs == tcg_regs

    @settings(max_examples=40, deadline=None)
    @given(
        program=st.lists(alu_insns, min_size=1, max_size=20),
        slots=st.lists(st.tuples(mem_slots, regs, st.integers(5, 12)),
                       min_size=1, max_size=6),
    )
    def test_programs_with_memory_agree(self, program, slots):
        full = list(program)
        for slot, value_reg, addr_reg in slots:
            full.extend(mem_pair(slot, value_reg, addr_reg))
        interp_regs, interp_ram = run_program(full, Cpu)
        tcg_regs, tcg_ram = run_program(full, TcgEngine)
        assert interp_regs == tcg_regs
        assert interp_ram == tcg_ram

    @settings(max_examples=40, deadline=None)
    @given(
        program=st.lists(alu_insns, min_size=1, max_size=20),
        seed=st.integers(0, 999),
    )
    def test_probes_do_not_change_semantics(self, program, seed):
        rng = random.Random(seed)
        full = list(program)
        for _ in range(3):
            full.extend(mem_pair(rng.randrange(32), rng.randrange(1, 13),
                                 rng.randrange(1, 13)))
        plain_regs, plain_ram = run_program(full, TcgEngine)

        bus = MemoryBus()
        bus.map(MemoryRegion("text", 0, 0x8000, Perm.RX, "flash"))
        bus.map(MemoryRegion("ram", RAM_BASE, 0x8000, Perm.RW, "ram"))
        blob = b"".join(encode(i) for i in full) + encode(Instruction(Op.HLT))
        with bus.untraced():
            bus.region_named("text").write(0, blob)
        core = TcgEngine(bus, pc=0, sp=RAM_BASE + 0x8000)
        seen = []
        core.add_mem_probe(seen.append)
        core.run(max_steps=len(full) + 8)
        assert core.state.regs == plain_regs
        assert bus.region_named("ram").data == plain_ram
        assert len(seen) == 6  # 3 store/load pairs, each probed


# ----------------------------------------------------------------------
# differential programs: control flow, hypercalls, SMC, bad encodings
#
# A program is a main body of slots, a HLT, then two subroutines.  Each
# slot is an Instruction, raw bytes, or a callable resolving against the
# final layout (branch and call targets, text addresses for SMC stores).
# Forward branches and short counted loops keep most programs
# terminating; stores into the RWX text can still build endless loops,
# and those are filtered out by the step budget.
# ----------------------------------------------------------------------
TEXT_SIZE = 0x1000
#: hypercall number whose handler halts the guest
HALT_CALL = 3
COUNTER = 13
STEP_BUDGET = 600

words = st.integers(-(1 << 31), (1 << 31) - 1)


class Layout(NamedTuple):
    halt: int  # slot index of the main body's HLT
    subs: Tuple[int, ...]  # subroutine entry addresses
    slots: int  # total slot count


def _forward(op, rs1, rs2, skip):
    return lambda i, lay: Instruction(
        op, 0, rs1, rs2, imm=min(i + 1 + skip, lay.halt) * INSN_SIZE
    )


def _call(k):
    return lambda i, lay: Instruction(Op.CALL, imm=lay.subs[k])


def _text_addr(reg, frac, half):
    return lambda i, lay: Instruction(
        Op.MOVI, reg, imm=(frac * lay.slots // 1000) * INSN_SIZE + 4 * half
    )


def _loop(count, body):
    back = len(body) + 1  # slots from the BNE back to the body's start
    return [Instruction(Op.MOVI, COUNTER, imm=count), *body,
            Instruction(Op.ADDI, COUNTER, COUNTER, imm=-1),
            lambda i, lay: Instruction(Op.BNE, 0, COUNTER, 0,
                                       imm=(i - back) * INSN_SIZE)]


_BRANCHES = (Op.BEQ, Op.BNE, Op.BLT, Op.BLTU, Op.BGE, Op.BGEU)
_MEM_WIDTHS = ((Op.ST32, Op.LD32), (Op.ST16, Op.LD16S), (Op.ST8, Op.LD8S),
               (Op.STA32, Op.LDA32))
_BAD_SLOTS = (bytes([0xEE]) + bytes(7),
              encode(Instruction(Op.ADD, 20, 1, 2)),
              encode(Instruction(Op.ADDI, 1, 200, 0, imm=3)),
              encode(Instruction(Op.MOVI, 16, imm=5)))

#: any encodable instruction, register fields past NUM_REGS included
wild_insns = st.builds(Instruction, st.sampled_from(list(Op)),
                       st.integers(0, 17), st.integers(0, 17),
                       st.integers(0, 17), words)
#: one 32-bit half of a wild instruction's encoding, as a MOVI immediate
insn_words = st.builds(
    lambda insn, half: int.from_bytes(encode(insn)[4 * half:4 * half + 4],
                                      "little", signed=True),
    wild_insns, st.integers(0, 1))

hypercalls = st.builds(lambda nr: Instruction(Op.VMCALL, imm=nr),
                       st.integers(0, HALT_CALL))

items = st.one_of(
    alu_insns.map(lambda insn: [insn]),
    # store then load back through one in-RAM slot
    st.builds(lambda widths, slot, addr, value, dest: [
        Instruction(Op.MOVI, addr, imm=RAM_BASE + slot * 8),
        Instruction(widths[0], rs1=addr, rs2=value),
        Instruction(widths[1], rd=dest, rs1=addr),
    ], st.sampled_from(_MEM_WIDTHS), mem_slots, st.integers(1, COUNTER - 1),
        regs, regs),
    # an access anywhere around RAM, or anywhere at all: edges and holes
    st.builds(lambda op, addr, reg, where: [
        Instruction(Op.MOVI, addr, imm=where),
        Instruction(op, rd=reg, rs1=addr, rs2=reg),
    ], st.sampled_from(list(MEM_OPS)), st.integers(1, COUNTER - 1), regs,
        st.one_of(st.integers(RAM_BASE - 8, RAM_BASE + 0x8000 + 8), words)),
    st.builds(lambda op, rs1, rs2, skip: [_forward(op, rs1, rs2, skip)],
              st.sampled_from(_BRANCHES), regs, regs,
              st.integers(0, 6)),
    st.builds(lambda skip: [_forward(Op.JMP, 0, 0, skip)], st.integers(0, 6)),
    st.builds(lambda k: [_call(k)], st.integers(0, 1)),
    hypercalls.map(lambda insn: [insn]),
    # self-modifying store into the RWX text: an instruction word or noise
    st.builds(lambda addr, value, frac, half, word: [
        _text_addr(addr, frac, half),
        Instruction(Op.MOVI, value, imm=word),
        Instruction(Op.ST32, rs1=addr, rs2=value),
    ], st.integers(1, 6), st.integers(7, COUNTER - 1), st.integers(0, 999),
        st.integers(0, 1),
        st.one_of(words, insn_words)),
    st.sampled_from(_BAD_SLOTS).map(lambda raw: [raw]),
    # a short counted loop: exercises chained links and LRU touches
    st.builds(_loop, st.integers(1, 4),
              st.lists(st.one_of(alu_insns, hypercalls), min_size=1,
                       max_size=3)),
)

programs = st.tuples(
    st.lists(items, min_size=1, max_size=12),
    st.lists(st.lists(alu_insns, max_size=3), min_size=2, max_size=2),
)


def layout_image(body_items, subs) -> bytes:
    """Resolve a generated program into its text image."""
    body = [slot for item in body_items for slot in item]
    halt = len(body)
    entries, tail = [], []
    for sub in subs:
        entries.append((halt + 1 + len(tail)) * INSN_SIZE)
        tail.extend(sub)
        tail.append(Instruction(Op.RET))
    slots = body + [Instruction(Op.HLT)] + tail
    lay = Layout(halt, tuple(entries), len(slots))
    out = b""
    for index, slot in enumerate(slots):
        if callable(slot):
            slot = slot(index, lay)
        out += slot if isinstance(slot, bytes) else encode(slot)
    return out


def _hypercall(core, number):
    """Halts, rewrites registers behind the guest's back, or returns."""
    reg_file = core.state.regs
    if number == HALT_CALL:
        core.state.halted = True
        return None
    if number == 2:
        for reg in range(1, COUNTER):
            reg_file[reg] = (reg_file[reg] * 5 + reg) & 0xFFFFFFFF
        return None
    return reg_file[2] * 3 + number




def run_outcome(image: bytes, tier: str) -> dict:
    """Run ``image`` on one tier; returns every observable it leaves."""
    bus = MemoryBus()
    bus.map(MemoryRegion("text", 0, TEXT_SIZE, Perm.RWX, "flash"))
    bus.map(MemoryRegion("ram", RAM_BASE, 0x8000, Perm.RW, "ram"))
    with bus.untraced():
        bus.region_named("text").write(0, image)
    if tier == "cpu":
        core = Cpu(bus, pc=0, sp=RAM_BASE + 0x8000, hypercall=_hypercall)
    else:
        core = TcgEngine(bus, pc=0, sp=RAM_BASE + 0x8000, hypercall=_hypercall)
    fault = None
    try:
        core.run(max_steps=STEP_BUDGET)
    except GuestFault as exc:
        fault = type(exc).__name__
    return {
        "fault": fault,
        "pc": core.state.pc,
        "halted": core.state.halted,
        "regs": tuple(core.state.regs),
        "insns": core.insn_count,
        "cycles": core.cycles,
        "ram": bytes(bus.region_named("ram").data),
        "text": bytes(bus.region_named("text").data),
    }


class TestDifferentialTiers:
    """The TCG engine against the reference Cpu on programs with
    branches, calls, hypercalls, self-modifying stores and undecodable
    slots.  Only programs that halt or fault within the step budget are
    compared: TCG honours ``max_steps`` at block granularity."""

    @settings(max_examples=200, deadline=None)
    @given(program=programs)
    def test_tiers_agree_with_cpu(self, program):
        image = layout_image(*program)
        ref = run_outcome(image, "cpu")
        assume(ref["halted"] or ref["fault"] is not None)
        assert run_outcome(image, "tcg") == ref


class TestEncodingProperties:
    any_insn = st.builds(
        Instruction,
        st.sampled_from(list(Op)),
        st.integers(0, 15), st.integers(0, 15), st.integers(0, 15),
        st.integers(-(1 << 31), (1 << 31) - 1),
    )

    @settings(max_examples=200, deadline=None)
    @given(insn=any_insn)
    def test_encode_decode_roundtrip(self, insn):
        blob = encode(insn)
        assert len(blob) == INSN_SIZE
        assert decode(blob) == insn

    @settings(max_examples=100, deadline=None)
    @given(insn=any_insn)
    def test_disassembly_reassembles(self, insn):
        from repro.isa.disasm import format_insn

        text = format_insn(insn)
        # branch/jump targets render as absolute hex: reassembly of a
        # single line must reproduce the op and registers
        result = assemble(text)
        again = decode(result.image)
        assert again.op is insn.op
        if insn.op not in (Op.NOP, Op.HLT, Op.BRK, Op.RET):
            assert again.imm == insn.imm or again.rs1 == insn.rs1
