"""EVM32 instruction definitions and binary encoding.

Every instruction occupies exactly :data:`INSN_SIZE` bytes:

====== ======= =====================================
offset width   field
====== ======= =====================================
0      1 byte  opcode (:class:`Op` value)
1      1 byte  rd   — destination register index
2      1 byte  rs1  — first source register index
3      1 byte  rs2  — second source register index
4      4 bytes imm  — signed 32-bit immediate (LE)
====== ======= =====================================

The fixed width keeps decode trivial and makes basic-block discovery in
the TCG engine and the Prober's binary scans exact.

ABI (used by the assembler's ``call`` convention and the hypercall layer):
``r0`` reads as zero, ``r1``–``r4`` carry arguments and ``r1`` the return
value, ``r14`` is the stack pointer, ``r15`` the link register.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import InvalidOpcode

#: Size in bytes of every encoded EVM32 instruction.
INSN_SIZE = 8

#: Number of general-purpose registers.
NUM_REGS = 16

_U32 = 0xFFFFFFFF


class Reg(enum.IntEnum):
    """Register names; ZERO is hardwired to 0, SP/LR follow the ABI."""

    ZERO = 0
    A0 = 1
    A1 = 2
    A2 = 3
    A3 = 4
    T0 = 5
    T1 = 6
    T2 = 7
    T3 = 8
    S0 = 9
    S1 = 10
    S2 = 11
    S3 = 12
    GP = 13
    SP = 14
    LR = 15


class Op(enum.IntEnum):
    """EVM32 opcodes."""

    # control / misc
    NOP = 0x00
    HLT = 0x01
    BRK = 0x02
    VMCALL = 0x03  # hypercall: number in imm, args in r1..r4

    # ALU register-register
    ADD = 0x10
    SUB = 0x11
    MUL = 0x12
    DIVU = 0x13
    REMU = 0x14
    AND = 0x15
    OR = 0x16
    XOR = 0x17
    SHL = 0x18
    SHR = 0x19
    SRA = 0x1A
    SLT = 0x1B  # rd = (rs1 <s rs2)
    SLTU = 0x1C  # rd = (rs1 <u rs2)

    # ALU register-immediate
    ADDI = 0x20
    ANDI = 0x21
    ORI = 0x22
    XORI = 0x23
    SHLI = 0x24
    SHRI = 0x25
    MOVI = 0x26  # rd = imm
    LUI = 0x27  # rd = imm << 16
    MOV = 0x28  # rd = rs1

    # memory: address = rs1 + imm
    LD8 = 0x30
    LD16 = 0x31
    LD32 = 0x32
    LD8S = 0x33
    LD16S = 0x34
    ST8 = 0x38
    ST16 = 0x39
    ST32 = 0x3A
    LDA32 = 0x3B  # atomic load  (KCSAN: marked access)
    STA32 = 0x3C  # atomic store (KCSAN: marked access)

    # control flow: target is absolute imm unless register form
    JMP = 0x40
    JR = 0x41  # jump to rs1
    BEQ = 0x42
    BNE = 0x43
    BLT = 0x44
    BLTU = 0x45
    BGE = 0x46
    BGEU = 0x47
    CALL = 0x48  # lr = pc + 8; pc = imm
    CALLR = 0x49  # lr = pc + 8; pc = rs1
    RET = 0x4A  # pc = lr


#: Opcodes that terminate a basic block in the TCG engine.
BLOCK_TERMINATORS = frozenset(
    {
        Op.HLT,
        Op.BRK,
        Op.JMP,
        Op.JR,
        Op.BEQ,
        Op.BNE,
        Op.BLT,
        Op.BLTU,
        Op.BGE,
        Op.BGEU,
        Op.CALL,
        Op.CALLR,
        Op.RET,
    }
)

#: Opcodes that read or write data memory, keyed to (size, is_write, atomic).
MEM_OPS = {
    Op.LD8: (1, False, False),
    Op.LD16: (2, False, False),
    Op.LD32: (4, False, False),
    Op.LD8S: (1, False, False),
    Op.LD16S: (2, False, False),
    Op.ST8: (1, True, False),
    Op.ST16: (2, True, False),
    Op.ST32: (4, True, False),
    Op.LDA32: (4, False, True),
    Op.STA32: (4, True, True),
}

_VALID_OPCODES = {op.value for op in Op}


class Instruction(NamedTuple):
    """A decoded EVM32 instruction."""

    op: Op
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def is_terminator(self) -> bool:
        """True when this instruction ends a basic block."""
        return self.op in BLOCK_TERMINATORS


def encode(insn: Instruction) -> bytes:
    """Encode an instruction into its 8-byte binary form."""
    imm = insn.imm & _U32
    return bytes(
        (
            insn.op.value,
            insn.rd & 0xFF,
            insn.rs1 & 0xFF,
            insn.rs2 & 0xFF,
            imm & 0xFF,
            (imm >> 8) & 0xFF,
            (imm >> 16) & 0xFF,
            (imm >> 24) & 0xFF,
        )
    )


def decode(blob: bytes, offset: int = 0) -> Instruction:
    """Decode one instruction from ``blob`` at ``offset``.

    Raises :class:`InvalidOpcode` on an unknown opcode byte or a register
    field naming no register (>= :data:`NUM_REGS`), mirroring an
    undefined-instruction fault in hardware.
    """
    if len(blob) - offset < INSN_SIZE:
        raise InvalidOpcode(
            f"truncated instruction: {len(blob) - offset} bytes at {offset}"
        )
    opcode = blob[offset]
    if opcode not in _VALID_OPCODES:
        raise InvalidOpcode(f"invalid opcode byte {opcode:#04x}")
    rd, rs1, rs2 = blob[offset + 1], blob[offset + 2], blob[offset + 3]
    if rd >= NUM_REGS or rs1 >= NUM_REGS or rs2 >= NUM_REGS:
        raise InvalidOpcode(
            f"invalid register field in {Op(opcode).name.lower()}: "
            f"rd={rd} rs1={rs1} rs2={rs2}"
        )
    imm = int.from_bytes(blob[offset + 4 : offset + 8], "little")
    if imm >= 1 << 31:
        imm -= 1 << 32
    return Instruction(Op(opcode), rd, rs1, rs2, imm)


def apply_load_sign(op: Op, value: int) -> int:
    """Sign-extend a loaded ``value`` for the signed load opcodes.

    LD8S/LD16S load 1/2 bytes and sign-extend into the 32-bit register;
    every other load returns the raw zero-extended value.
    """
    if op is Op.LD8S and value >= 0x80:
        return value - 0x100
    if op is Op.LD16S and value >= 0x8000:
        return value - 0x10000
    return value


def sign32(value: int) -> int:
    """Interpret the low 32 bits of ``value`` as a signed integer."""
    value &= _U32
    return value - (1 << 32) if value >= 1 << 31 else value


def u32(value: int) -> int:
    """Truncate ``value`` to an unsigned 32-bit integer."""
    return value & _U32
