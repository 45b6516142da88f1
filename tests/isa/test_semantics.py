"""Hand-typed golden vectors for R32's data-path semantics.

:data:`repro.isa.instructions.SEMANTICS` is the one copy of every
ALU/DIV/MOD opcode's behaviour, shared by the scalar and batch tiers.
These vectors are its independent oracle: every expected result below
was worked out by hand, not computed by the code under test.  Each row
is one instruction and three lanes of ``(a, b, expected)`` with
``a = r1`` and ``b = r2`` loaded from memory; the scalar CPU runs every
lane through ``step()`` and through ``run_block()``, and a 3-lane
:class:`~repro.isa.batch.BatchCpu` runs the three lanes together, so
its columns differ per operand.  ``ZERO`` marks a lane whose divisor is
zero: the scalar CPU raises the exact :class:`CpuError`, and the batch
drains the lane (reason ``div``) before it executes.
"""

import pytest

from repro.isa.batch import BatchCpu
from repro.isa.cpu import Cpu, CpuError, Memory
from repro.isa.instructions import (
    FORMATS,
    SEMANTICS,
    Format,
    Instruction,
    Isa,
    Opcode as O,
)

ZERO = "zero divisor"
B = 0xDEADBEEF  # r2 for I-type rows: never read
RD = 3

#: every opcode the table does *not* cover: memory and control flow
CONTROL = {O.LW, O.SW, O.BEQ, O.BNE, O.BLT, O.BGE, O.J, O.JAL, O.JR,
           O.RETI, O.HALT}


def R(op, *lanes, rd=RD):
    return (op, 0, rd, lanes)


def I(op, imm, *lanes, rd=RD):  # noqa: E741, E743 - format name
    return (op, imm, rd, tuple((a, B, e) for a, e in lanes))


ROWS = [
    R(O.ADD, (0, 0, 0), (1, 0xFFFFFFFF, 0), (0x7FFFFFFF, 1, 0x80000000)),
    R(O.ADD, (0x80000000, 0x80000000, 0),
      (0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFE),
      (0x12345678, 0x11111111, 0x23456789)),
    R(O.ADD, (1, 2, 0), (0xFFFFFFFF, 1, 0), (5, 5, 0), rd=0),
    R(O.SUB, (0, 1, 0xFFFFFFFF), (0x80000000, 1, 0x7FFFFFFF), (1, 1, 0)),
    R(O.SUB, (0x7FFFFFFF, 0xFFFFFFFF, 0x80000000),
      (0, 0x80000000, 0x80000000), (0xFFFFFFFF, 0x7FFFFFFF, 0x80000000)),
    R(O.MUL, (0xFFFFFFFF, 0xFFFFFFFF, 1), (0x7FFFFFFF, 0x7FFFFFFF, 1),
      (0x80000000, 0xFFFFFFFF, 0x80000000)),
    R(O.MUL, (0x10000, 0x10000, 0), (3, 0x7FFFFFFF, 0x7FFFFFFD),
      (0xFFFFFFFF, 2, 0xFFFFFFFE)),
    # DIV truncates toward zero: every sign combination
    R(O.DIV, (7, 2, 3), (0xFFFFFFF9, 2, 0xFFFFFFFD),
      (7, 0xFFFFFFFE, 0xFFFFFFFD)),
    R(O.DIV, (0xFFFFFFF9, 0xFFFFFFFE, 3),
      (0x80000000, 0xFFFFFFFF, 0x80000000), (0x80000000, 1, 0x80000000)),
    R(O.DIV, (0x7FFFFFFF, 0x80000000, 0), (0, 0xFFFFFFFF, 0),
      (0xFFFFFFFF, 0x7FFFFFFF, 0)),
    R(O.DIV, (1, 0, ZERO), (6, 3, 2), (0x80000000, 2, 0xC0000000)),
    R(O.DIV, (1, 0, ZERO), (6, 3, 0), (0, 0, ZERO), rd=0),
    # MOD takes the dividend's sign
    R(O.MOD, (7, 2, 1), (0xFFFFFFF9, 2, 0xFFFFFFFF), (7, 0xFFFFFFFE, 1)),
    R(O.MOD, (0xFFFFFFF9, 0xFFFFFFFE, 0xFFFFFFFF),
      (0x80000000, 0xFFFFFFFF, 0), (0x80000000, 3, 0xFFFFFFFE)),
    R(O.MOD, (5, 0, ZERO), (0xFFFFFFFB, 3, 0xFFFFFFFE),
      (0x7FFFFFFF, 0x80000000, 0x7FFFFFFF)),
    R(O.MOD, (9, 0xFFFFFFFC, 0), (0, 7, 0), (9, 0, ZERO), rd=0),
    R(O.AND, (0xFFFFFFFF, 0x80000000, 0x80000000),
      (0x7FFFFFFF, 0x80000000, 0), (0xF0F0F0F0, 0xFF00FF00, 0xF000F000)),
    R(O.OR, (0x7FFFFFFF, 0x80000000, 0xFFFFFFFF), (0, 0, 0),
      (0xF0F0F0F0, 0x0F0F0000, 0xFFFFF0F0)),
    R(O.XOR, (0xFFFFFFFF, 0x80000000, 0x7FFFFFFF), (1, 1, 0),
      (0xAAAAAAAA, 0x55555555, 0xFFFFFFFF)),
    # register shift amounts use the low five bits only
    R(O.SLL, (1, 0, 1), (1, 31, 0x80000000), (1, 32, 1)),
    R(O.SLL, (1, 33, 2), (0xFFFFFFFF, 4, 0xFFFFFFF0), (0x80000001, 1, 2)),
    R(O.SLL, (0xFFFFFFFF, 0xFFFFFFFF, 0x80000000),
      (0x12345678, 0x20, 0x12345678), (3, 0xFFFFFFE1, 6)),
    R(O.SRL, (0x80000000, 0, 0x80000000), (0x80000000, 31, 1),
      (0x80000000, 32, 0x80000000)),
    R(O.SRL, (0x80000000, 33, 0x40000000), (0xFFFFFFFF, 4, 0x0FFFFFFF),
      (1, 1, 0)),
    R(O.SRA, (0x80000000, 31, 0xFFFFFFFF), (0x80000000, 32, 0x80000000),
      (0x80000000, 33, 0xC0000000)),
    R(O.SRA, (0x7FFFFFFF, 31, 0), (0xFFFFFFF0, 4, 0xFFFFFFFF),
      (0x7FFFFFFF, 0, 0x7FFFFFFF)),
    R(O.SRA, (0xF0000000, 36, 0xFF000000), (0x70000000, 4, 0x07000000),
      (0xFFFFFFFF, 0, 0xFFFFFFFF)),
    R(O.SLT, (0x80000000, 0x7FFFFFFF, 1), (0x7FFFFFFF, 0x80000000, 0),
      (0xFFFFFFFF, 0, 1)),
    R(O.SLT, (0, 0xFFFFFFFF, 0), (1, 1, 0), (0xFFFFFFFE, 0xFFFFFFFF, 1)),
    R(O.SLTU, (0x80000000, 0x7FFFFFFF, 0), (0x7FFFFFFF, 0x80000000, 1),
      (0, 0xFFFFFFFF, 1)),
    R(O.SLTU, (0xFFFFFFFF, 0, 0), (1, 1, 0), (0xFFFFFFFE, 0xFFFFFFFF, 1)),
    # I-type: imm is sign-extended for ADDI/SLTI, zero-extended for
    # the logic ops, and its low five bits are the immediate shifts
    I(O.ADDI, -1, (0, 0xFFFFFFFF), (1, 0), (0x80000000, 0x7FFFFFFF)),
    I(O.ADDI, 1, (0xFFFFFFFF, 0), (0x7FFFFFFF, 0x80000000), (0, 1)),
    I(O.ADDI, -0x8000, (5, 0xFFFF8005), (0x8000, 0), (0, 0xFFFF8000)),
    I(O.ADDI, 0x7FFF, (0, 0x7FFF), (0xFFFFFFFF, 0x7FFE),
      (0x7FFFFFFF, 0x80007FFE)),
    I(O.ANDI, -1, (0xFFFFFFFF, 0xFFFF), (0x12345678, 0x5678),
      (0x80000000, 0)),
    I(O.ANDI, -0x8000, (0xFFFFFFFF, 0x8000), (0x7FFF, 0),
      (0x18000, 0x8000)),
    I(O.ANDI, 0xFF, (0x12345678, 0x78), (0, 0), (0xFFFFFFFF, 0xFF)),
    I(O.ORI, -1, (0, 0xFFFF), (0xFFFF0000, 0xFFFFFFFF),
      (0x80000000, 0x8000FFFF)),
    I(O.ORI, -0x8000, (0x80000000, 0x80008000), (0, 0x8000),
      (0xFFFFFFFF, 0xFFFFFFFF)),
    I(O.ORI, 0x5678, (0x12340000, 0x12345678), (0, 0x5678), (1, 0x5679)),
    I(O.XORI, -1, (0xFFFFFFFF, 0xFFFF0000), (0, 0xFFFF),
      (0x80000000, 0x8000FFFF)),
    I(O.XORI, -0x8000, (0, 0x8000), (0x8000, 0), (0xFFFFFFFF, 0xFFFF7FFF)),
    I(O.XORI, 0xFF, (0xFFFF, 0xFF00), (0xFF, 0), (0x80000000, 0x800000FF)),
    I(O.SLLI, 0, (1, 1), (0xFFFFFFFF, 0xFFFFFFFF), (0x80000000, 0x80000000)),
    I(O.SLLI, 31, (1, 0x80000000), (3, 0x80000000), (2, 0)),
    I(O.SLLI, 32, (1, 1), (0x80000000, 0x80000000), (0x12345678, 0x12345678)),
    I(O.SLLI, 33, (1, 2), (0x80000000, 0), (0xC0000001, 0x80000002)),
    I(O.SLLI, -1, (1, 0x80000000), (0xFFFFFFFF, 0x80000000), (0, 0)),
    I(O.SRLI, 0, (0x80000000, 0x80000000), (1, 1), (0xFFFFFFFF, 0xFFFFFFFF)),
    I(O.SRLI, 31, (0x80000000, 1), (0xFFFFFFFF, 1), (0x7FFFFFFF, 0)),
    I(O.SRLI, 32, (0x80000000, 0x80000000), (3, 3), (0, 0)),
    I(O.SRLI, 33, (0x80000000, 0x40000000), (0xFFFFFFFF, 0x7FFFFFFF),
      (3, 1)),
    I(O.SLTI, 0, (0xFFFFFFFF, 1), (0, 0), (0x7FFFFFFF, 0)),
    I(O.SLTI, -1, (0, 0), (0xFFFFFFFE, 1), (0xFFFFFFFF, 0)),
    I(O.SLTI, -0x8000, (0x80000000, 1), (0xFFFF8000, 0), (0xFFFF7FFF, 1)),
    I(O.SLTI, 0x7FFF, (0x7FFFFFFF, 0), (0x7FFE, 1), (0x80000000, 1)),
    # LUI ignores rs1
    I(O.LUI, 0x1234, (0, 0x12340000), (0xFFFFFFFF, 0x12340000),
      (1, 0x12340000)),
    I(O.LUI, -1, (0, 0xFFFF0000), (0x80000000, 0xFFFF0000), (7, 0xFFFF0000)),
    I(O.LUI, -0x8000, (0, 0x80000000), (1, 0x80000000), (2, 0x80000000)),
    I(O.LUI, 0, (0xFFFFFFFF, 0), (1, 0), (2, 0)),
    I(O.LUI, -1, (0, 0), (1, 0), (2, 0), rd=0),
]


def _row_id(row):
    op, imm, rd, lanes = row
    return f"{op.name.lower()}-imm{imm}-rd{rd}-{lanes[0][0]:#x}"


def _image(op, imm, rd):
    """``lw r1, 100(r0); lw r2, 101(r0); <op> rd, r1, (r2|imm); halt``"""
    isa = Isa()
    if FORMATS[op] is Format.R:
        instr = Instruction(op, rd=rd, rs1=1, rs2=2)
    else:
        instr = Instruction(op, rd=rd, rs1=1, imm=imm)
    code = [Instruction(O.LW, rd=1, rs1=0, imm=100),
            Instruction(O.LW, rd=2, rs1=0, imm=101),
            instr, Instruction(O.HALT)]
    return isa, {i: isa.encode(x) for i, x in enumerate(code)}


def _check_regs(cpu, a, b, rd, result):
    """Only ``rd`` changed, to ``result``; registers hold plain ints
    (an SLT result must not land in a record as a bool)."""
    regs = [0] * 16
    regs[1], regs[2] = a, b
    if rd:
        regs[rd] = result
    assert cpu.regs == regs, (a, b)
    assert all(type(v) is int for v in cpu.regs)


def _zero_message(op):
    return "division by zero" if op == O.DIV else "modulo by zero"


def _scalar(op, imm, rd, a, b):
    isa, image = _image(op, imm, rd)
    mem = Memory()
    mem.load_image(image)
    mem.ram[100], mem.ram[101] = a, b
    return Cpu(isa, mem)


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_step(row):
    op, imm, rd, lanes = row
    for a, b, expected in lanes:
        cpu = _scalar(op, imm, rd, a, b)
        cpu.step()
        cpu.step()
        if expected is ZERO:
            with pytest.raises(CpuError, match=f"^{_zero_message(op)}$"):
                cpu.step()
            assert (cpu.pc, cpu.instr_count) == (2, 2)
            continue
        assert cpu.step() == cpu.isa.cycles_of(op)
        _check_regs(cpu, a, b, rd, expected)


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_run_block(row):
    op, imm, rd, lanes = row
    for a, b, expected in lanes:
        cpu = _scalar(op, imm, rd, a, b)
        if expected is ZERO:
            with pytest.raises(CpuError, match=f"^{_zero_message(op)}$"):
                cpu.run_block(10)
            assert (cpu.pc, cpu.instr_count) == (2, 2)
            continue
        assert cpu.run_block(10)[0] == 4
        assert cpu.halted
        _check_regs(cpu, a, b, rd, expected)


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_batch_lanes(row):
    op, imm, rd, lanes = row
    assert len({(a, b) for a, b, _ in lanes}) == 3, "lanes must differ"
    isa, image = _image(op, imm, rd)
    batch = BatchCpu(isa, image, n_lanes=3)
    for lane, (a, b, _expected) in enumerate(lanes):
        batch.seed_lane(lane, 100, a)
        batch.seed_lane(lane, 101, b)
    exits = batch.run(10)
    for exit_, (a, b, expected) in zip(exits, lanes):
        cpu = exit_.cpu
        if expected is ZERO:
            assert exit_.reason == "div"
            assert (cpu.pc, exit_.steps) == (2, 2)
            with pytest.raises(CpuError, match=f"^{_zero_message(op)}$"):
                cpu.step()
            continue
        assert exit_.reason == "halt"
        _check_regs(cpu, a, b, rd, expected)


def test_table_and_control_opcodes_partition_the_isa():
    assert set(SEMANTICS) | CONTROL == set(O)
    assert not set(SEMANTICS) & CONTROL
    assert len(SEMANTICS) == 21


def test_every_table_opcode_has_vectors():
    assert {row[0] for row in ROWS} == set(SEMANTICS)

