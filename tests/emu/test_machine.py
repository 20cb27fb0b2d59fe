"""Instruction semantics under emulation, via hand-assembled programs."""

import pytest

from repro.binary.image import STACK_TOP
from repro.emu import Machine, run_binary
from repro.errors import EmulationError
from repro.isa import (
    AH,
    AL,
    AsmFunction,
    AsmProgram,
    DataItem,
    EAX,
    EBX,
    ECX,
    EDX,
    ESP,
    Imm,
    ImportRef,
    Label,
    Mem,
    assemble,
    ins,
    jcc,
    setcc,
)
from repro.isa.registers import CL


def run(items, data=None, imports=(), inputs=None, **kw):
    prog = AsmProgram(functions=[AsmFunction("_start", list(items))],
                      data=list(data or []), imports=list(imports))
    return run_binary(assemble(prog), inputs or [], **kw)


def exit_with(value_items):
    return list(value_items) + [ins("hlt")]


def test_mov_imm_and_exit_code():
    r = run(exit_with([ins("mov", EAX, Imm(42))]))
    assert r.exit_code == 42


def test_arith_chain():
    r = run(exit_with([
        ins("mov", EAX, Imm(10)),
        ins("add", EAX, Imm(5)),
        ins("sub", EAX, Imm(3)),
        ins("imul", EAX, Imm(4)),
    ]))
    assert r.exit_code == 48


def test_partial_register_write_preserves_upper():
    r = run(exit_with([
        ins("mov", EAX, Imm(0x11223344)),
        ins("mov", AL, Imm(0x99)),
        ins("shr", EAX, Imm(8)),   # 0x112233
    ]))
    assert r.exit_code == 0x112233


def test_high_byte_register():
    r = run(exit_with([
        ins("mov", EAX, Imm(0)),
        ins("mov", AH, Imm(0x7F)),
    ]))
    assert r.exit_code == 0x7F00


def test_push_pop_lifo():
    r = run(exit_with([
        ins("push", Imm(1)),
        ins("push", Imm(2)),
        ins("pop", EAX),
        ins("pop", EBX),
        ins("shl", EAX, Imm(4)),
        ins("or", EAX, EBX),
    ]))
    assert r.exit_code == 0x21


def test_memory_operand_read_write():
    r = run(exit_with([
        ins("sub", ESP, Imm(16)),
        ins("mov", Mem(ESP, disp=4), Imm(7)),
        ins("add", Mem(ESP, disp=4), Imm(3)),
        ins("mov", EAX, Mem(ESP, disp=4)),
    ]))
    assert r.exit_code == 10


def test_lea_computes_without_access():
    r = run(exit_with([
        ins("mov", EBX, Imm(0x100)),
        ins("mov", ECX, Imm(3)),
        ins("lea", EAX, Mem(EBX, ECX, 4, 8)),
    ]))
    assert r.exit_code == 0x100 + 12 + 8


def test_movsx_movzx():
    r = run(exit_with([
        ins("mov", EBX, Imm(0xFF)),
        ins("movsx", EAX, Mem(ESP, disp=-4, size=1)),  # reads 0
        ins("mov", Mem(ESP, disp=-4, size=1), Imm(0x80)),
        ins("movsx", EAX, Mem(ESP, disp=-4, size=1)),
        ins("and", EAX, Imm(0xFFFF)),
    ]))
    assert r.exit_code == 0xFF80


def test_cdq_idiv_signed():
    r = run(exit_with([
        ins("mov", EAX, Imm(-13)),
        ins("push", Imm(4)),
        ins("cdq"),
        ins("idiv", Mem(ESP, disp=0)),
        ins("add", ESP, Imm(4)),
        ins("imul", EAX, EDX),   # quotient * remainder = -3 * -1 = 3
    ]))
    assert r.exit_code == 3


def test_idiv_divides_a_wide_dividend_exactly():
    # edx:eax = 0x20000000_3FFFFFFE is past 2**53, where a quotient
    # computed in floating point rounds (to 0x40000001).
    prog = AsmProgram(functions=[AsmFunction("_start", exit_with([
        ins("mov", EDX, Imm(0x20000000)),
        ins("mov", EAX, Imm(0x3FFFFFFE)),
        ins("mov", ECX, Imm(0x7FFFFFFF)),
        ins("idiv", ECX),
    ]))])
    machine = Machine(assemble(prog))
    machine.run()
    assert machine.cpu.get_name("eax") == 0x40000000
    assert machine.cpu.get_name("edx") == 0x7FFFFFFE


def test_division_by_zero_raises():
    with pytest.raises(EmulationError, match="integer division by zero"):
        run(exit_with([
            ins("mov", EAX, Imm(1)),
            ins("mov", EBX, Imm(0)),
            ins("cdq"),
            ins("idiv", EBX),
        ]))


def test_shifts_with_cl():
    r = run(exit_with([
        ins("mov", EAX, Imm(1)),
        ins("mov", ECX, Imm(5)),
        ins("shl", EAX, CL),
    ]))
    assert r.exit_code == 32


def test_sar_sign_extends():
    r = run(exit_with([
        ins("mov", EAX, Imm(-8)),
        ins("sar", EAX, Imm(2)),
    ]))
    assert r.exit_code == (-2) & 0xFFFFFFFF


def test_inc_dec_preserve_carry():
    r = run(exit_with([
        ins("mov", EAX, Imm(0xFFFFFFFF)),
        ins("add", EAX, Imm(1)),      # sets CF, eax = 0
        ins("inc", EAX),              # preserves CF
        setcc("b", AL),               # CF still set
    ]))
    assert r.exit_code & 0xFF == 1


def test_conditional_branch_taken_and_not():
    r = run([
        ins("mov", EAX, Imm(5)),
        ins("cmp", EAX, Imm(10)),
        jcc("l", Label("less")),
        ins("mov", EAX, Imm(0)),
        ins("hlt"),
        "less",
        ins("mov", EAX, Imm(1)),
        ins("hlt"),
    ])
    assert r.exit_code == 1


def test_call_ret_and_leave():
    prog = AsmProgram(functions=[
        AsmFunction("_start", [
            ins("push", Imm(20)),
            ins("call", Label("double")),
            ins("add", ESP, Imm(4)),
            ins("hlt"),
        ]),
        AsmFunction("double", [
            ins("push", Imm(0)),  # fake saved ebp via plain frame
            ins("mov", EAX, Mem(ESP, disp=8)),
            ins("add", EAX, EAX),
            ins("add", ESP, Imm(4)),
            ins("ret"),
        ]),
    ])
    r = run_binary(assemble(prog), [])
    assert r.exit_code == 40


def test_indirect_jump_through_register():
    r = run([
        ins("mov", EBX, Label("target")),
        ins("jmp", EBX),
        ins("mov", EAX, Imm(0)),
        ins("hlt"),
        "target",
        ins("mov", EAX, Imm(9)),
        ins("hlt"),
    ])
    assert r.exit_code == 9


def test_import_call_reads_stack_args():
    r = run([
        ins("push", Imm(33)),
        ins("push", Label("fmt")),
        ins("call", ImportRef("printf")),
        ins("add", ESP, Imm(8)),
        ins("mov", EAX, Imm(0)),
        ins("hlt"),
    ], data=[DataItem("fmt", b"v=%d\n\x00")], imports=["printf"])
    assert r.stdout == b"v=33\n"


def test_initial_stack_pointer():
    # The loader pushes the exit sentinel, so esp starts one word below
    # the stack top.
    r = run(exit_with([ins("mov", EAX, ESP)]))
    assert r.exit_code == STACK_TOP - 4


def test_return_from_entry_halts_with_eax():
    r = run([ins("mov", EAX, Imm(12)), ins("ret")])
    assert r.exit_code == 12


def test_instruction_budget_enforced():
    with pytest.raises(EmulationError):
        run(["loop", ins("jmp", Label("loop"))], max_instructions=1000)


def test_cycle_accounting_positive():
    r = run(exit_with([ins("mov", EAX, Imm(0)), ins("nop")]))
    assert r.cycles >= r.instructions > 0
