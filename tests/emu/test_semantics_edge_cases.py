"""Edge-case machine semantics: wrapping, masking, byte memory."""

from repro.emu import run_binary
from repro.isa.registers import CL
from repro.isa import (
    AH,
    AL,
    AsmFunction,
    AsmProgram,
    EAX,
    EBX,
    ECX,
    ESP,
    Imm,
    Mem,
    assemble,
    ins,
    jcc,
    Label,
    setcc,
)


def run(items):
    prog = AsmProgram(functions=[AsmFunction("_start", list(items))])
    return run_binary(assemble(prog))


def test_add_wraps_32_bits():
    r = run([
        ins("mov", EAX, Imm(0x7FFFFFFF)),
        ins("add", EAX, Imm(1)),
        ins("hlt"),
    ])
    assert r.exit_code == 0x80000000


def test_shift_count_masked_to_31():
    r = run([
        ins("mov", EAX, Imm(1)),
        ins("shl", EAX, Imm(33)),  # behaves as << 1
        ins("hlt"),
    ])
    assert r.exit_code == 2


def test_byte_memory_store_does_not_clobber_neighbours():
    r = run([
        ins("sub", ESP, Imm(8)),
        ins("mov", Mem(ESP, disp=0), Imm(0x11223344)),
        ins("mov", Mem(ESP, disp=1, size=1), Imm(0xAA)),
        ins("mov", EAX, Mem(ESP, disp=0)),
        ins("hlt"),
    ])
    assert r.exit_code == 0x1122AA44


def test_sixteen_bit_memory_access():
    r = run([
        ins("sub", ESP, Imm(8)),
        ins("mov", Mem(ESP, disp=0, size=2), Imm(0xBEEF)),
        ins("movzx", EAX, Mem(ESP, disp=0, size=2)),
        ins("hlt"),
    ])
    assert r.exit_code == 0xBEEF


def test_neg_and_not():
    r = run([
        ins("mov", EAX, Imm(5)),
        ins("neg", EAX),
        ins("mov", EBX, EAX),
        ins("not", EBX),           # ~(-5) = 4
        ins("mov", EAX, EBX),
        ins("hlt"),
    ])
    assert r.exit_code == 4


def test_setcc_writes_only_one_byte():
    r = run([
        ins("mov", ECX, Imm(0xFFFFFF00)),
        ins("cmp", ECX, ECX),
        setcc("e", CL),
        ins("mov", EAX, ECX),
        ins("hlt"),
    ])
    assert r.exit_code == 0xFFFFFF01


def test_ah_al_independent():
    r = run([
        ins("mov", EAX, Imm(0)),
        ins("mov", AL, Imm(0x11)),
        ins("mov", AH, Imm(0x22)),
        ins("add", AL, AH),        # 8-bit add: 0x33
        ins("hlt"),
    ])
    assert r.exit_code == 0x2233


def test_unsigned_conditions_on_negative_values():
    r = run([
        ins("mov", EAX, Imm(-1)),       # 0xFFFFFFFF: huge unsigned
        ins("cmp", EAX, Imm(1)),
        jcc("a", Label("above")),
        ins("mov", EAX, Imm(0)),
        ins("hlt"),
        "above",
        ins("mov", EAX, Imm(1)),
        ins("hlt"),
    ])
    assert r.exit_code == 1


def test_memory_operand_with_index_scale():
    r = run([
        ins("sub", ESP, Imm(32)),
        ins("mov", EBX, Imm(3)),
        ins("mov", Mem(ESP, EBX, 4, 0), Imm(77)),   # [esp + ebx*4]
        ins("mov", EAX, Mem(ESP, disp=12)),
        ins("hlt"),
    ])
    assert r.exit_code == 77
