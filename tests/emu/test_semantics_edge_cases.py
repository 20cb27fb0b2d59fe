"""Edge-case machine semantics: wrapping, masking, byte memory, and
the flags and registers of multiply and divide."""

import pytest

from repro.emu import run_binary
from repro.errors import EmulationError
from repro.isa.registers import CL, reg
from repro.isa import (
    AH,
    AL,
    AsmFunction,
    AsmProgram,
    EAX,
    EBX,
    ECX,
    EDX,
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


def imul_flags(a, b):
    """(CF, SF) after ``imul`` of ``a`` by ``b``, read back by setcc."""
    r = run([
        ins("mov", EAX, Imm(a)),
        ins("mov", ECX, Imm(b)),
        ins("imul", EAX, ECX),
        ins("mov", EAX, Imm(0)),   # mov leaves the flags alone
        setcc("b", AH),
        setcc("s", AL),
        ins("hlt"),
    ])
    return r.exit_code >> 8, r.exit_code & 0xFF


def test_imul_overflow_sets_carry():
    assert imul_flags(0x10000, 0x10000) == (1, 0)


def test_imul_negative_product_sets_sign_not_carry():
    assert imul_flags(-3, 7) == (0, 1)


@pytest.mark.parametrize("a,b", [(0x10000, 0x10000), (-3, 7),
                                 (0x7FFFFFFF, 2), (-0x80000000, -1),
                                 (123456, -654321), (5, 0)])
def test_imul_by_an_immediate_matches_the_register_form(a, b):
    # ``imul r32,imm`` compiles to its own closure: the product and the
    # flags (CF, ZF, SF) must be those of ``imul r32,r32``.
    def outcome(multiply):
        product = run([ins("mov", EAX, Imm(a)), *multiply,
                       ins("hlt")]).exit_code
        # ``mov`` and ``setcc`` leave the flags alone; ``shl`` and
        # ``or`` run only once all three are read.
        flags = run([ins("mov", EAX, Imm(a)), *multiply,
                     ins("mov", EAX, Imm(0)), ins("mov", EBX, Imm(0)),
                     setcc("b", AH), setcc("e", AL), setcc("s", reg("bl")),
                     ins("shl", EAX, Imm(8)), ins("or", EAX, EBX),
                     ins("hlt")]).exit_code
        return product, flags
    assert outcome([ins("imul", EAX, Imm(b))]) == outcome(
        [ins("mov", ECX, Imm(b)), ins("imul", EAX, ECX)])


@pytest.mark.parametrize("eax,edx", [(-5, 0xFFFFFFFF), (5, 0)])
def test_cdq_sign_extends_eax_into_edx(eax, edx):
    r = run([
        ins("mov", EDX, Imm(0x12345678)),
        ins("mov", EAX, Imm(eax)),
        ins("cdq"),
        ins("mov", EAX, EDX),
        ins("hlt"),
    ])
    assert r.exit_code == edx


def test_idiv_int_min_by_minus_one_overflows():
    with pytest.raises(EmulationError, match="idiv quotient overflow"):
        run([
            ins("mov", EAX, Imm(-0x80000000)),
            ins("cdq"),
            ins("mov", ECX, Imm(-1)),
            ins("idiv", ECX),
            ins("hlt"),
        ])
