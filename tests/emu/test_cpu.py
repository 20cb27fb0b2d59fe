"""Flag semantics and condition-code predicates."""

import pytest

from repro.emu.cpu import CONDITIONS, CPU, Flags, signed32
from repro.isa.registers import AH, AL, AX, EAX


def test_signed32():
    assert signed32(0xFFFFFFFF) == -1
    assert signed32(0x7FFFFFFF) == 0x7FFFFFFF
    assert signed32(0x80000000) == -(2**31)


def test_sub_flags_equal():
    f = Flags()
    f.set_sub(5, 5, 0)
    assert f.zf and not f.sf and not f.cf and not f.of


def test_sub_flags_unsigned_borrow():
    f = Flags()
    f.set_sub(1, 2, 1 - 2)
    assert f.cf and f.sf and not f.zf


def test_sub_flags_signed_overflow():
    f = Flags()
    a, b = 0x80000000, 1  # INT_MIN - 1 overflows
    f.set_sub(a, b, a - b)
    assert f.of


def test_add_flags_carry_and_overflow():
    f = Flags()
    f.set_add(0xFFFFFFFF, 1, 0xFFFFFFFF + 1)
    assert f.cf and f.zf and not f.of
    f.set_add(0x7FFFFFFF, 1, 0x80000000)
    assert f.of and f.sf and not f.cf


def test_logic_flags_clear_carry():
    f = Flags(cf=True, of=True)
    f.set_logic(0)
    assert f.zf and not f.cf and not f.of


@pytest.mark.parametrize("a,b,true_ccs", [
    (5, 5, {"e", "le", "ge", "be", "ae", "ns"}),
    (3, 7, {"ne", "l", "le", "b", "be", "s"}),
    (7, 3, {"ne", "g", "ge", "a", "ae", "ns"}),
    (-1 & 0xFFFFFFFF, 1, {"ne", "l", "le", "a", "ae", "s"}),
])
def test_condition_predicates_after_cmp(a, b, true_ccs):
    f = Flags()
    f.set_sub(a, b, a - b)
    assert set(CONDITIONS) == {"e", "ne", "l", "le", "g", "ge", "b", "be",
                               "a", "ae", "s", "ns"}
    for cc, holds in CONDITIONS.items():
        assert holds(f) == (cc in true_ccs), cc


def test_cpu_subregister_views():
    cpu = CPU()
    cpu.set(EAX, 0xAABBCCDD)
    assert cpu.get(AL) == 0xDD
    assert cpu.get(AH) == 0xCC
    cpu.set(AX, 0x1122)
    assert cpu.get(EAX) == 0xAABB1122


def test_cpu_snapshot():
    cpu = CPU()
    cpu.set_name("esi", 42)
    snap = cpu.snapshot()
    assert snap["esi"] == 42 and snap["eax"] == 0
