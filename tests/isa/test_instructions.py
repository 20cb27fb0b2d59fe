"""Instruction/operand construction and validation."""

import pytest

from repro.isa import (
    EAX,
    EBX,
    ESP,
    Imm,
    Label,
    Mem,
    ins,
    jcc,
    setcc,
)
from repro.isa.instructions import Instruction
from repro.isa.registers import Reg


def test_basic_construction():
    i = ins("mov", EAX, Imm(5))
    assert i.mnemonic == "mov"
    assert i.operands == (EAX, Imm(5))
    assert not i.is_branch


def test_unknown_mnemonic_rejected():
    with pytest.raises(ValueError):
        ins("bogus", EAX)


def test_jcc_requires_condition():
    with pytest.raises(ValueError):
        Instruction("jcc", (Imm(0),))
    with pytest.raises(ValueError):
        Instruction("jcc", (Imm(0),), cc="zz")
    assert jcc("ne", Label("x")).cc == "ne"


def test_cc_rejected_on_plain_mnemonics():
    with pytest.raises(ValueError):
        Instruction("mov", (EAX, Imm(0)), cc="e")


def test_display_name_folds_condition():
    assert jcc("le", Label("t")).name == "jle"
    assert setcc("a", Reg(0, 1)).name == "seta"
    assert ins("ret").name == "ret"


def test_branch_classification():
    assert ins("jmp", Imm(4)).is_branch
    assert ins("call", Imm(4)).is_branch
    assert ins("ret").is_branch
    assert ins("hlt").is_branch
    assert not ins("add", EAX, Imm(1)).is_branch


def test_flags_classification():
    assert ins("add", EAX, Imm(1)).writes_flags
    assert ins("cmp", EAX, EBX).writes_flags
    assert not ins("mov", EAX, EBX).writes_flags
    assert not ins("lea", EAX, Mem(ESP, disp=4)).writes_flags


def test_mem_validation():
    with pytest.raises(ValueError):
        Mem(EAX, scale=3)
    with pytest.raises(ValueError):
        Mem(EAX, size=8)
    with pytest.raises(ValueError):
        Mem(Reg(0, 2))  # 16-bit base


def test_mem_label_displacement():
    m = Mem(None, disp=Label("table", 8))
    assert isinstance(m.disp, Label)
    assert m.disp.addend == 8


def test_label_addend_repr():
    assert repr(Label("x")) == "x"
    assert repr(Label("x", 4)) == "x+4"
