"""Two-pass assembly: labels, data, layout, ground truth plumbing."""

import pytest

from repro.binary.image import TEXT_BASE
from repro.errors import AsmError
from repro.isa import (
    AsmFunction,
    AsmProgram,
    DataItem,
    EAX,
    Imm,
    Label,
    Mem,
    assemble,
    ins,
)


def minimal(items=None, data=None, entry="_start"):
    f = AsmFunction("_start", items or [ins("hlt")])
    return AsmProgram(functions=[f], data=data or [], entry=entry)


def test_entry_resolution():
    image = assemble(minimal())
    assert image.entry == TEXT_BASE
    assert image.symbols["_start"] == TEXT_BASE


def test_label_resolution_forward_and_backward():
    f = AsmFunction("_start")
    f.emit(ins("jmp", Label("skip")))
    f.label("back")
    f.emit(ins("mov", EAX, Imm(1)))
    f.label("skip")
    f.emit(ins("jmp", Label("back")))
    f.emit(ins("hlt"))
    image = assemble(AsmProgram(functions=[f]))
    assert image.symbols["skip"] > image.symbols["back"] > TEXT_BASE


def test_duplicate_label_rejected():
    f = AsmFunction("_start")
    f.label("x")
    f.label("x")
    f.emit(ins("hlt"))
    with pytest.raises(AsmError):
        assemble(AsmProgram(functions=[f]))


def test_undefined_label_rejected():
    with pytest.raises(AsmError):
        assemble(minimal([ins("jmp", Label("nowhere")), ins("hlt")]))


def test_undefined_entry_rejected():
    with pytest.raises(AsmError):
        assemble(minimal(entry="nope"))


def test_data_placement_and_alignment():
    data = [DataItem("a", b"x", align=1),
            DataItem("b", b"yy", align=16)]
    image = assemble(minimal(data=data))
    assert image.symbols["b"] % 16 == 0
    assert image.symbols["a"] >= image.text.end


def test_word_list_data_with_labels():
    data = [DataItem("table", [Label("_start"), 7, Label("_start", 4)])]
    image = assemble(minimal(data=data))
    section = image.data_sections[0]
    base = image.symbols["table"] - section.base
    words = [int.from_bytes(section.data[base + 4 * i:base + 4 * i + 4],
                            "little") for i in range(3)]
    assert words == [TEXT_BASE, 7, TEXT_BASE + 4]


def test_fixed_address_data_becomes_own_section():
    data = [DataItem("pinned", b"abc", fixed_addr=0x0B000000)]
    image = assemble(minimal(data=data))
    section = image.section_at(0x0B000000)
    assert section is not None and section.data == b"abc"
    assert image.symbols["pinned"] == 0x0B000000


def test_custom_text_base():
    prog = minimal()
    prog.text_base = 0x09000000
    image = assemble(prog)
    assert image.entry == 0x09000000


def test_label_addend_in_memory_operand():
    data = [DataItem("arr", b"\x00" * 16)]
    f = AsmFunction("_start")
    f.emit(ins("mov", EAX, Mem(None, disp=Label("arr", 8))))
    f.emit(ins("hlt"))
    image = assemble(AsmProgram(functions=[f], data=data))
    from repro.isa.disassembler import Disassembler
    instr = Disassembler(image).at(image.entry)
    assert instr.operands[1].disp == image.symbols["arr"] + 8


def test_mem_size_preserved_through_assembly():
    data = [DataItem("arr", b"\x00" * 4)]
    f = AsmFunction("_start")
    f.emit(ins("mov", EAX, Mem(None, disp=Label("arr"), size=1)))
    f.emit(ins("hlt"))
    image = assemble(AsmProgram(functions=[f], data=data))
    from repro.isa.disassembler import Disassembler
    assert Disassembler(image).at(image.entry).operands[1].size == 1


def test_each_instruction_is_encoded_once_unless_it_waits_on_a_label(
        monkeypatch):
    # N instructions, K of them with a label operand: N encodings place
    # and emit the others and size the labelled ones, K more emit those.
    from repro.isa import encoding
    from repro.isa.disassembler import Disassembler

    f = AsmFunction("_start")
    f.label("top")
    f.emit(ins("mov", EAX, Imm(1)))
    f.emit(ins("add", EAX, Mem(EAX, disp=Label("table"))))
    f.emit(ins("add", EAX, Imm(2)))
    f.emit(ins("jmp", Label("top")))
    f.emit(ins("hlt"))
    program = AsmProgram(functions=[f],
                         data=[DataItem("table", b"\0" * 4)])
    calls = []
    real = encoding.encode

    def counting(instr, import_index):
        calls.append(instr.mnemonic)
        return real(instr, import_index)

    monkeypatch.setattr(encoding, "encode", counting)
    image = assemble(program)
    assert len(calls) == 5 + 2
    listing = Disassembler(image).linear()
    assert listing[1].operands[1].disp == image.symbols["table"]
    assert listing[3].operands[0] == Imm(image.symbols["top"])
