"""Disassembler: decode-at, caching, linear sweep, listings."""

import pytest

from repro.errors import EncodingError
from repro.isa import AsmFunction, AsmProgram, EAX, Imm, assemble, ins
from repro.isa.disassembler import Disassembler, shared_disassembler


def build():
    f = AsmFunction("_start", [
        ins("mov", EAX, Imm(1)),
        ins("add", EAX, Imm(2)),
        ins("hlt"),
    ])
    return assemble(AsmProgram(functions=[f]))


def test_decode_at_assigns_addresses():
    image = build()
    d = Disassembler(image)
    first = d.at(image.entry)
    assert first.mnemonic == "mov" and first.addr == image.entry
    second = d.at(image.entry + first.size)
    assert second.mnemonic == "add"


def test_decoding_is_cached():
    image = build()
    d = Disassembler(image)
    assert d.at(image.entry) is d.at(image.entry)


def test_linear_sweep_covers_whole_text():
    image = build()
    instrs = Disassembler(image).linear()
    assert [i.mnemonic for i in instrs] == ["mov", "add", "hlt"]
    assert sum(i.size for i in instrs) == len(image.text.data)


def test_out_of_text_address_rejected():
    image = build()
    with pytest.raises(EncodingError):
        Disassembler(image).at(0x1000)


def test_listing_mentions_symbols():
    image = build()
    text = Disassembler(image).listing()
    assert "_start:" in text and "hlt" in text


def test_shared_decoder_is_one_per_image_and_dies_with_it():
    import gc
    import weakref

    from repro.isa import disassembler

    image = build()
    shared = shared_disassembler(image)
    assert shared_disassembler(image) is shared
    assert shared_disassembler(build()) is not shared
    ref = weakref.ref(image)
    key = id(image)
    del image
    gc.collect()
    assert ref() is None
    assert key not in disassembler._SHARED


def test_equal_operands_decoded_within_one_image_are_one_object():
    from repro.isa import ECX, ESP, Mem

    f = AsmFunction("_start", [
        ins("mov", EAX, Mem(ESP, disp=4)),
        ins("mov", ECX, Mem(ESP, disp=4)),
        ins("add", EAX, Imm(2)),
        ins("add", ECX, Imm(2)),
        ins("mov", EAX, Mem(ESP, disp=8)),
        ins("hlt"),
    ])
    image = assemble(AsmProgram(functions=[f]))
    d = Disassembler(image)
    a, b, c, e, g, _ = d.linear()
    assert a.operands[1] is b.operands[1]
    assert c.operands[1] is e.operands[1]
    assert a.operands[0] is c.operands[0] is g.operands[0]
    assert g.operands[1] == Mem(ESP, disp=8) != a.operands[1]
    # Another decoder of the image decodes equal operands of its own.
    other = Disassembler(image).at(a.addr)
    assert other == a and other.operands[1] is not a.operands[1]
