"""Binary image container: sections, symbols, serialization."""

import gc
import weakref

import pytest

from repro.binary.image import (
    BinaryImage,
    FrameGroundTruth,
    Section,
    StackObject,
)
from repro.emu.blocks import _SHARED, shared_block_cache
from repro.emu.costs import DEFAULT_COSTS
from repro.errors import LinkError


def build():
    return BinaryImage(
        text=Section(".text", 0x1000, b"\x01\x02\x03"),
        data_sections=[Section(".data", 0x2000, b"abc", writable=True)],
        entry=0x1000,
        imports=["printf"],
        symbols={"main": 0x1000},
        ground_truth=[FrameGroundTruth("main", 0x1000, 16, [
            StackObject("x", -8, 4), StackObject("buf", -16, 8)])],
        metadata={"compiler": "gcc12"},
    )


def test_section_lookup():
    image = build()
    assert image.section_at(0x1001).name == ".text"
    assert image.section_at(0x2002).name == ".data"
    assert image.section_at(0x3000) is None


def test_symbol_for():
    assert build().symbol_for(0x1000) == "main"
    assert build().symbol_for(0x9999) is None


def test_validate_rejects_overlap():
    image = build()
    image.data_sections.append(Section("bad", 0x1001, b"zz"))
    with pytest.raises(LinkError):
        image.validate()


def test_validate_rejects_entry_outside_text():
    image = build()
    image.entry = 0x2000
    with pytest.raises(LinkError):
        image.validate()


def test_stripped_removes_symbols_and_ground_truth():
    stripped = build().stripped()
    assert stripped.symbols == {}
    assert stripped.ground_truth == []
    assert stripped.text.data == b"\x01\x02\x03"
    assert stripped.metadata["compiler"] == "gcc12"


def test_json_round_trip():
    image = build()
    restored = BinaryImage.from_json(image.to_json())
    assert restored.text.data == image.text.data
    assert restored.entry == image.entry
    assert restored.imports == image.imports
    assert restored.symbols == image.symbols
    gt = restored.ground_truth[0]
    assert gt.func_name == "main" and gt.frame_size == 16
    assert gt.objects[1].offset == -16 and gt.objects[1].size == 8


def test_stack_object_overlap():
    obj = StackObject("x", -8, 4)
    assert obj.overlaps(-10, -6)
    assert obj.overlaps(-5, 0)
    assert not obj.overlaps(-4, 0)
    assert not obj.overlaps(-16, -8)


def test_stripping_a_stripped_image_leaves_no_cycle():
    # A pipeline run pauses the cyclic collector, so an image must be
    # freed, and its block cache evicted, by reference counting alone.
    enabled = gc.isenabled()
    gc.disable()
    try:
        image = build().stripped()
        assert image.stripped() is image
        shared_block_cache(image, DEFAULT_COSTS)
        key = id(image)
        assert key in _SHARED
        ref = weakref.ref(image)
        del image
        assert ref() is None
        assert key not in _SHARED
    finally:
        if enabled:
            gc.enable()
