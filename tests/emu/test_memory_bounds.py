"""Memory's address-space edge and its 4-byte word path.

Every accessor rejects a byte outside ``[0, 2**32)`` with
``EmulationError``, so no page outside the space is ever mapped; the
word path (a 4-byte access inside an already-mapped page) relies on
that.  Each word-path case is checked byte for byte against the bulk
accessors.
"""

import pytest

from repro.emu.libc import LibC, ListArgs
from repro.emu.memory import PAGE_SIZE, Memory
from repro.errors import EmulationError

SPACE_END = 1 << 32
BASE = 0x20000


# -- bulk accessors at the edge of the space -----------------------------------


def test_write_bytes_past_space_end_rejected():
    mem = Memory()
    with pytest.raises(EmulationError):
        mem.write_bytes(SPACE_END - 2, b"abcd")
    # Nothing was written, and no page past the end was mapped: a word
    # read there still fails instead of finding the page.
    assert mem.read_bytes(SPACE_END - 2, 2) == b"\x00\x00"
    with pytest.raises(EmulationError):
        mem.read(SPACE_END, 4)


def test_write_bytes_at_negative_address_rejected():
    mem = Memory()
    with pytest.raises(EmulationError):
        mem.write_bytes(-8, b"xy")
    with pytest.raises(EmulationError):
        mem.write_bytes(-1, b"ab")


def test_read_bytes_outside_space_rejected():
    mem = Memory()
    with pytest.raises(EmulationError):
        mem.read_bytes(-8, 2)
    with pytest.raises(EmulationError):
        mem.read_bytes(SPACE_END - 2, 4)
    assert mem.read_bytes(SPACE_END - 4, 4) == b"\x00" * 4


@pytest.mark.parametrize("name, args", [
    ("memcpy", [SPACE_END - 2, BASE, 4]),
    ("memset", [SPACE_END - 2, 0x41, 4]),
    ("strcpy", [SPACE_END - 2, BASE]),
    ("sprintf", [SPACE_END - 2, BASE]),
])
def test_libc_bulk_writes_past_space_end_rejected(name, args):
    mem = Memory()
    mem.write_bytes(BASE, b"abcdef\x00")
    libc = LibC(mem)
    with pytest.raises(EmulationError):
        libc.call(name, ListArgs(args))
    with pytest.raises(EmulationError):
        mem.read(SPACE_END, 4)


# -- the word path ---------------------------------------------------------------


@pytest.mark.parametrize("offset", [PAGE_SIZE - 4, PAGE_SIZE - 3,
                                    PAGE_SIZE - 2, PAGE_SIZE - 1])
@pytest.mark.parametrize("mapped", [True, False], ids=["mapped", "fresh"])
def test_word_at_page_end_matches_bytes(offset, mapped):
    # Offset 4092 is the last in-page word; 4093 and up cross into the
    # next page and take the general path.
    addr = BASE + offset
    mem = Memory()
    if mapped:
        mem.write_bytes(BASE, b"\x00" * (2 * PAGE_SIZE))
    mem.write(addr, 4, 0x11223344)
    assert mem.read_bytes(addr, 4) == bytes([0x44, 0x33, 0x22, 0x11])
    mem.write_bytes(addr, b"\xa1\xb2\xc3\xd4")
    assert mem.read(addr, 4) == 0xD4C3B2A1
    # The neighbouring bytes are untouched.
    assert mem.read_bytes(addr - 1, 6) == b"\x00\xa1\xb2\xc3\xd4\x00"


def test_first_word_access_reads_zero_and_maps_the_page():
    mem = Memory()
    assert mem.read(BASE + 8, 4) == 0
    assert BASE >> 12 in mem._pages
    assert mem.read_bytes(BASE, PAGE_SIZE) == b"\x00" * PAGE_SIZE
    mem.write(BASE + PAGE_SIZE + 8, 4, 0xCAFEBABE)
    assert (BASE + PAGE_SIZE) >> 12 in mem._pages
    assert mem.read_bytes(BASE + PAGE_SIZE + 8, 4) == \
        (0xCAFEBABE).to_bytes(4, "little")


def test_last_word_of_space_allowed():
    mem = Memory()
    addr = SPACE_END - 4
    for _ in range(2):  # first touch, then the mapped page
        mem.write(addr, 4, 0x01020304)
        assert mem.read_bytes(addr, 4) == b"\x04\x03\x02\x01"
        assert mem.read(addr, 4) == 0x01020304


def test_word_crossing_space_end_rejected():
    mem = Memory()
    mem.write(SPACE_END - 4, 4, 0)  # the last page is mapped
    for addr in (SPACE_END - 3, SPACE_END - 1, SPACE_END, -4):
        with pytest.raises(EmulationError):
            mem.read(addr, 4)
        with pytest.raises(EmulationError):
            mem.write(addr, 4, 0)
    assert mem.read_bytes(SPACE_END - 4, 4) == b"\x00" * 4


@pytest.mark.parametrize("mapped", [True, False], ids=["mapped", "fresh"])
@pytest.mark.parametrize("value, stored", [
    (1 << 32, 0),
    (0x1_2345_6789, 0x2345_6789),
    ((1 << 40) - 1, 0xFFFF_FFFF),
    (-1, 0xFFFF_FFFF),
    (-2, 0xFFFF_FFFE),
])
def test_word_store_truncates_to_32_bits(value, stored, mapped):
    mem = Memory()
    if mapped:
        mem.write(BASE, 4, 0)
    mem.write(BASE + 4, 4, value)
    assert mem.read_bytes(BASE + 4, 4) == stored.to_bytes(4, "little")
    assert mem.read(BASE + 4, 4) == stored
    assert mem.read_bytes(BASE + 8, 4) == b"\x00" * 4


def test_clear_unmaps_every_page():
    mem = Memory()
    mem.write(BASE, 4, 0xFFFFFFFF)
    mem.write(BASE + PAGE_SIZE + 1, 1, 7)
    mem.clear()
    assert not mem._pages
    assert mem.read(BASE, 4) == 0
    assert mem.read(BASE + PAGE_SIZE + 1, 1) == 0
