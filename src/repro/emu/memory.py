"""Sparse flat memory used by both the machine emulator and IR interpreter.

Memory is byte-addressed, little-endian, and demand-paged with zero-filled
pages, so freshly mapped stack/heap/BSS reads as zero.  Both execution
engines (machine code and lifted IR) share this model, which is what lets
the lifted program see the exact same address space the original binary
did — global data stays at its original addresses, as in BinRec.

The address space is ``[0, 2**32)``: every accessor, scalar or bulk,
raises :class:`~repro.errors.EmulationError` for a byte outside it, so
every page in the page table lies inside the space.

Hot-path design: about 96% of the accesses a replay run makes are
4-byte loads and stores (push/pop/mov in the emulator, vcpu-slot
traffic in lifted IR).  A 4-byte access whose page is already mapped
and which does not cross the page end takes the *word path*: one
``dict.get`` and ``struct.unpack_from`` / ``pack_into``, with no bounds
test, because a mapped page lies inside the space.  Every other access
(other sizes, a first touch that maps its page, a word crossing the page
end, an address outside the space) takes the general path, which checks
the bounds first.

The two engines take the word path inline, without a call into this
class: the IR interpreter's 4-byte loads from a value's address and
its commonest 4-byte stores, and the emulator's word moves, ``push``,
``pop`` and 4-byte ``[base+disp]`` operands, test the page offset
against :data:`WORD_END`, look the page up with :attr:`Memory.page_of`
and unpack or pack the word with :func:`unpack_word` /
:func:`pack_word`, and call :meth:`Memory.read` / :meth:`Memory.write`
only off that path.  This module stays the one definition of the page
format those paths read.
"""

from __future__ import annotations

import struct

from ..binary.image import BinaryImage
from ..errors import EmulationError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

_SPACE_END = 0x100000000

#: Last page offset at which a 4-byte word fits inside the page.
WORD_END = PAGE_SIZE - 4
_WORD = struct.Struct("<I")
#: ``unpack_word(page, off)[0]`` is the little-endian word at offset
#: ``off`` of a page; ``pack_word(page, off, value)`` stores one (the
#: value must lie in ``[0, 2**32)``).
unpack_word = _WORD.unpack_from
pack_word = _WORD.pack_into


def _check_range(addr: int, size: int, what: str) -> None:
    if addr < 0 or addr + size > _SPACE_END:
        raise EmulationError(f"{what} outside address space: {addr:#x}")


class Memory:
    """Sparse little-endian byte memory over 4 KiB pages."""

    __slots__ = ("_pages", "page_of")

    def __init__(self) -> None:
        #: Page index -> page; every key lies in ``[0, 2**20)``.
        self._pages: dict[int, bytearray] = {}
        #: ``page_of(addr >> PAGE_SHIFT)``: the mapped page holding
        #: ``addr``, or None, without mapping it (a bound ``dict.get``;
        #: :meth:`clear` empties the table in place, so it stays valid).
        self.page_of = self._pages.get

    def clear(self) -> None:
        """Unmap every page: the memory reads as zero again."""
        self._pages.clear()

    def _page(self, addr: int) -> bytearray:
        """The page holding ``addr`` (which must lie inside the space),
        mapped on first touch."""
        index = addr >> PAGE_SHIFT
        page = self._pages.get(index)
        if page is None:
            page = self._pages[index] = bytearray(PAGE_SIZE)
        return page

    def read(self, addr: int, size: int) -> int:
        """Read an unsigned little-endian integer of ``size`` bytes."""
        off = addr & PAGE_MASK
        if size == 4 and off <= WORD_END:
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is not None:
                return unpack_word(page, off)[0]
        _check_range(addr, size, "read")
        if off + size > PAGE_SIZE:
            return int.from_bytes(self.read_bytes(addr, size), "little")
        page = self._page(addr)
        if size == 1:
            return page[off]
        return int.from_bytes(page[off:off + size], "little")

    def write(self, addr: int, size: int, value: int) -> None:
        """Write an integer as ``size`` little-endian bytes (truncating)."""
        off = addr & PAGE_MASK
        if size == 4 and off <= WORD_END:
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is not None:
                pack_word(page, off, value & 0xFFFFFFFF)
                return
        _check_range(addr, size, "write")
        if off + size > PAGE_SIZE:
            value &= (1 << (8 * size)) - 1
            self.write_bytes(addr, value.to_bytes(size, "little"))
            return
        page = self._page(addr)
        if size == 1:
            page[off] = value & 0xFF
        else:
            value &= (1 << (8 * size)) - 1
            page[off:off + size] = value.to_bytes(size, "little")

    def read_bytes(self, addr: int, size: int) -> bytes:
        _check_range(addr, size, "read")
        out = bytearray()
        while size > 0:
            off = addr & PAGE_MASK
            chunk = min(size, PAGE_SIZE - off)
            out += self._page(addr)[off:off + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        _check_range(addr, len(data), "write")
        pos = 0
        while pos < len(data):
            off = (addr + pos) & PAGE_MASK
            chunk = min(len(data) - pos, PAGE_SIZE - off)
            self._page(addr + pos)[off:off + chunk] = data[pos:pos + chunk]
            pos += chunk

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> bytes:
        """Read a NUL-terminated byte string (used by the libc model).

        Scans a whole page at a time with ``bytearray.find`` instead of
        issuing a one-byte read per character, stepping across page
        boundaries as needed.
        """
        out = bytearray()
        pos = addr
        remaining = limit
        while remaining > 0:
            if pos < 0 or pos >= _SPACE_END:
                raise EmulationError(
                    f"read outside address space: {pos:#x}")
            off = pos & PAGE_MASK
            page = self._page(pos)
            end = min(PAGE_SIZE, off + remaining)
            nul = page.find(0, off, end)
            if nul >= 0:
                out += page[off:nul]
                return bytes(out)
            out += page[off:end]
            pos += end - off
            remaining -= end - off
        raise EmulationError(f"unterminated string at {addr:#x}")

    def load_image(self, image: BinaryImage) -> None:
        for section in image.sections:
            self.write_bytes(section.base, section.data)

