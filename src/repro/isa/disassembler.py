"""Disassembler for the repro ISA.

Provides decode-at-address (what the emulator and dynamic tracer use — the
paper's approach never requires a static linear sweep to be correct) plus a
whole-text linear listing used for debugging and by the static baseline
(:mod:`repro.baselines.secondwrite`), which, like real static rewriters,
depends on the text section decoding linearly.

A decoder shares frozen operands: within one :class:`Disassembler`
(one per image, :func:`shared_disassembler`), equal memory and
immediate operands are one object, and every register view is one
object process-wide, so decoding a repeated operand builds nothing.
"""

from __future__ import annotations

import weakref

from ..binary.image import BinaryImage
from ..errors import EncodingError
from . import encoding
from .instructions import Instruction

#: Mnemonics that end a basic block: everything after them depends on
#: dynamic control flow.  ``call`` terminates blocks too — import calls
#: fall through, but internal calls transfer, and keeping the boundary
#: uniform keeps block-level trace accounting exact.
BLOCK_TERMINATORS = frozenset({"jmp", "jcc", "call", "ret", "hlt"})


class Disassembler:
    """Caching instruction decoder over a binary image's text section.

    It keeps the image's text section, imports and symbols, not the
    image itself, so a registered decoder does not keep its image alive
    (:func:`shared_disassembler`).

    Operands are frozen, so the decoder shares them: every memory or
    immediate operand it decodes with the same encoding as an earlier
    one is that earlier object (:func:`repro.isa.encoding.decode`), and
    every register is the one view object of its encoding.
    """

    def __init__(self, image: BinaryImage):
        self._text = image.text
        self._imports = image.imports
        self._symbols = image.symbols
        self._cache: dict[int, Instruction] = {}
        self._blocks: dict[int, tuple[Instruction, ...]] = {}
        #: Operand encoding -> the operand decoded from it.
        self._operands: dict[bytes, object] = {}

    def at(self, addr: int) -> Instruction:
        """Decode (with caching) the instruction at virtual address."""
        cached = self._cache.get(addr)
        if cached is not None:
            return cached
        if not self._text.contains(addr):
            raise EncodingError(f"address {addr:#x} outside text section")
        instr, _size = encoding.decode(self._text.data,
                                       addr - self._text.base,
                                       self._imports, self._operands)
        instr.addr = addr
        self._cache[addr] = instr
        return instr

    def basic_block(self, addr: int) -> tuple[Instruction, ...]:
        """Decode (with caching) the basic block starting at ``addr``.

        The block is the straight-line run of instructions from ``addr``
        up to and including the first control-flow instruction.  Within a
        block, execution is linear, so the whole tuple can be decoded once
        and replayed without further address lookups.
        """
        cached = self._blocks.get(addr)
        if cached is not None:
            return cached
        instrs: list[Instruction] = []
        cursor = addr
        while True:
            instr = self.at(cursor)
            instrs.append(instr)
            if instr.mnemonic in BLOCK_TERMINATORS:
                break
            cursor += instr.size
        block = tuple(instrs)
        self._blocks[addr] = block
        return block

    def linear(self) -> list[Instruction]:
        """Linear sweep of the whole text section."""
        out = []
        addr = self._text.base
        while addr < self._text.end:
            instr = self.at(addr)
            out.append(instr)
            addr += instr.size
        return out

    def listing(self) -> str:
        """Human-readable disassembly with symbol annotations."""
        by_addr = {a: n for n, a in self._symbols.items()}
        lines = []
        for instr in self.linear():
            name = by_addr.get(instr.addr)
            if name is not None:
                lines.append(f"{name}:")
            lines.append(f"  {instr!r}")
        return "\n".join(lines)


#: id(image) -> the image's shared decoder.  Keyed by identity (images
#: are unhashable dataclasses) with a finalizer that drops the entry when
#: the image is collected.
_SHARED: dict[int, Disassembler] = {}


def shared_disassembler(image: BinaryImage) -> Disassembler:
    """The process-wide decoder for ``image``.

    The emulator's block cache, dynamic CFG recovery and the static
    baseline all decode through it, so a lift that follows tracing in
    the same process decodes nothing the tracer already decoded.
    """
    key = id(image)
    disasm = _SHARED.get(key)
    if disasm is None:
        disasm = _SHARED[key] = Disassembler(image)
        weakref.finalize(image, _SHARED.pop, key, None)
    return disasm
