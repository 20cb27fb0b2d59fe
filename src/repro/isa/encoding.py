"""Byte-level encoding and decoding of repro ISA instructions.

The encoding is a simplified, variable-length scheme (an opcode byte, an
operand-count byte, then self-describing operand encodings).  It is not
binary-compatible with x86, but it gives the toolchain everything a real
encoding gives the paper's system: instructions occupy byte ranges at
concrete addresses, binaries are flat byte arrays, and a disassembler must
decode them back before any analysis can run.
"""

from __future__ import annotations

import struct

from ..errors import EncodingError
from .instructions import (
    CONDITION_CODES,
    MNEMONICS,
    Imm,
    ImportRef,
    Instruction,
    Label,
    Mem,
    Operand,
)
from .registers import Reg


def _build_opcode_table() -> tuple[dict[tuple[str, str | None], int],
                                   list[tuple[str, str | None]]]:
    by_key: dict[tuple[str, str | None], int] = {}
    by_code: list[tuple[str, str | None]] = []
    for m in MNEMONICS:
        if m in ("jcc", "setcc"):
            for cc in CONDITION_CODES:
                by_key[(m, cc)] = len(by_code)
                by_code.append((m, cc))
        else:
            by_key[(m, None)] = len(by_code)
            by_code.append((m, None))
    assert len(by_code) < 256
    return by_key, by_code


_OPCODE_BY_KEY, _KEY_BY_OPCODE = _build_opcode_table()

_TAG_REG, _TAG_IMM, _TAG_MEM, _TAG_IMPORT = range(4)
_WIDTH_CODE = {4: 0, 2: 1, 1: 2}
_WIDTH_FROM_CODE = {v: k for k, v in _WIDTH_CODE.items()}
_SCALE_CODE = {1: 0, 2: 1, 4: 2, 8: 3}
_SCALE_FROM_CODE = {v: k for k, v in _SCALE_CODE.items()}
_SIZE_CODE = {1: 0, 2: 1, 4: 2}
_SIZE_FROM_CODE = {v: k for k, v in _SIZE_CODE.items()}


def _encode_reg(r: Reg) -> bytes:
    return bytes([r.index | (_WIDTH_CODE[r.width] << 3) | (int(r.high8) << 5)])


def _decode_reg(b: int) -> Reg:
    return Reg(b & 0x7, _WIDTH_FROM_CODE[(b >> 3) & 0x3], bool((b >> 5) & 1))


def _build_reg_table() -> tuple[Reg | None, ...]:
    """The view of each register byte's low six bits (the only bits
    :func:`_decode_reg` reads), or None where no view has that code."""
    table: list[Reg | None] = []
    for b in range(64):
        try:
            table.append(_decode_reg(b))
        except (KeyError, ValueError):
            table.append(None)
    return tuple(table)


#: Register byte & 0x3F -> its view; a None entry decodes through
#: :func:`_decode_reg`, which raises what it always raised.
_REGS = _build_reg_table()


def _encode_operand(op: Operand, import_index: dict[str, int]) -> bytes:
    if isinstance(op, Reg):
        return bytes([_TAG_REG]) + _encode_reg(op)
    if isinstance(op, Imm):
        return bytes([_TAG_IMM]) + struct.pack("<i", _to_signed(op.value))
    if isinstance(op, Mem):
        flags = (int(op.base is not None)
                 | (int(op.index is not None) << 1)
                 | (_SCALE_CODE[op.scale] << 2)
                 | (_SIZE_CODE[op.size] << 4))
        out = bytes([_TAG_MEM, flags])
        if op.base is not None:
            out += _encode_reg(op.base)
        if op.index is not None:
            out += _encode_reg(op.index)
        return out + struct.pack("<i", _to_signed(op.disp))
    if isinstance(op, ImportRef):
        try:
            idx = import_index[op.name]
        except KeyError:
            raise EncodingError(f"unknown import {op.name!r}") from None
        return bytes([_TAG_IMPORT]) + struct.pack("<H", idx)
    if isinstance(op, Label):
        raise EncodingError(f"unresolved label {op.name!r} at encode time")
    raise EncodingError(f"cannot encode operand {op!r}")


def _to_signed(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def encode(instr: Instruction, import_index: dict[str, int]) -> bytes:
    """Encode one instruction; labels must already be resolved."""
    try:
        opcode = _OPCODE_BY_KEY[(instr.mnemonic, instr.cc)]
    except KeyError:
        raise EncodingError(f"cannot encode {instr!r}") from None
    body = b"".join(_encode_operand(op, import_index)
                    for op in instr.operands)
    return bytes([opcode, len(instr.operands)]) + body


def decode(data: bytes, offset: int, import_names: list[str],
           operands: dict | None = None) -> tuple[Instruction, int]:
    """Decode one instruction at ``offset``.

    Returns the instruction and its encoded size.  The instruction's
    ``size`` field is filled in; ``addr`` is left for the caller (which
    knows the load address).

    Registers come from a table of every view.  ``operands`` maps the
    encoding of each memory or immediate operand decoded so far to the
    frozen operand: pass one dict to every decode of an image (its
    :class:`~repro.isa.disassembler.Disassembler` does) and equal
    operands are one object, built once.
    """
    if operands is None:
        operands = {}
    start = offset
    try:
        mnemonic, cc = _KEY_BY_OPCODE[data[offset]]
    except IndexError:
        raise EncodingError(f"bad opcode {data[offset]:#x} at {offset:#x}") \
            from None
    nops = data[offset + 1]
    offset += 2
    ops: list[Operand] = []
    for _ in range(nops):
        tag = data[offset]
        if tag == _TAG_REG:
            b = data[offset + 1]
            ops.append(_REGS[b & 0x3F] or _decode_reg(b))
            offset += 2
        elif tag == _TAG_IMM:
            end = offset + 5
            key = data[offset:end]
            op = operands.get(key)
            if op is None:
                (v,) = struct.unpack_from("<i", data, offset + 1)
                op = operands[key] = Imm(v)
            ops.append(op)
            offset = end
        elif tag == _TAG_MEM:
            flags = data[offset + 1]
            end = offset + 6 + (flags & 1) + ((flags >> 1) & 1)
            key = data[offset:end]
            op = operands.get(key)
            if op is None:
                op = operands[key] = _decode_mem(data, offset + 2, flags)
            ops.append(op)
            offset = end
        elif tag == _TAG_IMPORT:
            (idx,) = struct.unpack_from("<H", data, offset + 1)
            offset += 3
            try:
                ops.append(ImportRef(import_names[idx]))
            except IndexError:
                raise EncodingError(f"bad import index {idx}") from None
        else:
            raise EncodingError(f"bad operand tag {tag} at {offset:#x}")
    size = offset - start
    return Instruction(mnemonic, tuple(ops), cc=cc, size=size), size


def _decode_mem(data: bytes, offset: int, flags: int) -> Mem:
    """The memory operand whose ``flags`` byte precedes ``offset``."""
    base = index = None
    if flags & 1:
        b = data[offset]
        base = _REGS[b & 0x3F] or _decode_reg(b)
        offset += 1
    if flags & 2:
        b = data[offset]
        index = _REGS[b & 0x3F] or _decode_reg(b)
        offset += 1
    (disp,) = struct.unpack_from("<i", data, offset)
    return Mem(base, index, _SCALE_FROM_CODE[(flags >> 2) & 3], disp,
               _SIZE_FROM_CODE[(flags >> 4) & 3])
