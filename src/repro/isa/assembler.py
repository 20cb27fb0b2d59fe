"""Two-pass assembler and linker for the repro ISA.

Takes an :class:`AsmProgram` (functions of labelled instruction lists plus
data items) and produces a loadable :class:`~repro.binary.image.BinaryImage`.
Labels are global; compilers mangle block-local labels with the function
name (``f.L3``) to keep them unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..binary.image import BinaryImage, FrameGroundTruth, Section, TEXT_BASE
from ..errors import AsmError
from . import encoding
from .instructions import Imm, Instruction, Label, Mem, Operand

AsmItem = str | Instruction  # a label definition or an instruction


@dataclass
class AsmFunction:
    """A function body: a flat list of labels and instructions."""

    name: str
    items: list[AsmItem] = field(default_factory=list)

    def label(self, name: str) -> None:
        self.items.append(name)

    def emit(self, instr: Instruction) -> None:
        self.items.append(instr)


@dataclass
class DataItem:
    """A datum in the data section.

    ``payload`` is either raw bytes or a list of 32-bit words, where each
    word may be an int or a :class:`Label` (for jump tables / function
    pointer tables).
    """

    name: str
    payload: bytes | list[int | Label]
    align: int = 4
    writable: bool = True
    #: Pin this datum at an absolute address (its own section) -- used by
    #: recompiled binaries to keep original data where the input binary
    #: had it.
    fixed_addr: int | None = None


@dataclass
class AsmProgram:
    """A whole program ready for assembly."""

    functions: list[AsmFunction] = field(default_factory=list)
    data: list[DataItem] = field(default_factory=list)
    imports: list[str] = field(default_factory=list)
    entry: str = "_start"
    text_base: int = TEXT_BASE
    ground_truth: list[FrameGroundTruth] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)


def _has_label(operands: tuple[Operand, ...]) -> bool:
    """True if an operand's value waits on a label's address."""
    for op in operands:
        if isinstance(op, Label) or (isinstance(op, Mem)
                                     and isinstance(op.disp, Label)):
            return True
    return False


def _placeholder(op: Operand) -> Operand:
    """Replace label references with dummies so sizes can be computed."""
    if isinstance(op, Label):
        return Imm(0)
    if isinstance(op, Mem) and isinstance(op.disp, Label):
        return Mem(op.base, op.index, op.scale, 0, op.size)
    return op


def _resolve(op: Operand, symbols: dict[str, int]) -> Operand:
    if isinstance(op, Label):
        try:
            return Imm(symbols[op.name] + op.addend)
        except KeyError:
            raise AsmError(f"undefined label {op.name!r}") from None
    if isinstance(op, Mem) and isinstance(op.disp, Label):
        try:
            return Mem(op.base, op.index, op.scale,
                       symbols[op.disp.name] + op.disp.addend, op.size)
        except KeyError:
            raise AsmError(f"undefined label {op.disp.name!r}") from None
    return op


def _align(addr: int, alignment: int) -> int:
    return (addr + alignment - 1) & ~(alignment - 1)


def assemble(program: AsmProgram) -> BinaryImage:
    """Assemble and link ``program`` into a runnable binary image."""
    import_index = {name: i for i, name in enumerate(program.imports)}
    symbols: dict[str, int] = {}

    # Pass 1: place every instruction.  An instruction without a label
    # operand is encoded once, here, for good; one with a label learns
    # its size from a placeholder encoding (operand sizes do not depend
    # on label values) and waits for pass 2.  ``raw`` is None for those.
    addr = program.text_base
    placed: list[tuple[Instruction, bytes | None]] = []
    for func in program.functions:
        if func.name in symbols:
            raise AsmError(f"duplicate function {func.name!r}")
        symbols[func.name] = addr
        for item in func.items:
            if isinstance(item, str):
                if item in symbols:
                    raise AsmError(f"duplicate label {item!r}")
                symbols[item] = addr
                continue
            if _has_label(item.operands):
                ops = tuple(_placeholder(o) for o in item.operands)
                probe = Instruction(item.mnemonic, ops, cc=item.cc)
                raw = None
                size = len(encoding.encode(probe, import_index))
            else:
                raw = encoding.encode(item, import_index)
                size = len(raw)
            item.addr = addr
            item.size = size
            addr += size
            placed.append((item, raw))
    text_end = addr

    # Place data items after the text section; pinned items become their
    # own sections at their fixed addresses.
    data_base = _align(text_end, 16)
    addr = data_base
    placements: list[tuple[DataItem, int, int]] = []  # item, addr, size
    pinned: list[tuple[DataItem, int]] = []
    for item in program.data:
        if item.name in symbols:
            raise AsmError(f"duplicate data symbol {item.name!r}")
        size = (len(item.payload) if isinstance(item.payload, bytes)
                else 4 * len(item.payload))
        if item.fixed_addr is not None:
            symbols[item.name] = item.fixed_addr
            pinned.append((item, size))
            continue
        addr = _align(addr, item.align)
        symbols[item.name] = addr
        placements.append((item, addr, size))
        addr += size

    # Pass 2: resolve labels, encode what waited on them, and emit.
    text = bytearray()
    for instr, raw in placed:
        if raw is None:
            ops = tuple(_resolve(o, symbols) for o in instr.operands)
            final = Instruction(instr.mnemonic, ops, cc=instr.cc)
            raw = encoding.encode(final, import_index)
            if len(raw) != instr.size:
                raise AsmError(f"size drift assembling {instr!r}")
        text += raw

    def render(item: DataItem, size: int) -> bytes:
        if isinstance(item.payload, bytes):
            return item.payload
        out = bytearray()
        for word in item.payload:
            if isinstance(word, Label):
                try:
                    value = symbols[word.name] + word.addend
                except KeyError:
                    raise AsmError(
                        f"undefined label {word.name!r} in data "
                        f"{item.name!r}") from None
            else:
                value = word
            out += (value & 0xFFFFFFFF).to_bytes(4, "little")
        return bytes(out)

    data = bytearray(addr - data_base)
    for item, base, size in placements:
        payload = render(item, size)
        data[base - data_base:base - data_base + len(payload)] = payload

    extra_sections = [
        Section(item.name, item.fixed_addr, render(item, size),
                writable=item.writable)
        for item, size in pinned
    ]

    if program.entry not in symbols:
        raise AsmError(f"entry symbol {program.entry!r} undefined")

    image = BinaryImage(
        text=Section(".text", program.text_base, bytes(text)),
        data_sections=(
            ([Section(".data", data_base, bytes(data), writable=True)]
             if data else []) + extra_sections),
        entry=symbols[program.entry],
        imports=list(program.imports),
        symbols=dict(symbols),
        ground_truth=[
            FrameGroundTruth(g.func_name, symbols.get(g.func_name, g.entry),
                             g.frame_size, g.objects)
            for g in program.ground_truth
        ],
        metadata=dict(program.metadata),
    )
    image.validate()
    return image
