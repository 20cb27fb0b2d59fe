"""CPU state: the register file, flags, and condition-code predicates.

Flag semantics follow x86-32 for the subset the ISA exposes (ZF, SF, CF,
OF) so that compiled comparison/branch idioms behave identically under
emulation and after lifting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..isa.registers import GPR32, Reg, read_view, write_view

MASK32 = 0xFFFFFFFF


def signed32(v: int) -> int:
    v &= MASK32
    return v - 0x100000000 if v >= 0x80000000 else v


@dataclass
class Flags:
    zf: bool = False
    sf: bool = False
    cf: bool = False
    of: bool = False

    def set_logic(self, result: int) -> None:
        """Flags after and/or/xor/test: CF and OF cleared."""
        result &= MASK32
        self.zf = result == 0
        self.sf = bool(result & 0x80000000)
        self.cf = False
        self.of = False

    def set_add(self, a: int, b: int, result: int) -> None:
        a &= MASK32
        b &= MASK32
        self.zf = (result & MASK32) == 0
        self.sf = bool(result & 0x80000000)
        self.cf = result > MASK32
        self.of = bool((~(a ^ b) & (a ^ result)) & 0x80000000)

    def set_sub(self, a: int, b: int, result: int) -> None:
        a &= MASK32
        b &= MASK32
        self.zf = (result & MASK32) == 0
        self.sf = bool(result & 0x80000000)
        self.cf = a < b
        self.of = bool(((a ^ b) & (a ^ result)) & 0x80000000)


#: Condition-code predicates over :class:`Flags`, by the ``cc`` suffix
#: of ``jcc`` and ``setcc``.
CONDITIONS: dict[str, Callable[[Flags], bool]] = {
    "e": lambda f: f.zf,
    "ne": lambda f: not f.zf,
    "l": lambda f: f.sf != f.of,
    "le": lambda f: f.zf or f.sf != f.of,
    "g": lambda f: not f.zf and f.sf == f.of,
    "ge": lambda f: f.sf == f.of,
    "b": lambda f: f.cf,
    "be": lambda f: f.cf or f.zf,
    "a": lambda f: not f.cf and not f.zf,
    "ae": lambda f: not f.cf,
    "s": lambda f: f.sf,
    "ns": lambda f: not f.sf,
}


@dataclass
class CPU:
    """Architectural state: eight 32-bit GPRs, eip, and flags."""

    regs: list[int] = field(default_factory=lambda: [0] * 8)
    eip: int = 0
    flags: Flags = field(default_factory=Flags)

    def get(self, r: Reg) -> int:
        return read_view(self.regs[r.index], r)

    def set(self, r: Reg, value: int) -> None:
        self.regs[r.index] = write_view(self.regs[r.index], r, value)

    def get_name(self, name: str) -> int:
        return self.regs[GPR32.index(name)]

    def set_name(self, name: str, value: int) -> None:
        self.regs[GPR32.index(name)] = value & MASK32

    def snapshot(self) -> dict[str, int]:
        return {name: self.regs[i] for i, name in enumerate(GPR32)}
