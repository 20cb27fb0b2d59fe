"""Alias analysis over IR addresses.

The precision story here is the paper's core argument made executable:

* the *emulated stack* is one escaping global byte array, so accesses
  through it mostly answer "may alias" and block load/store optimization
  (paper §2.1's use-define discussion);
* after symbolization, locals are distinct allocas — distinct allocas
  never alias, non-escaping allocas cannot be touched by calls or unknown
  pointers, and in-bounds derivation (guaranteed by WYTIWYG for traced
  inputs) keeps derived pointers attached to their alloca.

Address facts form a small lattice: ``None`` (uncomputed), a rooted fact
``(kind, root, offset)`` with kind in {"alloca", "global", "const",
"anyconst"}, or ``UNKNOWN``.
"""

from __future__ import annotations

from ..ir.module import Function, Module
from ..ir.values import (
    Alloca,
    BinOp,
    Const,
    GlobalRef,
    Instr,
    Load,
    Phi,
    Store,
    Switch,
    Value,
)
from .analysis import cached_analysis

UNKNOWN = ("unknown", None, None)


def alias_analysis(func: Function,
                   module: Module | None = None) -> "AliasAnalysis":
    """The :class:`AliasAnalysis` of ``func``, cached for its mutation
    epoch, so load elimination and dead-store elimination share one when
    the first leaves the function unchanged.

    It reads every instruction, so it stays valid only while no
    instruction of the function changes: every pass that changes one
    bumps the epoch (``func.invalidate()``), and no pass may declare it
    preserved.  The slot is keyed on the module's fixed-address global
    ranges, the only part of the module the analysis reads.
    """
    ranges = tuple(_global_ranges(module))
    return cached_analysis(func, ("alias", ranges),
                           lambda f: AliasAnalysis(f, module))


def _global_ranges(module: Module | None) -> list[tuple[int, int, str]]:
    ranges = []
    if module is not None:
        for g in module.globals.values():
            if g.fixed_addr is not None:
                ranges.append((g.fixed_addr, g.fixed_addr + g.size,
                               g.name))
    return sorted(ranges)


class AliasAnalysis:
    """Per-function pointer facts: address roots and escaping allocas."""

    def __init__(self, func: Function, module: Module | None = None):
        self.func = func
        # Only the global ranges are kept: a cached analysis that held
        # the module would keep every module it ever saw alive.
        self._global_ranges = _global_ranges(module)
        self.info: dict[Value, tuple] = {}
        self._compute_info()
        self.escaped: set[Alloca] = self._compute_escapes()

    # -- address facts ------------------------------------------------------

    def _const_fact(self, value: int) -> tuple:
        for lo, hi, name in self._global_ranges:
            if lo <= value < hi:
                return ("global", name, value - lo)
        return ("const", value, 0)

    def fact_for(self, v: Value) -> tuple:
        if isinstance(v, Const):
            return self._const_fact(v.value)
        if isinstance(v, GlobalRef):
            return ("global", v.name, 0)
        if isinstance(v, Alloca):
            return ("alloca", v, 0)
        return self.info.get(v, UNKNOWN)

    @staticmethod
    def _join(a: tuple | None, b: tuple) -> tuple:
        if a is None:
            return b
        if a == b:
            return a
        if a[0] == "unknown" or b[0] == "unknown":
            return UNKNOWN
        if a[0] == b[0] and a[1] == b[1]:
            return (a[0], a[1], None)  # same root, offsets differ
        if a[0] in ("const", "anyconst") and b[0] in ("const", "anyconst"):
            return ("anyconst", None, None)
        return UNKNOWN

    def _transfer(self, instr: Instr) -> tuple | None:
        if isinstance(instr, BinOp) and instr.opcode in ("add", "sub"):
            lf = self.fact_for(instr.lhs)
            rf = self.fact_for(instr.rhs)
            const_side = None
            ptr_side = None
            if isinstance(instr.rhs, Const):
                const_side, ptr_side = instr.rhs.value, lf
            elif isinstance(instr.lhs, Const) and instr.opcode == "add":
                const_side, ptr_side = instr.lhs.value, rf
            if ptr_side is not None and ptr_side[0] in ("alloca", "global"):
                if ptr_side[2] is None:
                    return ptr_side
                delta = const_side if instr.opcode == "add" \
                    else -const_side
                return (ptr_side[0], ptr_side[1], ptr_side[2] + delta)
            # Pointer +/- non-constant stays attached to its root with an
            # unknown offset (in-bounds assumption, see module docstring).
            for fact in (lf, rf):
                if fact[0] in ("alloca", "global"):
                    return (fact[0], fact[1], None)
            if lf[0] in ("const", "anyconst") and \
                    rf[0] in ("const", "anyconst"):
                return ("anyconst", None, None)
            return UNKNOWN
        if isinstance(instr, Phi):
            fact: tuple | None = None
            for op in instr.ops:
                if op is instr:
                    continue
                fact = self._join(fact, self.fact_for(op))
                if fact == UNKNOWN:
                    break
            return fact or UNKNOWN
        return UNKNOWN

    def _compute_info(self) -> None:
        interesting = [i for i in self.func.instructions()
                       if (isinstance(i, BinOp)
                           and i.opcode in ("add", "sub"))
                       or isinstance(i, Phi)]
        # Seed with bottom (absent), iterate to a fixed point; the lattice
        # has height 3 so this terminates quickly.
        for _round in range(12):
            changed = False
            for instr in interesting:
                new = self._transfer(instr)
                if new is not None and self.info.get(instr) != new:
                    self.info[instr] = new
                    changed = True
            if not changed:
                return
        # Anything still unstable degrades to unknown.
        for instr in interesting:
            self.info.setdefault(instr, UNKNOWN)

    # -- escape analysis ----------------------------------------------------

    def _compute_escapes(self) -> set[Alloca]:
        escaped: set[Alloca] = set()
        for instr in self.func.instructions():
            for op in instr.operands():
                fact = self.fact_for(op)
                if fact[0] != "alloca":
                    continue
                alloca = fact[1]
                if isinstance(instr, Load) and instr.addr is op:
                    continue
                if isinstance(instr, Store) and instr.addr is op \
                        and instr.value is not op:
                    continue
                if isinstance(instr, (BinOp, Phi)) and \
                        self.fact_for(instr)[0] == "alloca":
                    continue  # still tracked
                if instr.opcode == "icmp":
                    continue  # comparisons don't leak the pointer
                if isinstance(instr, Switch):
                    continue
                # Stored as a value, passed to any call, returned, or used
                # in untracked arithmetic: the alloca escapes.
                escaped.add(alloca)
        return escaped

    # -- queries ------------------------------------------------------------

    def may_alias(self, addr_a: Value, size_a: int,
                  addr_b: Value, size_b: int) -> bool:
        a = self.fact_for(addr_a)
        b = self.fact_for(addr_b)
        return self._facts_alias(a, size_a, b, size_b)

    def _facts_alias(self, a: tuple, size_a: int,
                     b: tuple, size_b: int) -> bool:
        if a[0] == "unknown" or b[0] == "unknown":
            for fact in (a, b):
                if fact[0] == "alloca" and fact[1] not in self.escaped:
                    return False
            return True
        if a[0] == "alloca" and b[0] == "alloca":
            if a[1] is not b[1]:
                return False
            return self._offsets_overlap(a[2], size_a, b[2], size_b)
        if a[0] == "alloca" or b[0] == "alloca":
            return False  # alloca vs global/const: distinct regions
        if a[0] == "global" and b[0] == "global":
            if a[1] != b[1]:
                return False
            return self._offsets_overlap(a[2], size_a, b[2], size_b)
        if a[0] == "const" and b[0] == "const":
            return self._offsets_overlap(a[1], size_a, b[1], size_b)
        # global vs const: a const fact inside a known fixed global would
        # have been classified as that global, so remaining consts point
        # outside every module global.
        if {a[0], b[0]} == {"global", "const"}:
            return False
        return True  # anyconst vs const/global/anyconst: be conservative

    @staticmethod
    def _offsets_overlap(off_a: int | None, size_a: int,
                         off_b: int | None, size_b: int) -> bool:
        if off_a is None or off_b is None:
            return True
        return off_a < off_b + size_b and off_b < off_a + size_a

    def clobbered_by_call(self, addr: Value) -> bool:
        """May a call (internal or external) modify memory at ``addr``?

        Calls cannot touch allocas that never escape; anything else is
        fair game.
        """
        fact = self.fact_for(addr)
        if fact[0] == "alloca":
            return fact[1] in self.escaped
        return True
