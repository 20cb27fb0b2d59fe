"""VSA-lite abstract interpretation of sp0-relative stack offsets.

Runs over the lifted, canonicalized, *pre-symbolization* IR (the same
module state :mod:`repro.core.sp0fold` annotates) and computes, for each
lifted function, the set of frame accesses that are statically provable:
every load/store whose address is ``sp0 + d`` for an abstract offset
``d``.

The abstract domain is a two-level interval lattice (Macaw-style
value-set analysis, cut down to the single region that matters here):

* ``BOT`` — unreached;
* ``NUM [lo, hi]`` — a plain number in the interval (``None`` bounds
  mean +/- infinity);
* ``SP [lo, hi]`` — ``sp0 + d`` with ``d`` in the interval;
* ``TOP`` — unknown provenance (could be stack-derived or not).

Join is interval union per region; joining ``NUM`` with ``SP`` gives
``TOP``.  At loop headers (cached :func:`repro.opt.analysis.
loop_headers`) phi joins are *widened*: any bound that grew between
iterates jumps to infinity, so the fixed point terminates in a constant
number of rounds regardless of loop shape.

Accesses whose abstract offset is a single constant are **exact**;
bounded intervals give a **region**; stack-derived addresses with an
unbounded interval (array walks whose index flows through memory) are
**derived** — they keep the constant *anchor* of the base pointer they
were built from, and the corroboration pass clamps their extent against
the neighbouring statically-known frame slots.

Per-function results are memoized in the versioned CFG-analysis cache
(:func:`repro.opt.analysis.cached_analysis`), so repeated consumers
(corroboration, the ``check`` CLI, evaluation sweeps) pay for one
interpretation per mutation epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.module import Function
from ..ir.values import (
    BinOp,
    CallExt,
    Const,
    ICmp,
    Instr,
    Load,
    Phi,
    Store,
    Unary,
    Value,
)
from ..opt.analysis import cached_analysis, loop_headers


def _sp0fold():
    """Deferred import: :mod:`repro.core` imports this package from its
    driver, so importing it back at module scope would be a cycle."""
    from ..core import sp0fold
    return sp0fold

# -- the abstract domain ----------------------------------------------------

BOT = "bot"
NUM = "num"
SP = "sp"
TOP = "top"


@dataclass(frozen=True)
class AbsVal:
    """One abstract value: a region tag plus an interval.

    ``lo``/``hi`` are inclusive signed bounds; ``None`` means the bound
    is infinite on that side.  ``BOT``/``TOP`` carry no interval.
    """

    kind: str
    lo: int | None = None
    hi: int | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def num(lo: int | None, hi: int | None) -> "AbsVal":
        return AbsVal(NUM, lo, hi)

    @staticmethod
    def const(value: int) -> "AbsVal":
        return AbsVal(NUM, value, value)

    @staticmethod
    def sp(lo: int | None, hi: int | None) -> "AbsVal":
        return AbsVal(SP, lo, hi)

    # -- predicates ---------------------------------------------------------

    @property
    def is_exact_sp(self) -> bool:
        return self.kind == SP and self.lo is not None \
            and self.lo == self.hi

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def __repr__(self) -> str:
        if self.kind in (BOT, TOP):
            return self.kind
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        base = "sp0+" if self.kind == SP else ""
        return f"{base}[{lo}, {hi}]"


BOT_V = AbsVal(BOT)
TOP_V = AbsVal(TOP)
NUM_TOP = AbsVal(NUM, None, None)


def _min(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return min(a, b)


def _max(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)


def _add(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return a + b


def join(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.kind == BOT:
        return b
    if b.kind == BOT:
        return a
    if a.kind == TOP or b.kind == TOP:
        return TOP_V
    if a.kind != b.kind:
        return TOP_V
    return AbsVal(a.kind, _min(a.lo, b.lo), _max(a.hi, b.hi))


def widen(old: AbsVal, new: AbsVal) -> AbsVal:
    """Jump any growing bound to infinity (classic interval widening)."""
    if old.kind in (BOT, TOP) or new.kind in (BOT, TOP) \
            or old.kind != new.kind:
        return join(old, new)
    lo = old.lo
    if new.lo is None or (lo is not None and new.lo < lo):
        lo = None
    hi = old.hi
    if new.hi is None or (hi is not None and new.hi > hi):
        hi = None
    return AbsVal(new.kind, lo, hi)


# -- transfer functions -----------------------------------------------------

_UNARY_RANGES = {
    "sext8": (-128, 127), "sext16": (-32768, 32767),
    "zext8": (0, 255), "zext16": (0, 65535),
    "trunc8": (0, 255), "trunc16": (0, 65535),
}


def _transfer_binop(instr: BinOp, val) -> AbsVal:
    a, b = val(instr.lhs), val(instr.rhs)
    if a.kind == BOT or b.kind == BOT:
        return BOT_V
    op = instr.opcode
    if op == "add":
        if a.kind == SP and b.kind == NUM:
            return AbsVal(SP, _add(a.lo, b.lo), _add(a.hi, b.hi))
        if a.kind == NUM and b.kind == SP:
            return AbsVal(SP, _add(b.lo, a.lo), _add(b.hi, a.hi))
        if a.kind == NUM and b.kind == NUM:
            return AbsVal(NUM, _add(a.lo, b.lo), _add(a.hi, b.hi))
        return TOP_V
    if op == "sub":
        if a.kind == SP and b.kind == NUM:
            neg_hi = None if b.lo is None else -b.lo
            neg_lo = None if b.hi is None else -b.hi
            return AbsVal(SP, _add(a.lo, neg_lo), _add(a.hi, neg_hi))
        if a.kind == SP and b.kind == SP:
            # Frame-pointer difference: a plain (unknown) number.
            return NUM_TOP
        if a.kind == NUM and b.kind == NUM:
            neg_hi = None if b.lo is None else -b.lo
            neg_lo = None if b.hi is None else -b.hi
            return AbsVal(NUM, _add(a.lo, neg_lo), _add(a.hi, neg_hi))
        return TOP_V
    if op == "mul":
        if a.kind == NUM and b.kind == NUM:
            if a.bounded and b.bounded:
                prods = [a.lo * b.lo, a.lo * b.hi,
                         a.hi * b.lo, a.hi * b.hi]
                return AbsVal(NUM, min(prods), max(prods))
            return NUM_TOP
        return TOP_V
    # and/or/xor/shifts/div/rem on stack pointers lose the offset but
    # not the region (alignment masks stay frame-relative); on numbers
    # they stay numbers.
    if a.kind == SP or b.kind == SP:
        return AbsVal(SP, None, None)
    return NUM_TOP


class _Interpreter:
    def __init__(self, func: Function):
        self.func = func
        self.values: dict[Value, AbsVal] = {}
        self.headers = loop_headers(func)

    def val(self, v: Value) -> AbsVal:
        if isinstance(v, Const):
            return AbsVal.const(v.signed)
        if self.func.params and v is self.func.params[0]:
            return AbsVal.sp(0, 0)
        return self.values.get(v, BOT_V)

    def _transfer(self, instr: Instr) -> AbsVal:
        if isinstance(instr, BinOp):
            return _transfer_binop(instr, self.val)
        if isinstance(instr, Phi):
            out = BOT_V
            for op in instr.ops:
                if op is instr:
                    continue
                out = join(out, self.val(op))
            return out
        if isinstance(instr, Unary):
            if instr.opcode == "neg":
                src = self.val(instr.src)
                if src.kind == NUM:
                    neg_hi = None if src.lo is None else -src.lo
                    neg_lo = None if src.hi is None else -src.hi
                    return AbsVal(NUM, neg_lo, neg_hi)
                return TOP_V if src.kind in (SP, TOP) else BOT_V
            rng = _UNARY_RANGES.get(instr.opcode)
            if rng is not None:
                return AbsVal(NUM, rng[0], rng[1])
            return NUM_TOP
        if isinstance(instr, ICmp):
            return AbsVal(NUM, 0, 1)
        if isinstance(instr, (Load, CallExt)):
            # Loaded (or externally produced) words are plain numbers;
            # adding one to a stack pointer keeps the SP region with an
            # unknown offset, which is exactly the derived-access shape.
            return NUM_TOP
        if instr.has_result:
            return NUM_TOP
        return BOT_V

    def run(self) -> dict[Value, AbsVal]:
        # One pass assigns in program order; further rounds only matter
        # for back edges (phi at loop heads), where widening bounds the
        # iterate count.
        for _round in range(16):
            changed = False
            for block in self.func.blocks:
                at_header = block in self.headers
                for instr in block.instrs:
                    new = self._transfer(instr)
                    old = self.values.get(instr, BOT_V)
                    if at_header and isinstance(instr, Phi):
                        new = widen(old, new)
                    else:
                        new = join(old, new)
                    if new != old:
                        self.values[instr] = new
                        changed = True
            if not changed:
                return self.values
        # Anything still unstable degrades to TOP.
        for block in self.func.blocks:
            for instr in block.instrs:
                if instr.has_result:
                    new = self._transfer(instr)
                    old = self.values.get(instr, BOT_V)
                    if join(old, new) != old:
                        self.values[instr] = TOP_V
        return self.values


# -- frame accesses ---------------------------------------------------------


@dataclass(frozen=True)
class StaticAccess:
    """One statically-provable frame access, sp0-relative.

    ``[lo, hi)`` is the byte region the access may touch; ``hi`` is
    ``None`` for derived accesses, whose extent is unknown until the
    corroboration pass clamps it against neighbouring frame slots.
    """

    lo: int
    hi: int | None
    width: int
    kind: str                 # "load" | "store"
    exact: bool = False       # single constant offset
    derived: bool = False     # anchored base, unknown extent

    def region(self) -> tuple[int, int | None]:
        return (self.lo, self.hi)


@dataclass
class FrameAccessSet:
    """All statically-provable frame accesses of one function."""

    func_name: str
    accesses: list[StaticAccess] = field(default_factory=list)
    #: Exact constant sp0 offsets with static evidence (access offsets
    #: and derived-access anchors); the corroboration clamp rule.
    known_offsets: set[int] = field(default_factory=set)
    #: Lowest sp0 offset any access may touch (the static frame floor).
    frame_low: int | None = None

    def add(self, access: StaticAccess) -> None:
        self.accesses.append(access)
        self.known_offsets.add(access.lo)
        if self.frame_low is None or access.lo < self.frame_low:
            self.frame_low = access.lo


def _find_anchor(addr: Value, offsets: dict[Value, int]) -> int | None:
    """The constant sp0 offset of the nearest chain ancestor of
    ``addr`` — the base pointer a derived access was built from."""
    seen: set[int] = set()
    work: list[Value] = [addr]
    for _ in range(256):
        if not work:
            return None
        v = work.pop(0)
        if id(v) in seen:
            continue
        seen.add(id(v))
        if v in offsets:
            return offsets[v]
        if isinstance(v, Instr):
            work.extend(op for op in v.operands()
                        if isinstance(op, Instr) or op in offsets)
    return None


def analyze_function(func: Function) -> FrameAccessSet:
    """Static frame accesses of one lifted function, memoized per
    mutation epoch in the versioned CFG-analysis cache."""
    return cached_analysis(func, "sanalysis.accesses", _analyze)


def _analyze(func: Function) -> FrameAccessSet:
    out = FrameAccessSet(func.name)
    if not _sp0fold().is_lifted_function(func):
        return out
    values = _Interpreter(func).run()
    offsets = func.meta.get("sp0_offsets")
    if offsets is None:
        offsets = _sp0fold().compute_sp0_offsets(func)

    for block in func.blocks:
        for instr in block.instrs:
            if isinstance(instr, Load):
                addr, width, kind = instr.addr, instr.size, "load"
            elif isinstance(instr, Store):
                addr, width, kind = instr.addr, instr.size, "store"
            else:
                continue
            fact = values.get(addr, BOT_V)
            if isinstance(addr, Const):
                fact = AbsVal.const(addr.signed)
            elif func.params and addr is func.params[0]:
                fact = AbsVal.sp(0, 0)
            if fact.kind != SP:
                continue
            if fact.is_exact_sp:
                out.add(StaticAccess(fact.lo, fact.lo + width, width,
                                     kind, exact=True))
            elif fact.bounded:
                out.add(StaticAccess(fact.lo, fact.hi + width, width, kind))
            else:
                anchor = _find_anchor(addr, offsets)
                if anchor is None:
                    continue
                out.add(StaticAccess(anchor, None, width, kind, derived=True))
    out.accesses.sort(key=lambda a: (a.lo, a.width, a.kind))
    return out


def analyze_module(module) -> dict[str, FrameAccessSet]:
    """Frame-access sets for every lifted function in the module."""
    lifted = _sp0fold().is_lifted_function
    return {func.name: analyze_function(func)
            for func in module.functions.values()
            if lifted(func)}
