"""Flag-pattern fusion: collapse lifted EFLAGS computations back into
single comparisons.

The lifter materializes x86 status flags as explicit IR (zf/sf/cf/of
expressions); branch predicates become trees like
``xor(icmp slt(sub(a,b),0), shr(and(xor(a,b),xor(a,sub(a,b))),31))``.
LLVM's instcombine recognizes and refolds these shapes in real
recompilers; this pass does the same for the exact trees our translator
emits, restoring ``icmp slt a, b``-style predicates that the backend can
fuse into cmp+jcc.

The rules are semantics-preserving for all inputs (they encode the
actual flag definitions), so the pass is safe for any IR, not just
lifted code.
"""

from __future__ import annotations

from ..ir.module import Function
from ..ir.values import BinOp, Const, ICmp, Instr, Unary, Value
from .analysis import CFG_ANALYSES
from .constfold import finish_sweep, resolve_operands

#: Fusion substitutes comparison trees instruction-for-instruction; the
#: block list and terminator targets are untouched.
PRESERVES = CFG_ANALYSES

_INVERT = {
    "eq": "ne", "ne": "eq", "slt": "sge", "sge": "slt", "sle": "sgt",
    "sgt": "sle", "ult": "uge", "uge": "ult", "ule": "ugt", "ugt": "ule",
}

#: or(pred1, pred2) on identical operands -> combined predicate.
_OR_COMBINE = {
    frozenset(("slt", "eq")): "sle",
    frozenset(("sgt", "eq")): "sge",
    frozenset(("ult", "eq")): "ule",
    frozenset(("ugt", "eq")): "uge",
    frozenset(("slt", "sgt")): "ne",
    frozenset(("ult", "ugt")): "ne",
}

#: and(pred1, pred2) on identical operands -> combined predicate.
_AND_COMBINE = {
    frozenset(("sge", "ne")): "sgt",
    frozenset(("sle", "ne")): "slt",
    frozenset(("uge", "ne")): "ugt",
    frozenset(("ule", "ne")): "ult",
    frozenset(("sle", "sge")): "eq",
    frozenset(("ule", "uge")): "eq",
}


def _as_sub(v: Value) -> tuple[Value, Value] | None:
    """View ``v`` as a subtraction a - b (constfold canonicalizes
    ``sub x, c`` into ``add x, -c``)."""
    if isinstance(v, BinOp):
        if v.opcode == "sub":
            return v.lhs, v.rhs
        if v.opcode == "add" and isinstance(v.rhs, Const):
            return v.lhs, Const((-v.rhs.value) & 0xFFFFFFFF)
    return None


def _same_operands(a: ICmp, b: ICmp) -> bool:
    # Instr operands compare by identity, Consts by value.
    return a.lhs == b.lhs and a.rhs == b.rhs


def _match_overflow_shr(v: Value, a: Value, b: Value,
                        res: Value) -> bool:
    """Match ``shr(and(xor(a,b), xor(a,res)), 31)`` (sub overflow)."""
    if not (isinstance(v, BinOp) and v.opcode == "shr"
            and isinstance(v.rhs, Const) and v.rhs.value == 31):
        return False
    inner = v.lhs
    if not (isinstance(inner, BinOp) and inner.opcode == "and"):
        return False
    sides = [inner.lhs, inner.rhs]

    def same(x: Value, y: Value) -> bool:
        if x is y:
            return True
        return (isinstance(x, Const) and isinstance(y, Const)
                and x.value == y.value)

    def is_xor(x: Value, p: Value, q: Value) -> bool:
        return (isinstance(x, BinOp) and x.opcode == "xor"
                and ((same(x.lhs, p) and same(x.rhs, q))
                     or (same(x.lhs, q) and same(x.rhs, p))))

    return ((is_xor(sides[0], a, b) and is_xor(sides[1], a, res))
            or (is_xor(sides[1], a, b) and is_xor(sides[0], a, res)))


def _simplify_one(instr: Instr) -> Instr | Value | None:
    """Return a replacement (new ICmp instr or existing value) or
    None."""
    # zext of a boolean is the boolean.
    if isinstance(instr, Unary) and instr.opcode in ("zext8", "zext16",
                                                     "trunc8",
                                                     "trunc16"):
        if isinstance(instr.src, ICmp):
            return instr.src

    if isinstance(instr, ICmp):
        # icmp eq/ne (bool), 0 -> inverted / same boolean.
        if isinstance(instr.lhs, ICmp) and isinstance(instr.rhs, Const) \
                and instr.rhs.value == 0:
            if instr.pred == "eq":
                inner = instr.lhs
                return ICmp(_INVERT[inner.pred], inner.lhs, inner.rhs)
            if instr.pred == "ne":
                return instr.lhs
        # icmp eq/ne (a - b), 0 -> icmp eq/ne a, b.
        if instr.pred in ("eq", "ne") and isinstance(instr.rhs, Const) \
                and instr.rhs.value == 0:
            viewed = _as_sub(instr.lhs)
            if viewed is not None:
                return ICmp(instr.pred, viewed[0], viewed[1])
        return None

    if not isinstance(instr, BinOp):
        return None

    # xor(bool, 1) -> inverted bool.
    if instr.opcode == "xor" and isinstance(instr.lhs, ICmp) \
            and isinstance(instr.rhs, Const) and instr.rhs.value == 1:
        inner = instr.lhs
        return ICmp(_INVERT[inner.pred], inner.lhs, inner.rhs)

    # and(x, x) / or(x, x) -> x.
    if instr.opcode in ("and", "or") and instr.lhs is instr.rhs:
        return instr.lhs

    # The signed-less-than tree: xor(sf, of).
    if instr.opcode == "xor":
        for sf, of in ((instr.lhs, instr.rhs), (instr.rhs, instr.lhs)):
            if isinstance(sf, ICmp) and sf.pred == "slt" \
                    and isinstance(sf.rhs, Const) and sf.rhs.value == 0:
                viewed = _as_sub(sf.lhs)
                if viewed is not None and _match_overflow_shr(
                        of, viewed[0], viewed[1], sf.lhs):
                    return ICmp("slt", viewed[0], viewed[1])

    # Predicate combination over identical operands.
    if instr.opcode in ("or", "and") and isinstance(instr.lhs, ICmp) \
            and isinstance(instr.rhs, ICmp):
        a, b = instr.lhs, instr.rhs
        if _same_operands(a, b):
            table = _OR_COMBINE if instr.opcode == "or" else _AND_COMBINE
            pred = table.get(frozenset((a.pred, b.pred)))
            if pred is not None:
                return ICmp(pred, a.lhs, a.rhs)
    return None


def fuse_flags(func: Function) -> bool:
    """Iterate flag-tree fusion to a fixed point, normally in one sweep.

    As in :func:`~repro.opt.constfold.fold_constants`, operands are
    resolved through the replacements found earlier in the sweep, and a
    fresh comparison is resolved and fused again where it stands, so
    nested trees collapse in the sweep that reaches them.
    """
    changed = False
    for _ in range(16):
        replacements: dict[Instr, Value] = {}
        for block in func.blocks:
            instrs = block.instrs
            for idx, instr in enumerate(instrs):
                if replacements:
                    resolve_operands(instr, replacements)
                new = _simplify_one(instr)
                while isinstance(new, ICmp) and new.block is None:
                    # Fresh comparison: substitute it in place.  Its
                    # operands come from deeper in the tree.
                    new.block = block
                    instrs[idx] = new
                    replacements[instr] = new
                    instr = new
                    resolve_operands(instr, replacements)
                    new = _simplify_one(instr)
                if new is not None:
                    replacements[instr] = new
        if not replacements:
            return changed
        changed = True
        if finish_sweep(func, replacements):
            return changed
    return changed
