"""Constant folding and algebraic simplification (instcombine-lite).

Works on one function at a time, iterating local rewrites to a fixed
point.  Lifted code is full of foldable address arithmetic (the
``sp0 - 4 - 64 - 4`` chains of paper §4.1), so this pass does a lot of
the canonicalization work that refinement lifting relies on.
"""

from __future__ import annotations

from ..ir.module import Block, Function
from ..ir.values import BinOp, Const, ICmp, Instr, Phi, Unary, Value
from .analysis import CFG_ANALYSES

#: Folding replaces and rewrites pure instructions in place; terminators
#: and the block list are never touched, so cached CFG analyses survive.
PRESERVES = CFG_ANALYSES

MASK32 = 0xFFFFFFFF


def _signed(v: int) -> int:
    v &= MASK32
    return v - 0x100000000 if v >= 0x80000000 else v


def fold_binop(op: str, a: int, b: int) -> int | None:
    if op == "add":
        return (a + b) & MASK32
    if op == "sub":
        return (a - b) & MASK32
    if op == "mul":
        return (_signed(a) * _signed(b)) & MASK32
    if op == "div":
        if _signed(b) == 0:
            return None
        return int(_signed(a) / _signed(b)) & MASK32
    if op == "rem":
        sb = _signed(b)
        if sb == 0:
            return None
        sa = _signed(a)
        return (sa - int(sa / sb) * sb) & MASK32
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return (a << (b & 31)) & MASK32
    if op == "shr":
        return (a & MASK32) >> (b & 31)
    if op == "sar":
        return (_signed(a) >> (b & 31)) & MASK32
    return None


def fold_icmp(pred: str, a: int, b: int) -> int:
    sa, sb = _signed(a), _signed(b)
    table = {
        "eq": a == b, "ne": a != b,
        "slt": sa < sb, "sle": sa <= sb, "sgt": sa > sb, "sge": sa >= sb,
        "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
    }
    return 1 if table[pred] else 0


def fold_unary(op: str, a: int) -> int:
    if op == "neg":
        return (-a) & MASK32
    if op == "not":
        return (~a) & MASK32
    if op in ("zext8", "trunc8"):
        return a & 0xFF
    if op in ("zext16", "trunc16"):
        return a & 0xFFFF
    if op == "sext8":
        v = a & 0xFF
        return (v | 0xFFFFFF00) if v & 0x80 else v
    if op == "sext16":
        v = a & 0xFFFF
        return (v | 0xFFFF0000) if v & 0x8000 else v
    raise ValueError(op)


_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor"})

#: Sentinel: the instruction was rewritten in place (no replacement value),
#: but the pass should run another round.
MUTATED = object()


def _simplify(instr: Instr) -> Value | object | None:
    """Return a replacement value for ``instr``, MUTATED, or None."""
    if isinstance(instr, BinOp):
        lhs, rhs = instr.lhs, instr.rhs
        if isinstance(lhs, Const) and isinstance(rhs, Const):
            folded = fold_binop(instr.opcode, lhs.value, rhs.value)
            if folded is not None:
                return Const(folded)
        # Canonicalize constants to the right for commutative ops.
        if instr.opcode in _COMMUTATIVE and isinstance(lhs, Const) \
                and not isinstance(rhs, Const):
            instr.ops = [rhs, lhs]
            lhs, rhs = instr.lhs, instr.rhs
        if isinstance(rhs, Const):
            c = rhs.value
            op = instr.opcode
            if c == 0 and op in ("add", "sub", "or", "xor", "shl", "shr",
                                 "sar"):
                return lhs
            if c == 0 and op in ("mul", "and"):
                return Const(0)
            if c == 1 and op == "mul":
                return lhs
            if c == MASK32 and op == "and":
                return lhs
            # Reassociate (x op c1) op c2 -> x op (c1 op c2) for add/sub
            # chains, the shape sp0-folding produces.
            if op in ("add", "sub") and isinstance(lhs, BinOp) \
                    and lhs.opcode in ("add", "sub") \
                    and isinstance(lhs.rhs, Const):
                inner_c = lhs.rhs.value if lhs.opcode == "add" \
                    else (-lhs.rhs.value) & MASK32
                outer_c = c if op == "add" else (-c) & MASK32
                total = (inner_c + outer_c) & MASK32
                instr.ops = [lhs.lhs, Const(total)]
                # Normalize to a single add.
                instr.opcode = "add"
                return MUTATED
            # sub x, c -> add x, -c (canonical form for later passes)
            if op == "sub":
                instr.opcode = "add"
                instr.ops = [lhs, Const((-c) & MASK32)]
                return MUTATED
        if instr.opcode == "sub" and lhs is rhs:
            return Const(0)
        if instr.opcode == "xor" and lhs is rhs:
            return Const(0)
        return None
    if isinstance(instr, ICmp):
        if isinstance(instr.lhs, Const) and isinstance(instr.rhs, Const):
            return Const(fold_icmp(instr.pred, instr.lhs.value,
                                   instr.rhs.value))
        if instr.lhs is instr.rhs:
            return Const(fold_icmp(instr.pred, 0, 0))
        return None
    if isinstance(instr, Unary):
        if isinstance(instr.src, Const):
            return Const(fold_unary(instr.opcode, instr.src.value))
        # zext8(zext8 x) etc.
        if isinstance(instr.src, Unary) and instr.src.opcode == instr.opcode:
            return instr.src
        return None
    return None


def resolve(v: Value, replacements: dict) -> Value:
    """Follow ``v`` through a sweep's replacement chains (a -> b ->
    const); a cycle, possible only in unreachable code, stops the
    walk."""
    seen = None
    while isinstance(v, Instr) and v in replacements:
        if seen is None:
            seen = set()
        elif v in seen:
            break
        seen.add(v)
        v = replacements[v]
    return v


def resolve_operands(instr: Instr, replacements: dict) -> bool:
    """Rewrite the operands of ``instr`` that a sweep replaced; True
    when one changed."""
    ops = instr.ops
    for op in ops:
        if isinstance(op, Instr) and op in replacements:
            instr.ops = [resolve(v, replacements) for v in ops]
            return True
    return False


def fold_constants(func: Function) -> bool:
    """Iterate local simplifications to a fixed point, normally in one
    sweep.

    Each instruction's operands are resolved through the replacements
    found earlier in the sweep, again after every in-place rewrite, so a
    chain of dependent folds finishes in the sweep that reaches it.
    :func:`finish_sweep` rewrites what the sweep could not (operands
    replaced after their user was simplified) and decides whether
    another sweep is needed.
    """
    changed = False
    while True:
        replacements: dict[Instr, Value] = {}
        mutated = False
        for block in func.blocks:
            for instr in block.instrs:
                if replacements:
                    resolve_operands(instr, replacements)
                new = _simplify(instr)
                while new is MUTATED:
                    # The rewrite may have taken an operand's operand.
                    mutated = True
                    if replacements:
                        resolve_operands(instr, replacements)
                    new = _simplify(instr)
                if new is not None and new is not instr:
                    replacements[instr] = new
        if not replacements and not mutated:
            return changed
        changed = True
        if finish_sweep(func, replacements):
            return changed


def finish_sweep(func: Function, replacements: dict) -> bool:
    """End a sweep: rewrite every operand that still names a replaced
    instruction, drop the replaced instructions and invalidate.

    Returns True when another sweep would find nothing.  The sweep
    simplified each instruction with its operands resolved, and an
    instruction changes only when the sweep reaches it, so an
    instruction is settled when nothing it reads changed after it was
    simplified.  That holds when no non-phi instruction needed an
    operand rewritten here and each names only instructions placed
    before it (the rules look through operands, never through phis).
    A block placed before its dominator breaks the second condition, and
    its function gets a further sweep whenever this one changed
    anything.  Placement is read from ``Instr.block``, so the check keeps
    a set of one block's instructions at a time, not of the function's.
    """
    settled = True
    walked: set[Block] = set()
    for block in func.blocks:
        drop = False
        earlier: set[Instr] = set()
        for instr in block.instrs:
            if instr in replacements:
                drop = True
                continue
            if isinstance(instr, Phi):
                resolve_operands(instr, replacements)
            elif resolve_operands(instr, replacements):
                settled = False
            elif settled:
                for op in instr.ops:
                    if isinstance(op, Instr) and op not in earlier \
                            and op.block not in walked:
                        settled = False
                        break
            if settled:
                earlier.add(instr)
        walked.add(block)
        if drop:
            block.instrs = [i for i in block.instrs
                            if i not in replacements]
    # In-place rewrites (reassociation, sub->add) change operands and
    # opcodes without going through the replacement sweep, so the
    # version-keyed caches must be told explicitly.
    func.invalidate()
    return settled
