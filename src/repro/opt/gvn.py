"""Value numbering and redundant-load elimination.

``global_value_numbering`` is a dominator-scoped CSE over pure ops.
``eliminate_redundant_loads`` is block-local store-to-load forwarding and
load CSE driven by :class:`~repro.opt.alias.AliasAnalysis` — the pass
whose effectiveness flips when the emulated stack is replaced by allocas.
"""

from __future__ import annotations

from ..ir.module import Block, Function, Module
from ..ir.values import (
    BinOp,
    Call,
    CallExt,
    CallInd,
    Const,
    FuncRef,
    GlobalRef,
    ICmp,
    Instr,
    Load,
    Param,
    Store,
    Unary,
    Value,
)
from .alias import AliasAnalysis, alias_analysis
from .analysis import CFG_ANALYSES, dominators
from .constfold import resolve_operands
from .simplifycfg import remove_unreachable

#: Both passes here delete or substitute pure instructions and loads;
#: neither adds, removes, or retargets blocks (GVN's entry
#: ``remove_unreachable`` changes the block count when it fires, which
#: voids retention on its own), so cached CFG analyses survive.
PRESERVES = CFG_ANALYSES

_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor"})


def _operand_key(v: Value, numbering: dict[Instr, int]):
    if isinstance(v, Const):
        return ("c", v.value)
    if isinstance(v, GlobalRef):
        return ("g", v.name)
    if isinstance(v, FuncRef):
        return ("f", v.name)
    if isinstance(v, Param):
        return ("p", v.index)
    if isinstance(v, Instr):
        return ("i", numbering.get(v, id(v)))
    return ("?", id(v))


def _value_key(instr: Instr, numbering: dict[Instr, int]):
    if isinstance(instr, BinOp):
        a = _operand_key(instr.lhs, numbering)
        b = _operand_key(instr.rhs, numbering)
        if instr.opcode in _COMMUTATIVE and b < a:
            a, b = b, a
        return ("bin", instr.opcode, a, b)
    if isinstance(instr, ICmp):
        return ("icmp", instr.pred,
                _operand_key(instr.lhs, numbering),
                _operand_key(instr.rhs, numbering))
    if isinstance(instr, Unary):
        return ("un", instr.opcode, _operand_key(instr.src, numbering))
    return None


def global_value_numbering(func: Function) -> bool:
    """Dominator-scoped CSE of pure arithmetic. Returns True if changed."""
    pruned = remove_unreachable(func)
    doms = dominators(func)
    numbering: dict[Instr, int] = {}
    next_number = [0]
    replacements: dict[Instr, Instr] = {}

    def visit(block: Block, scope: dict) -> None:
        for instr in list(block.instrs):
            key = _value_key(instr, numbering)
            if key is None:
                continue
            existing = scope.get(key)
            if existing is not None:
                replacements[instr] = existing
                numbering[instr] = numbering[existing]
            else:
                numbering[instr] = next_number[0]
                next_number[0] += 1
                scope[key] = instr

    work: list[tuple[Block, dict]] = [(func.entry, {})]
    while work:
        block, scope = work.pop()
        visit(block, scope)
        for child in doms.tree_children(block):
            work.append((child, dict(scope)))

    if not replacements:
        return pruned

    for block in func.blocks:
        block.instrs = [i for i in block.instrs if i not in replacements]
        for instr in block.instrs:
            resolve_operands(instr, replacements)
    func.invalidate()
    return True


_EXT_FOR_SIZE = {1: "zext8", 2: "zext16"}


def eliminate_redundant_loads(func: Function,
                              module: Module | None = None) -> bool:
    """Block-local store-to-load forwarding and load CSE."""
    aa = alias_analysis(func, module)
    replacements: dict[Instr, Value] = {}
    inserted: list[tuple[Block, int, Instr]] = []

    for block in func.blocks:
        # available: list of (addr_value, size, value, from_store)
        available: list[tuple[Value, int, Value, bool]] = []
        for idx, instr in enumerate(block.instrs):
            if isinstance(instr, Load):
                hit = None
                for addr, size, value, from_store in available:
                    if size != instr.size:
                        continue
                    if addr is instr.addr or _must_same(aa, addr,
                                                        instr.addr):
                        hit = (value, from_store)
                        break
                if hit is not None:
                    value, from_store = hit
                    if from_store and instr.size < 4:
                        ext = Unary(_EXT_FOR_SIZE[instr.size], value)
                        ext.block = block
                        inserted.append((block, idx, ext))
                        replacements[instr] = ext
                    else:
                        replacements[instr] = value
                else:
                    available.append((instr.addr, instr.size, instr, False))
            elif isinstance(instr, Store):
                available = [
                    entry for entry in available
                    if not aa.may_alias(entry[0], entry[1],
                                        instr.addr, instr.size)
                ]
                available.append((instr.addr, instr.size, instr.value,
                                  True))
            elif isinstance(instr, (Call, CallInd, CallExt)):
                available = [
                    entry for entry in available
                    if not aa.clobbered_by_call(entry[0])
                ]

    if not replacements and not inserted:
        return False

    # Substitute loads that became Unary ext instructions in place; the
    # others simply disappear.
    for block, idx, ext in sorted(inserted, key=lambda t: -t[1]):
        old = block.instrs[idx]
        block.instrs[idx] = ext

    kept_exts = {ext for _b, _i, ext in inserted}
    for block in func.blocks:
        block.instrs = [i for i in block.instrs
                        if i not in replacements or i in kept_exts]
        for instr in block.instrs:
            resolve_operands(instr, replacements)
    func.invalidate()
    return True


def _must_same(aa: AliasAnalysis, a: Value, b: Value) -> bool:
    fa = aa.fact_for(a)
    fb = aa.fact_for(b)
    if fa[0] in ("alloca", "global", "const") and fa == fb \
            and fa[2] is not None:
        return True
    return False
