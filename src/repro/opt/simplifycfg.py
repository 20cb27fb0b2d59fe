"""Control-flow graph simplification.

Removes unreachable blocks, folds constant branches, merges straight-line
block chains and forwards empty blocks — the canonicalizations that keep
the rest of the pipeline (and the lowerer) working on small CFGs.
"""

from __future__ import annotations

from ..ir.module import Function
from ..ir.values import Br, CondBr, Const, Phi, Switch, Value
from .analysis import predecessors, reachable
from .constfold import resolve

#: Preserved-analyses declaration for the pass manager: CFG
#: simplification exists to mutate control flow, so a change invalidates
#: every cached CFG analysis.
PRESERVES: frozenset = frozenset()


def remove_unreachable(func: Function) -> bool:
    live = set(reachable(func))
    dead = [b for b in func.blocks if b not in live]
    if not dead:
        return False
    for block in live:
        for phi in block.phis():
            for d in dead:
                if d in phi.blocks:
                    phi.remove_incoming(d)
    func.blocks = [b for b in func.blocks if b in live]
    func.invalidate()
    return True


def _fold_constant_branches(func: Function, subst: dict) -> bool:
    """Fold branches and switches on constants (read through
    ``subst``) into plain ``br``s."""
    changed = False
    for block in func.blocks:
        term = block.terminator
        cond = resolve(term.ops[0], subst) \
            if isinstance(term, (CondBr, Switch)) else None
        if isinstance(term, CondBr) and isinstance(cond, Const):
            taken = term.if_true if cond.value else term.if_false
            dropped = term.if_false if cond.value else term.if_true
            block.instrs[-1] = Br(taken)
            block.instrs[-1].block = block
            if dropped is not taken:
                for phi in dropped.phis():
                    if block in phi.blocks:
                        phi.remove_incoming(block)
            changed = True
        elif isinstance(term, CondBr) and term.if_true is term.if_false:
            block.instrs[-1] = Br(term.if_true)
            block.instrs[-1].block = block
            changed = True
        elif isinstance(term, Switch) and isinstance(cond, Const):
            target = term.default
            for case, dest in term.cases:
                if (case & 0xFFFFFFFF) == cond.value:
                    target = dest
                    break
            for succ in term.successors():
                if succ is not target:
                    for phi in succ.phis():
                        if block in phi.blocks:
                            phi.remove_incoming(block)
            block.instrs[-1] = Br(target)
            block.instrs[-1].block = block
            changed = True
    if changed:
        func.invalidate()
    return changed


def _merge_block_chains(func: Function, subst: dict) -> bool:
    """Merge B into A when A ends ``br B`` and B has A as sole pred.

    One pass over the block list: a block that absorbed its successor
    is checked again before the pass moves on, which makes the merges,
    in their order, of restarting from the first block after each one.
    The predecessor map is updated in place; the phis of an absorbed
    block go into ``subst``."""
    preds = predecessors(func)
    blocks = func.blocks
    changed = False
    i = 0
    while i < len(blocks):
        block = blocks[i]
        succ = _sole_successor(func, block, preds)
        if succ is None:
            i += 1
            continue
        if not changed:
            # The cached map is shared; edit a copy.
            preds = {b: list(ps) for b, ps in preds.items()}
            changed = True
        phis = succ.phis()
        for phi in phis:
            value = resolve(phi.value_for(block), subst)
            if value is not phi:
                subst[phi] = value
        block.instrs.pop()  # drop the br
        for instr in succ.instrs[len(phis):]:
            instr.block = block
            block.instrs.append(instr)
        # Successor phis naming `succ` as incoming now come from `block`.
        for nxt in block.successors():
            preds[nxt] = [block if b is succ else b for b in preds[nxt]]
            for phi in nxt.phis():
                phi.blocks = [block if b is succ else b
                              for b in phi.blocks]
        del preds[succ]
        j = blocks.index(succ)
        del blocks[j]
        if j < i:
            i -= 1
    if changed:
        func.invalidate()
    return changed


def _sole_successor(func: Function, block, preds):
    """The block ``block`` may absorb: the target of its ``br`` when
    ``block`` is that target's only predecessor."""
    if not block.is_terminated:
        return None
    term = block.terminator
    if not isinstance(term, Br):
        return None
    succ = term.target
    if succ is block or succ is func.entry or len(preds[succ]) != 1:
        return None
    return succ


def forward_empty_blocks(func: Function) -> bool:
    """Retarget branches through blocks that only contain ``br X``."""
    changed = False
    for block in list(func.blocks):
        if block is func.entry or len(block.instrs) != 1:
            continue
        term = block.instrs[0]
        if not isinstance(term, Br):
            continue
        target = term.target
        if target is block or target.phis():
            # Forwarding into a phi-block would need incoming rewrites that
            # can conflict; leave those to _merge_block_chains.
            continue
        preds = predecessors(func)[block]
        if not preds:
            continue
        for pred in preds:
            pterm = pred.terminator
            if isinstance(pterm, Br) and pterm.target is block:
                pterm.target = target
            elif isinstance(pterm, CondBr):
                if pterm.if_true is block:
                    pterm.if_true = target
                if pterm.if_false is block:
                    pterm.if_false = target
            elif isinstance(pterm, Switch):
                pterm.cases = [(v, target if b is block else b)
                               for v, b in pterm.cases]
                if pterm.default is block:
                    pterm.default = target
            changed = True
        # Terminators were retargeted in place (same instruction count);
        # the cached predecessor map read above is now stale.
        func.invalidate()
    if changed:
        remove_unreachable(func)
    return changed


def _simplify_single_incoming_phis(func: Function, subst: dict) -> bool:
    """Move the phis whose incoming values (read through ``subst``) are
    all one value into ``subst``."""
    changed = False
    for block in func.blocks:
        for phi in list(block.phis()):
            distinct = set()
            for v in phi.ops:
                v = resolve(v, subst)
                if v is not phi:
                    distinct.add(v)
            if len(distinct) == 1:
                subst[phi] = distinct.pop()
                block.instrs.remove(phi)
                changed = True
    if changed:
        func.invalidate()
    return changed


def _substitute(func: Function, subst: dict) -> None:
    """Replace every use of the phis in ``subst`` (chains resolved) in one
    walk over the function."""
    if not subst:
        return
    final = {phi: resolve(v, subst) for phi, v in subst.items()}
    for instr in func.instructions():
        for op in instr.ops:
            if isinstance(op, Phi) and op in final:
                instr.rewrite_operands(final)
                break
    func.invalidate()


def simplify_cfg(func: Function) -> bool:
    """Run all CFG simplifications to a fixed point.

    The phis that chain merging and single-value phi folding remove are
    collected in one substitution, which every step reads through and
    which is applied in one walk at the end."""
    changed = False
    subst: dict[Phi, Value] = {}
    while True:
        round_changed = False
        round_changed |= remove_unreachable(func)
        round_changed |= _fold_constant_branches(func, subst)
        round_changed |= remove_unreachable(func)
        round_changed |= _merge_block_chains(func, subst)
        round_changed |= forward_empty_blocks(func)
        round_changed |= _simplify_single_incoming_phis(func, subst)
        if not round_changed:
            _substitute(func, subst)
            return changed
        changed = True
