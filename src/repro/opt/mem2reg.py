"""Promotion of allocas to SSA registers (mem2reg).

This is the pass that gives stack symbolization its payoff: once WYTIWYG
has replaced emulated-stack traffic with distinct allocas, mem2reg turns
scalar locals into SSA values and the rest of the pipeline can finally
reason about them.  Against the opaque emulated-stack byte array the pass
can do nothing — exactly the contrast the paper evaluates.
"""

from __future__ import annotations

from ..ir.module import Block, Function
from ..ir.values import Alloca, Const, Instr, Load, Phi, Store, Unary, Value
from .analysis import CFG_ANALYSES, dominators
from .simplifycfg import remove_unreachable

#: Promotion rewrites loads/stores into phis and SSA uses but never adds,
#: removes, or retargets a block itself, so cached CFG analyses survive a
#: change.  The entry ``remove_unreachable`` call is the one exception;
#: it changes the block count, which voids retention automatically (see
#: :func:`repro.opt.analysis.retain_analyses`).
PRESERVES = CFG_ANALYSES


def promotable_allocas(func: Function) -> list[Alloca]:
    """Allocas in the entry block whose address never escapes.

    Every use must be a load from, or a store of an unrelated value to,
    the alloca's exact address, and access sizes must allow a single SSA
    value to carry the content (all loads no wider than every store).
    """
    return _scan(func)[0]


def _scan(func: Function):
    """One pass over ``func`` for :func:`promote_allocas`.

    Returns the promotable allocas in entry-block order, each block's
    loads and stores of an entry-block alloca in order, and the
    instructions that read the value of such a load.
    """
    #: alloca -> [widest load, narrowest store]
    sizes: dict[Alloca, list[int]] = {
        instr: [0, 4] for instr in func.entry.instrs
        if isinstance(instr, Alloca)}
    accesses: dict[Block, list[Instr]] = {}
    readers: list[Instr] = []
    if not sizes:
        return [], accesses, readers
    escaped: set[Alloca] = set()
    for block in func.blocks:
        touched: list[Instr] = []
        for instr in block.instrs:
            reads = False
            for op in instr.ops:
                if isinstance(op, Load):
                    if not reads:
                        addr = op.ops[0]
                        reads = isinstance(addr, Alloca) and addr in sizes
                elif isinstance(op, Alloca) and op in sizes:
                    if isinstance(instr, Load):
                        size = sizes[op]
                        size[0] = max(size[0], instr.size)
                        touched.append(instr)
                    elif isinstance(instr, Store) and instr.ops[0] is op \
                            and instr.ops[1] is not op:
                        size = sizes[op]
                        size[1] = min(size[1], instr.size)
                        touched.append(instr)
                    else:
                        escaped.add(op)
            if reads:
                readers.append(instr)
        if touched:
            accesses[block] = touched
    promotable = [alloca for alloca, (widest, narrowest) in sizes.items()
                  if alloca not in escaped and widest <= narrowest]
    return promotable, accesses, readers


_EXT_FOR_SIZE = {1: "zext8", 2: "zext16"}


def promote_allocas(func: Function) -> bool:
    """Run mem2reg on all promotable allocas. Returns True if changed.

    One scan (:func:`_scan`) finds the allocas and their loads and
    stores, and the instructions that read such a load.  Phi placement,
    renaming and the rewrite then touch only those instructions, the
    placed phis and the blocks that lose instructions, so the pass does
    work in proportion to the memory traffic it removes.
    """
    changed = remove_unreachable(func)
    allocas, accesses, readers = _scan(func)
    if not allocas:
        return changed
    promoted = set(allocas)
    doms = dominators(func)

    # Phi placement at iterated dominance frontiers of defining blocks.
    # A block's placed phis are listed in alloca order and end up at
    # its top in reverse order.
    def_blocks: dict[Alloca, set[Block]] = {a: set() for a in allocas}
    for block, touched in accesses.items():
        for instr in touched:
            if isinstance(instr, Store) and instr.ops[0] in promoted:
                def_blocks[instr.ops[0]].add(block)
    phis_at: dict[Block, list[tuple[Alloca, Phi]]] = {}
    for alloca in allocas:
        pending = list(def_blocks[alloca])
        placed: set[Block] = set()
        while pending:
            block = pending.pop()
            for frontier in doms.frontiers.get(block, ()):
                if frontier in placed:
                    continue
                placed.add(frontier)
                phi = Phi([])
                phi.block = frontier
                phis_at.setdefault(frontier, []).append((alloca, phi))
                pending.append(frontier)

    # Renaming, as an iterative dominator-tree preorder walk (lifted -O0
    # functions can have very deep dominator trees; recursion would
    # overflow).  ``edits`` maps each promoted instruction to what
    # replaces it in its block: None, or a narrow load's extension.
    replacements: dict[Instr, Value] = {}
    edits: dict[Instr, Instr | None] = dict.fromkeys(allocas)
    work: list[tuple[Block, dict[Alloca, Value]]] = [(func.entry, {})]
    while work:
        block, state = work.pop()
        for alloca, phi in phis_at.get(block, ()):
            state[alloca] = phi
        for instr in accesses.get(block, ()):
            alloca = instr.ops[0]
            if alloca not in promoted:
                continue
            if isinstance(instr, Store):
                state[alloca] = instr.ops[1]
                edits[instr] = None
                continue
            current = state.get(alloca)
            if current is None:     # read before any store
                current = Const(0)
            if instr.size < 4:
                ext = Unary(_EXT_FOR_SIZE[instr.size], current)
                ext.block = block
                replacements[instr] = edits[instr] = ext
            else:
                replacements[instr] = current
                edits[instr] = None
        # Feed successor phis (each executed predecessor contributes one
        # incoming; duplicate edges contribute duplicates consistently).
        for succ in block.successors():
            for alloca, phi in phis_at.get(succ, ()):
                value = state.get(alloca)
                phi.add_incoming(block, Const(0) if value is None else value)
        # Each child starts from this block's state; the last one pushed
        # (the first visited) takes it over instead of a copy.
        children = doms.tree_children(block)
        if children:
            work.extend((child, dict(state)) for child in children[:-1])
            work.append((children[-1], state))

    # Resolve replacement chains in the instructions that read a
    # promoted load, the extensions and the placed phis, then drop the
    # promoted loads, stores and allocas.
    def resolve(v: Value) -> Value:
        while isinstance(v, Instr) and v in replacements:
            v = replacements[v]
        return v

    for instr in readers:
        if instr not in edits:
            instr.ops = [resolve(op) for op in instr.ops]
    for new in edits.values():
        if new is not None:
            new.ops = [resolve(new.ops[0])]
    for placed_phis in phis_at.values():
        for _alloca, phi in placed_phis:
            phi.ops = [resolve(op) for op in phi.ops]

    for block in {func.entry, *accesses, *phis_at}:
        placed = [phi for _alloca, phi in reversed(phis_at.get(block, ()))]
        # Each instruction, or what replaces it (None: nothing).
        kept = map(edits.get, block.instrs, block.instrs)
        block.instrs = placed + [new for new in kept if new is not None]
    func.invalidate()
    return True
