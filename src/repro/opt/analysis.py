"""Analyses shared by optimizer passes: reachability, dominators,
dominance frontiers, and use counting, plus the versioned cache that
also holds instruction-reading analyses such as alias analysis.

Analyses are cached per mutation epoch: :func:`dominators`,
:func:`predecessors`, and :func:`reachable` return a shared result until
the function's :attr:`~repro.ir.module.Function.version` counter (or its
block/instruction count, a safety net for passes that splice lists
without bumping it) changes.  The contract for pass authors: *every*
mutation of a function's blocks, instruction lists, or terminators must
be followed by ``func.invalidate()`` before another pass (or a later
fixed-point round) consults these accessors — the builder API
(:meth:`Block.append` / :meth:`Block.insert`) bumps the version
automatically, direct splices do not.  Callers must treat the returned
objects as immutable.  Each function holds its own entry
(:attr:`~repro.ir.module.Function.analyses`), so its analyses are freed
with it.  Tests that need an uncached reference set the module's
``_CACHE_ENABLED`` to False, so every call recomputes.

Invalidation is *selective* when the mutation's author can vouch for
what it left intact: a pass that only rewrites non-terminator
instructions declares ``PRESERVES = CFG_ANALYSES`` and the pass manager
calls :func:`retain_analyses` after it, migrating the cached CFG
results to the new epoch instead of recomputing them
(``analysis.cache.retained`` counts the saves).

Not every cached analysis is a CFG analysis.  The alias analysis that
load elimination and dead-store elimination share
(:func:`repro.opt.alias.alias_analysis`) and the static corroboration's
per-function results read every instruction, so they hold only while
no instruction of the function changes: every mutation, an in-place
operand rewrite included, must bump the epoch before one of them is
read again, and no pass may declare one preserved (only
:data:`CFG_ANALYSES` may appear in a ``PRESERVES``).  Under that rule
DSE reuses the alias analysis that load elimination built exactly when
load elimination reported no change.
"""

from __future__ import annotations

from .. import obs
from ..ir.module import Block, Function
from ..ir.values import Instr, Value

_CACHE_ENABLED = True

#: The CFG analyses this module caches.  They depend only on the block
#: list and terminator targets, never on non-terminator instructions —
#: which is what makes the selective invalidation of
#: :func:`retain_analyses` sound for passes that rewrite instructions
#: without touching control flow.  The only names a pass may declare
#: preserved.
CFG_ANALYSES = frozenset({"dominators", "predecessors", "reachable",
                          "loop_headers"})


def _epoch(func: Function) -> tuple[int, int, int]:
    return (func.version, len(func.blocks),
            sum(len(b.instrs) for b in func.blocks))


def current_epoch(func: Function) -> tuple[int, int, int]:
    """The function's cache epoch.  The pass manager snapshots this
    before running a pass so :func:`retain_analyses` can migrate
    preserved results across the pass's mutations."""
    return _epoch(func)


def retain_analyses(func: Function, names: frozenset,
                    prior_epoch: tuple[int, int, int]) -> bool:
    """Selective invalidation: carry the named analyses across a
    mutation instead of discarding the whole cache entry.

    Called by the pass manager after a pass that *declared* it preserves
    ``names`` reported a change: the results cached at ``prior_epoch``
    (snapshotted via :func:`current_epoch` before the pass ran) are
    re-keyed to the function's new epoch, so the next consumer hits
    instead of recomputing.  The declaration is the contract — a pass
    that claims to preserve an analysis it invalidates will be served
    stale results — but since every declarable analysis is a CFG
    analysis (:data:`CFG_ANALYSES`), a block-count change is proof the
    claim is wrong for this run and nothing is retained (the safety net
    that makes ``remove_unreachable`` calls inside mem2reg/GVN
    harmless).  Analyses that read instructions are never declared, so
    they never survive a change.

    Returns True when at least one analysis survived the migration.
    """
    if not _CACHE_ENABLED or not names:
        return False
    entry = func.analyses
    if entry is None or entry[0] != prior_epoch:
        return False
    epoch = _epoch(func)
    if epoch == prior_epoch:
        return False           # no mutation actually landed
    if epoch[1] != prior_epoch[1]:
        return False           # block count changed: CFG claims void
    kept = {name: result for name, result in entry[1].items()
            if name in names}
    func.analyses = (epoch, kept)
    if not kept:
        return False
    obs.count("analysis.cache.retained", len(kept))
    return True


def cached_analysis(func: Function, name, build):
    """``build(func)``, memoized under the hashable key ``name`` until
    the function's epoch changes."""
    if not _CACHE_ENABLED:
        return build(func)
    epoch = _epoch(func)
    entry = func.analyses
    if entry is None or entry[0] != epoch:
        entry = func.analyses = (epoch, {})
    slot = entry[1]
    if name in slot:
        obs.count("analysis.cache.hits")
        return slot[name]
    obs.count("analysis.cache.misses")
    result = slot[name] = build(func)
    return result


def dominators(func: Function) -> "Dominators":
    """Cached :class:`Dominators` for the current mutation epoch."""
    return cached_analysis(func, "dominators", Dominators)


def predecessors(func: Function) -> dict[Block, list[Block]]:
    """Cached predecessor map (do not mutate the result)."""
    return cached_analysis(func, "predecessors",
                           lambda f: f.predecessors())


def reachable(func: Function) -> list[Block]:
    """Cached entry-reachable block list (do not mutate the result)."""
    return cached_analysis(func, "reachable", reachable_blocks)


def loop_headers(func: Function) -> frozenset[Block]:
    """Cached natural-loop headers: blocks with an incoming back edge
    (an edge from a block they dominate).  The static stack-offset
    interpreter widens phi joins exactly at these blocks."""
    return cached_analysis(func, "loop_headers", _loop_headers)


def _loop_headers(func: Function) -> frozenset[Block]:
    doms = dominators(func)
    preds = predecessors(func)
    in_cfg = set(doms.rpo)
    headers = set()
    for block in doms.rpo:
        for pred in preds[block]:
            if pred in in_cfg and doms.dominates(block, pred):
                headers.add(block)
                break
    return frozenset(headers)


def reachable_blocks(func: Function) -> list[Block]:
    """Blocks reachable from entry, in depth-first discovery order."""
    seen: set[Block] = set()
    order: list[Block] = []
    stack = [func.entry]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        order.append(block)
        if block.is_terminated:
            stack.extend(reversed(block.successors()))
    return order


def postorder(func: Function) -> list[Block]:
    seen: set[Block] = set()
    order: list[Block] = []

    def visit(block: Block) -> None:
        seen.add(block)
        for succ in block.successors():
            if succ not in seen:
                visit(succ)
        order.append(block)

    visit(func.entry)
    return order


class Dominators:
    """Immediate dominators and dominance frontiers.

    Cooper-Harvey-Kennedy iterative algorithm over reverse postorder.
    Only reachable blocks participate; passes should prune unreachable
    blocks first (see :func:`repro.opt.simplifycfg.remove_unreachable`).
    """

    def __init__(self, func: Function):
        self.func = func
        rpo = list(reversed(postorder(func)))
        self.rpo = rpo
        index = {b: i for i, b in enumerate(rpo)}
        preds = func.predecessors()
        idom: dict[Block, Block] = {func.entry: func.entry}

        def intersect(a: Block, b: Block) -> Block:
            while a is not b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for block in rpo[1:]:
                candidates = [p for p in preds[block]
                              if p in idom and p in index]
                if not candidates:
                    continue
                new = candidates[0]
                for p in candidates[1:]:
                    new = intersect(new, p)
                if idom.get(block) is not new:
                    idom[block] = new
                    changed = True
        self.idom = idom

        self.frontiers: dict[Block, set[Block]] = {b: set() for b in rpo}
        for block in rpo:
            block_preds = [p for p in preds[block] if p in index]
            if len(block_preds) >= 2:
                for p in block_preds:
                    runner = p
                    while runner is not idom[block]:
                        self.frontiers[runner].add(block)
                        runner = self.idom[runner]

        self._children: dict[Block, list[Block]] = {b: [] for b in rpo}
        for block in rpo:
            if block is not func.entry:
                self._children[self.idom[block]].append(block)

    def dominates(self, a: Block, b: Block) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        runner = b
        while True:
            if runner is a:
                return True
            parent = self.idom.get(runner)
            if parent is None or parent is runner:
                return runner is a
            runner = parent

    def tree_children(self, block: Block) -> list[Block]:
        return self._children.get(block, [])

    def tree_preorder(self) -> list[Block]:
        order: list[Block] = []
        stack = [self.func.entry]
        while stack:
            block = stack.pop()
            order.append(block)
            stack.extend(reversed(self.tree_children(block)))
        return order


def use_counts(func: Function) -> dict[Value, int]:
    counts: dict[Value, int] = {}
    for instr in func.instructions():
        for op in instr.operands():
            if isinstance(op, Instr):
                counts[op] = counts.get(op, 0) + 1
    return counts


def users_of(func: Function) -> dict[Instr, list[Instr]]:
    users: dict[Instr, list[Instr]] = {}
    for instr in func.instructions():
        for op in instr.operands():
            if isinstance(op, Instr):
                users.setdefault(op, []).append(instr)
    return users
