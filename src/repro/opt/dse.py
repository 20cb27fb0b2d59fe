"""Dead store elimination.

Two flavours:

* block-local: a store overwritten by a later store to the same location
  with no intervening reader dies;
* whole-function: stores into never-read, non-escaping allocas die (this
  is what deletes the dead spill slots that symbolization exposes).
"""

from __future__ import annotations

from ..ir.module import Function, Module
from ..ir.values import (
    Alloca,
    Call,
    CallExt,
    CallInd,
    Instr,
    Intrinsic,
    Load,
    Store,
)
from .alias import AliasAnalysis, alias_analysis
from .analysis import CFG_ANALYSES

#: Dead-store removal deletes stores only; control flow is untouched.
PRESERVES = CFG_ANALYSES


def eliminate_dead_stores(func: Function,
                          module: Module | None = None) -> bool:
    aa = alias_analysis(func, module)
    dead: set[Instr] = set()

    # Block-local overwrite detection.
    for block in func.blocks:
        pending: list[Store] = []
        for instr in block.instrs:
            if isinstance(instr, Store):
                for prior in list(pending):
                    if _must_cover(aa, instr, prior):
                        dead.add(prior)
                        pending.remove(prior)
                pending.append(instr)
            elif isinstance(instr, Load):
                pending = [st for st in pending
                           if not aa.may_alias(st.addr, st.size,
                                               instr.addr, instr.size)]
            elif isinstance(instr, (Call, CallInd, CallExt, Intrinsic)):
                # Calls may read anything that escapes; probes may read the
                # traced values too, so be conservative around them.
                pending = [st for st in pending
                           if not aa.clobbered_by_call(st.addr)]

    # Whole-function: stores into never-loaded, non-escaping allocas.
    loads = [i for i in func.instructions() if isinstance(i, Load)]
    entry_allocas = [i for i in func.entry.instrs if isinstance(i, Alloca)]
    for alloca in entry_allocas:
        if alloca in aa.escaped:
            continue
        read = any(aa.may_alias(ld.addr, ld.size, alloca, alloca.size)
                   for ld in loads)
        if read:
            continue
        for instr in func.instructions():
            if isinstance(instr, Store):
                fact = aa.fact_for(instr.addr)
                if fact[0] == "alloca" and fact[1] is alloca:
                    dead.add(instr)

    if not dead:
        return False
    for block in func.blocks:
        block.instrs = [i for i in block.instrs if i not in dead]
    func.invalidate()
    return True


def _must_cover(aa: AliasAnalysis, later: Store, earlier: Store) -> bool:
    """Does ``later`` fully overwrite ``earlier``'s bytes?"""
    fa = aa.fact_for(later.addr)
    fb = aa.fact_for(earlier.addr)
    if fa[0] not in ("alloca", "global", "const") or fa[0] != fb[0] \
            or fa[1] != fb[1] or fa[2] is None or fb[2] is None:
        return later.addr is earlier.addr and later.size >= earlier.size
    return fa[2] <= fb[2] and fa[2] + later.size >= fb[2] + earlier.size
