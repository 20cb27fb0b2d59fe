"""Dead argument / dead result elimination (LLVM's DAE analogue).

After symbolization, lifted functions often still declare results for
scratch registers no caller reads, and accept arguments no path uses.
This module-level pass shrinks those signatures, which is what finally
turns lifted call sites back into cheap native calls.

Functions whose address escapes (entry function, indirect-call targets,
address-taken) are left untouched.
"""

from __future__ import annotations

from ..ir.module import Function, Module
from ..ir.values import Call, CallInd, FuncRef, Instr, Param, \
    Result, Ret
from .analysis import CFG_ANALYSES
from .dce import eliminate_dead_code

#: Signature shrinking rewrites rets, calls, and params in place and
#: sweeps dead pure instructions; the CFG shape of every function is
#: untouched.
PRESERVES = CFG_ANALYSES


def _protected_functions(module: Module) -> set[str]:
    protected = {module.entry_name}
    has_indirect_calls = any(
        isinstance(instr, CallInd)
        for func in module.functions.values()
        for instr in func.instructions())
    if has_indirect_calls:
        # The address table may route any indirect call to these.
        protected.update(module.address_table.values())
    for func in module.functions.values():
        for instr in func.instructions():
            for pos, op in enumerate(instr.ops):
                if isinstance(op, FuncRef):
                    if not (isinstance(instr, Call) and pos == 0):
                        protected.add(op.name)
    for g in module.globals.values():
        if isinstance(g.init, list):
            for word in g.init:
                if isinstance(word, FuncRef):
                    protected.add(word.name)
    return protected


def _callers_of(module: Module) -> dict[str, list[Call]]:
    calls: dict[str, list[Call]] = {name: []
                                    for name in module.functions}
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, Call):
                calls.setdefault(instr.callee.name, []).append(instr)
    return calls


def eliminate_dead_params(module: Module) -> bool:
    protected = _protected_functions(module)
    callers = _callers_of(module)
    changed = False
    for name, func in module.functions.items():
        if name in protected or not func.params:
            continue
        used: set[Param] = set()
        for instr in func.instructions():
            for op in instr.operands():
                if isinstance(op, Param):
                    used.add(op)
        dead = [i for i, p in enumerate(func.params) if p not in used]
        if not dead:
            continue
        dead_set = set(dead)
        func.params = [p for i, p in enumerate(func.params)
                       if i not in dead_set]
        for i, p in enumerate(func.params):
            p.index = i
        func.invalidate()
        for call in callers.get(name, []):
            args = call.ops[1:]
            call.ops = [call.ops[0]] + [
                a for i, a in enumerate(args) if i not in dead_set]
            if call.block is not None and call.block.function is not None:
                call.block.function.invalidate()
        changed = True
    return changed


def _live_results(module: Module,
                  protected: set[str]) -> dict[str, set[int]]:
    """Interprocedural result liveness.

    A result index is live if some caller really uses it — where a use
    that merely forwards the value as the caller's own return operand
    counts only if *that* result index is itself live (recursive
    register-clobber chains in lifted code die together).
    """
    live: dict[str, set[int]] = {
        name: set(range(func.nresults))
        for name, func in module.functions.items() if name in protected}
    # (callee, index) -> set of (caller, caller_ret_index) forwards
    forwards: dict[tuple[str, int], set[tuple[str, int]]] = {}

    def trace_sinks(value: Instr, caller: Function,
                    users: dict) -> list[tuple[str, int]] | None:
        """Where does ``value`` flow?  Returns the set of caller return
        positions it reaches (following phi chains), or None if it has
        any real (non-forwarding) use."""
        sinks: list[tuple[str, int]] = []
        seen: set[Instr] = set()
        stack: list[Instr] = [value]
        while stack:
            v = stack.pop()
            for user in users.get(v, []):
                from ..ir.values import Phi
                if isinstance(user, Ret):
                    sinks.extend((caller.name, j)
                                 for j, op in enumerate(user.ops)
                                 if op is v)
                elif isinstance(user, Phi):
                    if user not in seen:
                        seen.add(user)
                        stack.append(user)
                else:
                    return None
        return sinks

    def note_value(callee: str, index: int, value: Instr,
                   caller: Function, users: dict) -> None:
        sinks = trace_sinks(value, caller, users)
        if sinks is None:
            live.setdefault(callee, set()).add(index)
        else:
            forwards.setdefault((callee, index), set()).update(sinks)

    for func in module.functions.values():
        users: dict[Instr, list[Instr]] = {}
        for instr in func.instructions():
            for op in instr.operands():
                if isinstance(op, Instr):
                    users.setdefault(op, []).append(instr)
        for instr in func.instructions():
            if isinstance(instr, Call):
                callee = instr.callee.name
                if callee not in module.functions:
                    continue
                if instr.nresults == 1:
                    note_value(callee, 0, instr, func, users)
                else:
                    for result in users.get(instr, []):
                        if isinstance(result, Result):
                            note_value(callee, result.index, result,
                                       func, users)
            elif isinstance(instr, CallInd):
                # Unknown callees: every possible target's results live.
                for name in module.address_table.values():
                    f = module.functions.get(name)
                    if f is not None:
                        live.setdefault(name, set()).update(
                            range(f.nresults))

    changed = True
    while changed:
        changed = False
        for (callee, index), origins in forwards.items():
            if index in live.get(callee, set()):
                continue
            if any(j in live.get(caller, set())
                   for caller, j in origins):
                live.setdefault(callee, set()).add(index)
                changed = True
    return live


def eliminate_dead_results(module: Module) -> bool:
    protected = _protected_functions(module)
    callers = _callers_of(module)
    liveness = _live_results(module, protected)

    plans: dict[str, list[int]] = {}
    for name, func in module.functions.items():
        if name in protected or func.nresults == 0:
            continue
        keep = sorted(i for i in liveness.get(name, set())
                      if i < func.nresults)
        if len(keep) < func.nresults:
            plans[name] = keep
    if not plans:
        return False

    # Phase A: shrink every planned function's returns first, so dead
    # Result values lose their last (forwarding) uses.
    for name, keep in plans.items():
        func = module.functions[name]
        for block in func.blocks:
            for instr in block.instrs:
                if isinstance(instr, Ret):
                    instr.ops = [instr.ops[i] for i in keep]
        func.nresults = len(keep)
        func.invalidate()

    # Dead results may feed phi chains that forwarded them to the (now
    # shrunk) returns; sweep those before renumbering.
    for func in module.functions.values():
        eliminate_dead_code(func)

    # Phase B: fix up call sites: renumber surviving Results, delete dead
    # ones, fold single-result extractions into the call value.
    for name, keep in plans.items():
        remap = {old: new for new, old in enumerate(keep)}
        for call in callers.get(name, []):
            caller = call.block.function if call.block else None
            call.nresults = len(keep)
            if caller is None:
                continue
            stale: list[Result] = []
            for instr in list(caller.instructions()):
                if isinstance(instr, Result) and instr.call is call:
                    if instr.index in remap:
                        instr.index = remap[instr.index]
                        if len(keep) == 1:
                            stale.append(instr)  # fold into call value
                    else:
                        stale.append(instr)
            if stale:
                for block in caller.blocks:
                    block.instrs = [i for i in block.instrs
                                    if i not in stale]
                    if len(keep) == 1:
                        for instr in block.instrs:
                            for s in stale:
                                instr.replace_operand(s, call)
            # Results were renumbered in place even when none went stale.
            caller.invalidate()
    return True


def shrink_signatures(module: Module) -> bool:
    """Iterate param/result elimination with DCE to a fixed point."""
    changed = False
    for _ in range(8):
        round_changed = False
        for func in module.functions.values():
            eliminate_dead_code(func)
        round_changed |= eliminate_dead_results(module)
        round_changed |= eliminate_dead_params(module)
        if not round_changed:
            break
        changed = True
    return changed
