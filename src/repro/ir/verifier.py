"""IR verifier: structural well-formedness checks.

Run after every transformation in tests; catching a malformed rewrite at
the pass boundary is vastly cheaper than debugging a miscompare three
stages later.
"""

from __future__ import annotations

from ..errors import IRError
from .module import Block, Function, Module
from .values import (
    Call,
    CallInd,
    Const,
    FuncRef,
    GlobalRef,
    Instr,
    Param,
    Phi,
    Result,
    Ret,
    Value,
)


def verify_module(module: Module) -> None:
    for func in module.functions.values():
        verify_function(func, module)


def verify_function(func: Function, module: Module | None = None) -> None:
    """Check ``func`` in two walks over its instructions.

    The first collects the definitions and the predecessors and checks
    terminators and phi order.  The second checks each instruction: its
    own rule (``Result``, ``Ret``, and ``Call`` when ``module`` is
    given), then its operands; then each block's phis and successors.
    """
    name = func.name
    if not func.blocks:
        raise IRError(f"{name}: function has no blocks")

    defined: set[Instr] = set()
    preds: dict[Block, list[Block]] = {b: [] for b in func.blocks}
    for block in func.blocks:
        instrs = block.instrs
        if not instrs or not instrs[-1].is_terminator:
            raise IRError(f"{name}/{block.name}: missing terminator")
        last = len(instrs) - 1
        seen_non_phi = False
        for i, instr in enumerate(instrs):
            if instr.is_terminator and i != last:
                raise IRError(f"{name}/{block.name}: terminator mid-block")
            if isinstance(instr, Phi):
                # Phis must form a contiguous leading run; comparing
                # positions against the phi *count* would miss a phi
                # sandwiched between non-phis once later phis pad the
                # count, so track the first non-phi explicitly.
                if seen_non_phi:
                    raise IRError(
                        f"{name}/{block.name}: phi below non-phi")
            else:
                seen_non_phi = True
        defined.update(instrs)
        # A successor outside the function is reported by the second
        # walk; it has no entry here.
        for succ in instrs[-1].successors():
            incoming = preds.get(succ)
            if incoming is not None:
                incoming.append(block)

    params = set(func.params)
    for block in func.blocks:
        where = block.name
        for instr in block.instrs:
            if isinstance(instr, Result):
                call = instr.ops[0]
                if not isinstance(call, (Call, CallInd)):
                    raise IRError(f"{name}: result of non-call")
                if not 0 <= instr.index < call.nresults:
                    raise IRError(
                        f"{name}: result index {instr.index} out of "
                        f"range for {call.nresults}-result call")
            elif isinstance(instr, Ret):
                if len(instr.ops) != func.nresults:
                    raise IRError(
                        f"{name}: ret carries {len(instr.ops)} values, "
                        f"function declares {func.nresults}")
            elif module is not None and isinstance(instr, Call):
                _check_call(name, instr, module)
            for op in instr.ops:
                if isinstance(op, Instr):
                    if op not in defined:
                        raise IRError(
                            f"{name}/{where}: use of instruction not in "
                            f"function: {op!r}")
                elif not isinstance(op, Const):
                    _check_operand(name, where, op, params, module)
        phis = block.phis()
        if phis:
            actual = set(preds[block])
            for phi in phis:
                phi_preds = set(phi.blocks)
                if phi_preds != actual:
                    names = sorted(b.name for b in phi_preds ^ actual)
                    raise IRError(
                        f"{name}/{where}: phi incoming blocks "
                        f"disagree with predecessors ({names})")
        for succ in block.instrs[-1].successors():
            if succ not in preds:
                raise IRError(
                    f"{name}/{where}: successor "
                    f"{succ.name} not in function")


def _check_call(name: str, instr: Call, module: Module) -> None:
    callee = module.functions.get(instr.callee.name)
    if callee is None:
        raise IRError(
            f"{name}: call to unknown function {instr.callee.name}")
    if len(instr.args) != len(callee.params):
        raise IRError(
            f"{name}: call to {callee.name} passes "
            f"{len(instr.args)} args, callee takes "
            f"{len(callee.params)}")
    if instr.nresults != callee.nresults:
        raise IRError(
            f"{name}: call to {callee.name} expects "
            f"{instr.nresults} results, callee returns "
            f"{callee.nresults}")


def _check_operand(name: str, where: str, op: Value,
                   params: set[Param], module: Module | None) -> None:
    """Check an operand that is neither an instruction nor a constant."""
    if isinstance(op, Param):
        if op not in params:
            raise IRError(f"{name}/{where}: foreign parameter {op!r}")
        return
    if isinstance(op, GlobalRef):
        if module is not None and op.name not in module.globals:
            raise IRError(f"{name}/{where}: unknown global {op.name}")
        return
    if isinstance(op, FuncRef):
        if module is not None and op.name not in module.functions:
            raise IRError(f"{name}/{where}: unknown function ref "
                          f"{op.name}")
        return
    raise IRError(f"{name}/{where}: bad operand {op!r}")
