"""Refinement 1: dynamic saved-register / argument classification
(paper §4.1) and the signature-shrinking transform it enables.

On entry to every lifted function each virtual register receives a fresh
symbolic value.  The shadow plugin then observes how that symbol flows:

* stored to and reloaded from the function's own emulated-stack frame —
  harmless (a register save);
* used in any computation, compared, stored outside the frame, or passed
  to an external function — the register carries an **argument**;
* passed onward (still symbolic) into a callee — **forwarded**: a
  constraint "arg here iff arg there" resolved after tracing;
* present unmodified in the register file at return — restored/clean.

The observation runs on SSA registers: :func:`classify_registers`
first promotes every lifted function's ``vcpu.*`` register and flag
slots in place (mem2reg alone, with no folding and no dead-code
removal, so a flag that is never read still counts as a use of its
operands: the interpreter does not compute it, but reports the read).
A symbol then flows through SSA values and phis, not through memory,
and the interpreter hands the plugin only the uses of shadowed values.
The hybrid mode's static augment reads the alloca form, so it runs
before the promotion.

After classification, function signatures shrink to the true arguments
and the registers actually modified; at every call site the dropped
result positions are replaced by the caller's own pre-call values, which
is the paper's "preemptively save and restore these registers at all
call sites" rewritten into SSA-friendly form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..binary.image import STACK_TOP
from ..ir.interp import Interpreter
from ..ir.module import Function, Module
from ..ir.values import (
    Alloca,
    Call,
    Const,
    Instr,
    Load,
    Param,
    Ret,
    Result,
    Store,
)
from ..lifting.translator import EMUSTACK_BASE, EMUSTACK_SIZE, REG_ORDER
from ..opt.mem2reg import promote_allocas
from .sp0fold import is_lifted_function

#: Largest plausible frame extent used for the own-frame store test.
FRAME_LIMIT = 1 << 16


@dataclass(frozen=True)
class RegSym:
    """The symbolic entry value of one register in one activation."""

    frame_id: int
    func_name: str
    reg: str


@dataclass
class _FrameInfo:
    func_name: str
    sp0: int
    syms: dict[str, RegSym]
    incoming: list  # shadows passed by the caller, aligned with params


@dataclass
class RegSaveResult:
    """Classification outcome for a lifted module."""

    #: Registers that are true incoming arguments, per function.
    args: dict[str, set[str]] = field(default_factory=dict)
    #: Registers whose value is modified at return, per function.
    outputs: dict[str, set[str]] = field(default_factory=dict)
    #: Functions observed as indirect call targets (keep full signature).
    indirect_targets: set[str] = field(default_factory=set)

    def is_saved(self, func: str, reg: str) -> bool:
        return reg not in self.args.get(func, set()) and \
            reg not in self.outputs.get(func, set())


class RegSavePlugin:
    """Interpreter shadow plugin implementing the §4.1 analysis."""

    def __init__(self) -> None:
        self.used: dict[tuple[str, str], bool] = {}
        self.forwarded: dict[tuple[str, str],
                             set[tuple[str, str]]] = {}
        self.modified: dict[tuple[str, str], bool] = {}
        self.indirect_targets: set[str] = set()
        self.seen_functions: set[str] = set()
        self._frames: dict[int, _FrameInfo] = {}
        self._mem_shadow: dict[int, RegSym] = {}

    def reset(self) -> None:
        """Forget the per-run state (live frames and the symbols held in
        memory) before the next input's run; the observations made so
        far are kept."""
        self._frames.clear()
        self._mem_shadow.clear()

    # -- plugin interface ---------------------------------------------------

    def call_enter(self, func: Function, frame_id: int, args: list[int],
                   arg_shadows: list):
        if not _is_lifted_signature(func):
            return None
        self.seen_functions.add(func.name)
        sp0 = args[0] if args else 0
        syms = {}
        shadows: list = [None] * len(args)
        for i, reg in enumerate(REG_ORDER):
            sym = RegSym(frame_id, func.name, reg)
            syms[reg] = sym
            shadows[i + 1] = sym
            incoming = arg_shadows[i + 1] if i + 1 < len(arg_shadows) \
                else None
            if isinstance(incoming, RegSym):
                # The caller's symbol is forwarded into this callee.
                self.forwarded.setdefault(
                    (incoming.func_name, incoming.reg),
                    set()).add((func.name, reg))
        self._frames[frame_id] = _FrameInfo(func.name, sp0, syms,
                                            list(arg_shadows))
        return shadows

    def call_exit(self, func: Function, frame_id: int,
                  ret_values: list[int], ret_shadows: list):
        info = self._frames.pop(frame_id, None)
        if info is None:
            return None
        translated: list = [None] * len(ret_shadows)
        for i, reg in enumerate(REG_ORDER[:len(ret_shadows)]):
            shadow = ret_shadows[i]
            own = info.syms[reg]
            if shadow is own:
                # Clean exit: the caller's value survives; hand the
                # caller back the shadow it passed in.
                incoming = info.incoming[i + 1] \
                    if i + 1 < len(info.incoming) else None
                translated[i] = incoming
            else:
                self.modified[(func.name, reg)] = True
        return translated

    def on_use(self, frame_id: int, instr: Instr, shadow) -> None:
        if isinstance(shadow, RegSym):
            self.used[(shadow.func_name, shadow.reg)] = True

    def load_hook(self, instr: Load):
        """A word load reads the symbol a store left at its address; a
        narrower one carries none."""
        return self._mem_shadow.get if instr.size == 4 else None

    def store_hooks(self, instr: Store):
        """A store of a plain value clears the address's symbol; a word
        store of a symbol saves or escapes it (:meth:`_store_symbol`),
        and a narrower one clears it too."""
        forget = self._mem_shadow.pop
        if instr.size != 4:
            return (lambda frame_id, addr, shadow: forget(addr, None),
                    forget)
        return self._store_symbol, forget

    def _store_symbol(self, frame_id: int, addr: int, shadow) -> None:
        if not isinstance(shadow, RegSym):
            self._mem_shadow.pop(addr, None)
            return
        info = self._frames.get(frame_id)
        in_own_frame = (
            info is not None
            and info.sp0 - FRAME_LIMIT < addr < info.sp0
            and EMUSTACK_BASE <= addr < EMUSTACK_BASE + EMUSTACK_SIZE)
        in_native = addr >= STACK_TOP - (64 << 20)
        if in_own_frame or in_native:
            self._mem_shadow[addr] = shadow
        else:
            # Escapes the frame: globals, heap, or a caller frame.
            self.used[(shadow.func_name, shadow.reg)] = True
            self._mem_shadow.pop(addr, None)

    def on_callext(self, frame_id: int, instr: Instr,
                   arg_values: list[int], arg_shadows: list) -> None:
        for shadow in arg_shadows:
            if isinstance(shadow, RegSym):
                self.used[(shadow.func_name, shadow.reg)] = True

    def on_indirect_call(self, callee: Function) -> None:
        self.indirect_targets.add(callee.name)

    # -- resolution -----------------------------------------------------------

    def resolve(self) -> RegSaveResult:
        """Resolve forwarded-register constraints to a fixed point."""
        args: dict[str, set[str]] = {f: set()
                                     for f in self.seen_functions}
        for (func, reg), flag in self.used.items():
            if flag:
                args.setdefault(func, set()).add(reg)
        changed = True
        while changed:
            changed = False
            for (func, reg), targets in self.forwarded.items():
                if reg in args.setdefault(func, set()):
                    continue
                if any(treg in args.setdefault(tfunc, set())
                       for tfunc, treg in targets):
                    args[func].add(reg)
                    changed = True
        outputs: dict[str, set[str]] = {f: set()
                                        for f in self.seen_functions}
        for (func, reg), flag in self.modified.items():
            if flag:
                outputs.setdefault(func, set()).add(reg)
        return RegSaveResult(args, outputs, set(self.indirect_targets))


def _is_lifted_signature(func: Function) -> bool:
    return (len(func.params) == 1 + len(REG_ORDER)
            and func.params[0].name == "sp"
            and func.nresults == len(REG_ORDER))


def classify_registers(module: Module,
                       inputs: list[list[int | bytes]],
                       static_augment: bool = False,
                       check=None) -> RegSaveResult:
    """Run the dynamic register classification over all traced inputs.

    Promotes the lifted functions' register and flag slots to SSA values
    in ``module`` itself before the runs (see the module docstring);
    later stages find the registers already in SSA.

    With ``static_augment`` (hybrid mode, paper §7.2), the dynamic
    result is widened by an ABI-heuristic static read-before-write
    analysis of the alloca form, so registers consumed only on
    statically-added (untraced) paths are still classified as
    arguments.  ``check(n, run)``, if given, executes the ``n``-th
    input's run instead of the loop calling ``run()`` itself (the replay
    engine's :meth:`~repro.replay.ReplayEngine.checker` compares it with
    the trace).
    """
    static = classify_statically(module) if static_augment else None
    for func in module.functions.values():
        if is_lifted_function(func):
            promote_allocas(func)
    plugin = RegSavePlugin()
    with Interpreter(module, shadow=plugin) as interp:
        for n, input_items in enumerate(inputs):
            interp.reset(input_items)
            plugin.reset()
            if check is None:
                interp.run()
            else:
                check(n, interp.run)
    result = plugin.resolve()
    if static is not None:
        for name, args in static.args.items():
            result.args.setdefault(name, set()).update(args)
        for name, outs in static.outputs.items():
            result.outputs.setdefault(name, set()).update(outs)
    return result


# -- static (ABI-heuristic) classification ----------------------------------
#
# Used standalone by the SecondWrite baseline and as the widening step of
# hybrid mode: callee-saved registers are never arguments; caller-saved
# registers are arguments iff read before written; eax returns the
# result.

_CALLER_SAVED = ("eax", "ecx", "edx")


def reads_before_write(func: Function, reg: str) -> bool:
    """Path-insensitive: does any path read vcpu.<reg> before writing it
    (ignoring the translator's entry parameter spill)?"""
    from collections import deque
    alloca = None
    for instr in func.entry.instrs:
        if isinstance(instr, Alloca) and instr.var_name == f"vcpu.{reg}":
            alloca = instr
            break
    if alloca is None:
        return False
    work = deque([(func.entry, False)])
    seen: set = set()
    while work:
        block, written = work.popleft()
        if (block, written) in seen:
            continue
        seen.add((block, written))
        for instr in block.instrs:
            if isinstance(instr, Store) and instr.addr is alloca:
                if isinstance(instr.value, Param):
                    continue  # parameter spill
                written = True
            elif isinstance(instr, Load) and instr.addr is alloca \
                    and not written:
                return True
        if block.is_terminated and not written:
            for succ in block.successors():
                work.append((succ, False))
    return False


def classify_statically(module: Module) -> RegSaveResult:
    """ABI-convention register classification (no execution needed)."""
    result = RegSaveResult()
    for name, func in module.functions.items():
        if not is_lifted_function(func):
            continue
        args = {reg for reg in _CALLER_SAVED
                if reads_before_write(func, reg)}
        result.args[name] = args
        result.outputs[name] = {"eax"}
    return result


# ---------------------------------------------------------------------------
# Transform: shrink signatures according to the classification.
# ---------------------------------------------------------------------------


def apply_register_classification(module: Module,
                                  result: RegSaveResult) -> None:
    """Rewrite lifted signatures: keep true args, return modified regs.

    Functions observed as indirect-call targets keep the full register
    signature so every call site of an indirect call remains compatible.
    """
    plans: dict[str, tuple[list[str], list[str]]] = {}
    for name, func in module.functions.items():
        if not _is_lifted_signature(func) or name not in \
                result.args.keys() | result.outputs.keys():
            continue
        if name in result.indirect_targets:
            continue
        arg_regs = [r for r in REG_ORDER
                    if r in result.args.get(name, set())]
        out_regs = [r for r in REG_ORDER
                    if r in result.outputs.get(name, set())]
        plans[name] = (arg_regs, out_regs)

    # Rewrite call sites first (they reference the old Result layout).
    for func in module.functions.values():
        for block in func.blocks:
            calls = [i for i in block.instrs
                     if isinstance(i, Call) and i.callee.name in plans]
            for call in calls:
                _rewrite_call_site(func, call,
                                   plans[call.callee.name])

    # Then rewrite the functions themselves.
    for name, (arg_regs, out_regs) in plans.items():
        _rewrite_function(module.functions[name], arg_regs, out_regs)
    module.metadata["regsave"] = ",".join(
        f"{n}:{len(a)}a{len(o)}o" for n, (a, o) in sorted(plans.items()))


def _rewrite_call_site(caller: Function, call: Call,
                       plan: tuple[list[str], list[str]]) -> None:
    arg_regs, out_regs = plan
    old_args = call.args  # [sp, eax, ecx, edx, ebx, ebp, esi, edi]
    reg_index = {reg: i for i, reg in enumerate(REG_ORDER)}
    new_args = [old_args[0]] + [old_args[1 + reg_index[r]]
                                for r in arg_regs]

    # Replace dropped results with the caller's own pre-call values --
    # the paper's save/restore-at-call-site rewrite.
    replacements: dict[Instr, object] = {}
    new_index = {reg: i for i, reg in enumerate(out_regs)}
    block = call.block
    for instr in list(block.instrs):
        if isinstance(instr, Result) and instr.call is call:
            reg = REG_ORDER[instr.index]
            if reg not in new_index:
                replacements[instr] = old_args[1 + reg_index[reg]]
            elif len(out_regs) == 1:
                # Single-result convention: the call itself is the value.
                replacements[instr] = call
            else:
                instr.index = new_index[reg]
    if replacements:
        for b in caller.blocks:
            b.instrs = [i for i in b.instrs if i not in replacements]
            for instr in b.instrs:
                instr.ops = [replacements.get(op, op)
                             for op in instr.ops]
    callee_ref = call.ops[0]
    call.ops = [callee_ref, *new_args]
    call.nresults = len(out_regs)
    # The call's operands and its Results' indices changed in place.
    caller.invalidate()


def _rewrite_function(func: Function, arg_regs: list[str],
                      out_regs: list[str]) -> None:
    old_params = func.params
    new_names = ["sp", *arg_regs]
    func.params = [Param(n, i) for i, n in enumerate(new_names)]
    param_map: dict[Param, object] = {old_params[0]: func.params[0]}
    new_by_reg = {r: func.params[1 + i] for i, r in enumerate(arg_regs)}
    for i, reg in enumerate(REG_ORDER):
        old = old_params[1 + i]
        param_map[old] = new_by_reg.get(reg, Const(0))
    reg_index = {reg: i for i, reg in enumerate(REG_ORDER)}
    for block in func.blocks:
        for instr in block.instrs:
            instr.ops = [param_map.get(op, op) if isinstance(op, Param)
                         else op for op in instr.ops]
            if isinstance(instr, Ret) and len(instr.ops) == \
                    len(REG_ORDER):
                instr.ops = [instr.ops[reg_index[r]] for r in out_regs]
    func.nresults = len(out_regs)
    func.invalidate()
