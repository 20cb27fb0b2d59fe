"""Refinement 1: dynamic saved-register / argument classification
(paper §4.1) and the signature-shrinking transform it enables.

On entry to every lifted function each virtual register receives a fresh
symbolic value, the plain tuple ``(frame_id, key)`` whose ``key`` is the
``(function name, register)`` pair the observations are keyed by, built
once per function.  The shadow plugin then observes how that symbol
flows:

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
The lifter carries each slot's value within a block, so the promotion
has only each block's first load and last store of a slot to remove.
A symbol then flows through SSA values and phis, not through memory,
and the interpreter hands the plugin only the uses of shadowed values,
each once per straight-line segment of a block that reads it (a segment
ends before each call and before the terminator, so a use before an
``exit`` call is reported and one after it is not); marking a register
used is idempotent, so that is the same classification as reporting
every use.

The observation runs once per call and once per used or stored symbol,
so its records are plain: a symbol is a tuple (a call makes one per
register), a live activation's record is a tuple, and nothing tests a
shadow's type, since every shadow the interpreter hands the plugin is
None or a symbol the plugin made.

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
    Value,
)
from ..lifting.translator import EMUSTACK_BASE, EMUSTACK_SIZE, REG_ORDER
from ..opt.mem2reg import promote_allocas
from .sp0fold import is_lifted_function

#: Largest plausible frame extent used for the own-frame store test.
FRAME_LIMIT = 1 << 16


@dataclass
class RegSaveResult:
    """Classification outcome for a lifted module."""

    #: Registers that are true incoming arguments, per function.
    args: dict[str, set[str]] = field(default_factory=dict)
    #: Registers whose value is modified at return, per function.
    outputs: dict[str, set[str]] = field(default_factory=dict)
    #: Functions observed as indirect call targets (keep full signature).
    indirect_targets: set[str] = field(default_factory=set)


class RegSavePlugin:
    """Interpreter shadow plugin implementing the §4.1 analysis (see
    the module docstring).  A register's entry symbol is a fresh tuple
    per activation, so the register holds its entry value at return
    exactly when its shadow is that object."""

    def __init__(self) -> None:
        self.used: dict[tuple[str, str], bool] = {}
        self.forwarded: dict[tuple[str, str],
                             set[tuple[str, str]]] = {}
        self.modified: dict[tuple[str, str], bool] = {}
        self.indirect_targets: set[str] = set()
        self.seen_functions: set[str] = set()
        #: Each live activation of a lifted function, by frame id:
        #: ``(sp0, shadows, incoming, keys)`` -- the parameter shadows
        #: ``call_enter`` returned (the entry symbols after the stack
        #: pointer's None), the shadows the caller passed, aligned with
        #: the parameters, and the function's keys.
        self._frames: dict[int, tuple] = {}
        self._mem_shadow: dict[int, tuple] = {}
        #: Each lifted function's keys, in ``REG_ORDER``, built on its
        #: first call.
        self._keys: dict[Function, tuple] = {}

    def reset(self) -> None:
        """Forget the per-run state (live frames and the symbols held in
        memory) before the next input's run; the observations made so
        far are kept."""
        self._frames.clear()
        self._mem_shadow.clear()

    def state(self) -> dict:
        """The cross-run observations, which :meth:`reset` keeps."""
        return {"used": self.used, "forwarded": self.forwarded,
                "modified": self.modified,
                "indirect_targets": self.indirect_targets,
                "seen_functions": self.seen_functions}

    def restore(self, state: dict) -> None:
        """Continue from a :meth:`state` taken after earlier inputs'
        runs: no hook reads an observation, so the next runs add to
        them as they would have in the same plugin."""
        self.used.update(state["used"])
        self.forwarded.update(state["forwarded"])
        self.modified.update(state["modified"])
        self.indirect_targets.update(state["indirect_targets"])
        self.seen_functions.update(state["seen_functions"])

    # -- plugin interface ---------------------------------------------------

    def call_enter(self, func: Function, frame_id: int, args: list[int],
                   arg_shadows: list):
        keys = self._keys.get(func)
        if keys is None:
            if not _is_lifted_signature(func):
                return None
            self.seen_functions.add(func.name)
            keys = self._keys[func] = tuple((func.name, reg)
                                            for reg in REG_ORDER)
        shadows: list = [None]
        shadows += [(frame_id, key) for key in keys]
        for key, incoming in zip(keys, arg_shadows[1:], strict=False):
            if incoming is not None:
                # The caller's symbol is forwarded into this callee.
                self.forwarded.setdefault(incoming[1], set()).add(key)
        self._frames[frame_id] = (args[0] if args else 0, shadows,
                                  list(arg_shadows), keys)
        return shadows

    def call_exit(self, func: Function, frame_id: int,
                  ret_values: list[int], ret_shadows: list):
        rec = self._frames.pop(frame_id, None)
        if rec is None:
            return None
        _sp0, own, incoming, keys = rec
        translated: list = [None] * len(ret_shadows)
        modified = self.modified
        for i in range(min(len(ret_shadows), len(keys))):
            if ret_shadows[i] is own[i + 1]:
                # Clean exit: the caller's value survives; hand the
                # caller back the shadow it passed in.
                translated[i] = incoming[i + 1] \
                    if i + 1 < len(incoming) else None
            else:
                modified[keys[i]] = True
        return translated

    def on_use(self, frame_id: int, shadow) -> None:
        """A computation read ``shadow``: its register is an argument.
        The interpreter reports each symbol once per straight-line
        segment that reads it; marking a pair twice changes nothing."""
        self.used[shadow[1]] = True

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
        rec = self._frames.get(frame_id)
        in_own_frame = (
            rec is not None
            and rec[0] - FRAME_LIMIT < addr < rec[0]
            and EMUSTACK_BASE <= addr < EMUSTACK_BASE + EMUSTACK_SIZE)
        in_native = addr >= STACK_TOP - (64 << 20)
        if in_own_frame or in_native:
            self._mem_shadow[addr] = shadow
        else:
            # Escapes the frame: globals, heap, or a caller frame.
            self.used[shadow[1]] = True
            self._mem_shadow.pop(addr, None)

    def on_callext(self, frame_id: int, instr: Instr,
                   arg_values: list[int], arg_shadows: list) -> None:
        for shadow in arg_shadows:
            if shadow is not None:
                self.used[shadow[1]] = True

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
                       check=None) -> RegSaveResult:
    """Run the dynamic register classification over all traced inputs.

    Promotes the lifted functions' register and flag slots to SSA values
    in ``module`` itself before the runs (see the module docstring),
    with :func:`~repro.opt.mem2reg.promote_allocas`, whose work is in
    proportion to the slot loads and stores it removes: one per block
    and slot at most, since the lifter reuses a slot's value within a
    block.  Later stages find the registers already in SSA.

    ``check``, if given, is the replay engine's
    :class:`~repro.replay.engine.StageCheck` over ``inputs``: it
    restores the observations of the leading inputs the store holds a
    record of for the promoted module, executes each remaining input's
    run (``check(n, run)``) and compares it with the trace, and records
    the observations once every run has passed.
    """
    for func in module.functions.values():
        if is_lifted_function(func):
            promote_allocas(func)
    plugin = RegSavePlugin()
    start = 0 if check is None else check.resume(plugin.restore)
    with Interpreter(module, shadow=plugin) as interp:
        for n in range(start, len(inputs)):
            interp.reset(inputs[n])
            plugin.reset()
            if check is None:
                interp.run()
            else:
                check(n, interp.run)
    if check is not None:
        check.passed(plugin.state())
    return plugin.resolve()


# -- static (ABI-heuristic) classification ----------------------------------
#
# Used by the SecondWrite baseline, which classifies without running
# the program: callee-saved registers are never arguments; caller-saved
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
        _rewrite_call_sites(func, plans)

    # Then rewrite the functions themselves.
    for name, (arg_regs, out_regs) in plans.items():
        _rewrite_function(module.functions[name], arg_regs, out_regs)
    module.metadata["regsave"] = ",".join(
        f"{n}:{len(a)}a{len(o)}o" for n, (a, o) in sorted(plans.items()))


def _rewrite_call_sites(caller: Function,
                        plans: dict[str, tuple[list[str], list[str]]]
                        ) -> None:
    """Rewrite every call in ``caller`` whose callee has a plan to the
    callee's new signature, in one sweep over the caller.

    A dropped result is replaced by the caller's own pre-call value of
    its register -- the paper's save/restore-at-call-site rewrite.  That
    value can be a result an earlier call drops, so the replacements
    are collected first and then resolved through such chains.
    """
    reg_index = {reg: i for i, reg in enumerate(REG_ORDER)}
    replacements: dict[Instr, Value] = {}
    site_blocks = []
    for block in caller.blocks:
        sites = {i: plans[i.callee.name] for i in block.instrs
                 if isinstance(i, Call) and i.callee.name in plans}
        if not sites:
            continue
        site_blocks.append(block)
        for instr in block.instrs:
            if not isinstance(instr, Result) or instr.call not in sites:
                continue
            call = instr.call
            out_regs = sites[call][1]
            reg = REG_ORDER[instr.index]
            if reg not in out_regs:
                # call.ops is [callee, sp, eax, ecx, ..., edi].
                replacements[instr] = call.ops[2 + reg_index[reg]]
            elif len(out_regs) == 1:
                # Single-result convention: the call itself is the value.
                replacements[instr] = call
            else:
                instr.index = out_regs.index(reg)
        for call, (arg_regs, out_regs) in sites.items():
            old = call.ops
            call.ops = [old[0], old[1],
                        *(old[2 + reg_index[r]] for r in arg_regs)]
            call.nresults = len(out_regs)
    if not site_blocks:
        return
    if replacements:
        for instr, value in replacements.items():
            while value in replacements:
                value = replacements[value]
            replacements[instr] = value
        # A call's results sit in the call's block.
        for block in site_blocks:
            block.instrs = [i for i in block.instrs
                            if i not in replacements]
        _substitute(caller, Result, replacements)
    # The calls' operands and their Results' indices changed in place.
    caller.invalidate()


def _substitute(func: Function, kind: type, mapping: dict) -> None:
    """Replace each operand of type ``kind`` that ``mapping`` maps in
    ``func``.  Only an instruction that has such an operand gets a new
    operand list; most instructions read neither a parameter nor a
    dropped result, and keep theirs."""
    for block in func.blocks:
        for instr in block.instrs:
            ops = instr.ops
            if kind in map(type, ops) and any(
                    type(op) is kind and op in mapping for op in ops):
                instr.ops = [mapping.get(op, op) if type(op) is kind
                             else op for op in ops]


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
    _substitute(func, Param, param_map)
    reg_index = {reg: i for i, reg in enumerate(REG_ORDER)}
    for block in func.blocks:
        instr = block.instrs[-1] if block.instrs else None
        if isinstance(instr, Ret) and len(instr.ops) == len(REG_ORDER):
            instr.ops = [instr.ops[reg_index[r]] for r in out_regs]
    func.nresults = len(out_regs)
    func.invalidate()
