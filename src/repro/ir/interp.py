"""IR interpreter: executes a module against the shared memory model.

This is the "Execute" box of the paper's Figure 4: every refinement runs
the *lifted IR itself* (instrumented with probes) on the traced inputs.
The interpreter therefore supports two extension points:

* an **intrinsic handler** — receives ``wyt.*`` probe calls inserted by
  :mod:`repro.core.instrument` (the analogue of linking BinRec's
  instrumentation runtime into the lifted program); and
* a **shadow plugin** — observes every executed instruction with its
  operand shadows, used by the register save/argument classification of
  refinement 1 (paper §4.1), where each register carries a symbolic value.

It is also used to validate lifted IR functionally before lowering.

One instance serves one replay stage: the stage builds it once and
calls :meth:`Interpreter.reset` before each traced input, which clears
the per-run state (memory, libc, step and frame counters) and rewrites
the global initializers, so every run of the stage starts as a fresh
process would while sharing the compiled blocks below.  The module must
not change between the runs of one instance.  A stage holds its
interpreter in a ``with`` block, whose exit frees the compiled blocks
and memory pages at once instead of at the next cyclic collection.

Execution engine: by default each basic block is compiled, on first
entry, into a list of argument-specialized closures (one per
instruction), cached per interpreter instance and keyed on the owning
function's mutation ``version``.  This removes the per-step
``isinstance`` dispatch chain and per-operand re-classification of the
reference engine, which is kept (``compiled=False``, or environment
``REPRO_IR_COMPILED=0``) as the differential baseline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Protocol

from ..binary.image import STACK_TOP
from ..errors import InterpError
from .module import Function, Module
from .values import (
    Alloca,
    BinOp,
    Br,
    Call,
    CallExt,
    CallInd,
    CondBr,
    Const,
    FuncRef,
    GlobalRef,
    ICmp,
    Instr,
    Intrinsic,
    Load,
    Param,
    Phi,
    Ret,
    Result,
    Store,
    Switch,
    Unary,
    Unreachable,
    Value,
)
from ..emu.libc import ExitProgram, LibC, ListArgs, StackArgs
from ..emu.memory import make_memory
from ..obs import count as _obs_count, recorder as _obs_recorder

MASK32 = 0xFFFFFFFF

#: Where unpinned globals are placed by the interpreter and the lowerer.
GLOBAL_REGION_BASE = 0x0D000000

#: Pseudo-addresses assigned to address-taken functions with no original
#: binary entry (cc-compiled modules).
FUNC_ADDR_BASE = 0x0E000000


def _signed(v: int) -> int:
    v &= MASK32
    return v - 0x100000000 if v >= 0x80000000 else v


def _binop_fn(op: str, where):
    """Scalar function for a binop opcode (compiled-engine dispatch).

    Semantics mirror :meth:`Interpreter._binop` exactly; ``where`` names
    the owning instruction for division-error messages.
    """
    fn = _BINOP_FNS.get(op)
    if fn is not None:
        return fn
    name = where.block.function.name \
        if where.block is not None and where.block.function else "?"
    if op == "div":
        def div(a, b):
            sb = _signed(b)
            if sb == 0:
                raise InterpError(f"{name}: division by zero")
            return int(_signed(a) / sb) & MASK32
        return div
    if op == "rem":
        def rem(a, b):
            sb = _signed(b)
            if sb == 0:
                raise InterpError(f"{name}: remainder by zero")
            sa = _signed(a)
            return (sa - int(sa / sb) * sb) & MASK32
        return rem
    raise InterpError(f"bad binop {op}")


_BINOP_FNS = {
    "add": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "mul": lambda a, b: (_signed(a) * _signed(b)) & MASK32,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a << (b & 31)) & MASK32,
    "shr": lambda a, b: (a & MASK32) >> (b & 31),
    "sar": lambda a, b: (_signed(a) >> (b & 31)) & MASK32,
}

_ICMP_FNS = {
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "slt": lambda a, b: 1 if _signed(a) < _signed(b) else 0,
    "sle": lambda a, b: 1 if _signed(a) <= _signed(b) else 0,
    "sgt": lambda a, b: 1 if _signed(a) > _signed(b) else 0,
    "sge": lambda a, b: 1 if _signed(a) >= _signed(b) else 0,
    "ult": lambda a, b: 1 if a < b else 0,
    "ule": lambda a, b: 1 if a <= b else 0,
    "ugt": lambda a, b: 1 if a > b else 0,
    "uge": lambda a, b: 1 if a >= b else 0,
}


def _icmp_fn(pred: str):
    fn = _ICMP_FNS.get(pred)
    if fn is None:
        raise InterpError(f"bad icmp predicate {pred}")
    return fn


_UNARY_FNS = {
    "neg": lambda a: (-a) & MASK32,
    "not": lambda a: (~a) & MASK32,
    "sext8": lambda a: ((a & 0xFF) | 0xFFFFFF00) if a & 0x80 else a & 0xFF,
    "sext16": lambda a: ((a & 0xFFFF) | 0xFFFF0000) if a & 0x8000
              else a & 0xFFFF,
    "zext8": lambda a: a & 0xFF,
    "zext16": lambda a: a & 0xFFFF,
    "trunc8": lambda a: a & 0xFF,
    "trunc16": lambda a: a & 0xFFFF,
}


def _unary_fn(op: str):
    fn = _UNARY_FNS.get(op)
    if fn is None:
        raise InterpError(f"bad unary op {op}")
    return fn


class ShadowPlugin(Protocol):
    """Observer interface for shadow-value analyses (refinement 1).

    ``call_enter`` may return replacement shadows for the parameters
    (e.g. fresh register symbols); ``call_exit`` may return translated
    shadows for the returned values, which the interpreter attaches to
    the call's results in the caller frame.
    """

    def call_enter(self, func: Function, frame_id: int, args: list[int],
                   arg_shadows: list) -> list | None: ...

    def call_exit(self, func: Function, frame_id: int,
                  ret_values: list[int],
                  ret_shadows: list) -> list | None: ...

    def on_instr(self, frame_id: int, instr: Instr,
                 operand_shadows: list, result: int | None): ...

    def on_store(self, frame_id: int, instr: Instr, addr: int,
                 value: int, value_shadow) -> None: ...

    def on_load(self, frame_id: int, instr: Instr, addr: int,
                value: int): ...

    def on_callext(self, frame_id: int, instr: Instr,
                   arg_values: list[int], arg_shadows: list) -> None: ...

    def on_indirect_call(self, callee: Function) -> None: ...


IntrinsicHandler = Callable[["Frame", Intrinsic, list[int]], None]


@dataclass
class InterpResult:
    exit_code: int
    stdout: bytes
    steps: int


class Frame:
    """One activation of an IR function."""

    __slots__ = ("function", "frame_id", "values", "shadows", "sp")

    def __init__(self, function: Function, frame_id: int, sp: int):
        self.function = function
        self.frame_id = frame_id
        self.values: dict[Value, object] = {}
        self.shadows: dict[Value, object] = {}
        self.sp = sp  # native stack cursor for allocas


class Interpreter:
    """Executes an IR module.  One instance per replay stage: construct
    it once (``with Interpreter(...) as interp:``), then :meth:`reset`
    it before each input's :meth:`run`."""

    def __init__(self, module: Module,
                 input_items: list[int | bytes] | None = None,
                 intrinsic_handler: IntrinsicHandler | None = None,
                 shadow: ShadowPlugin | None = None,
                 callext_hook=None,
                 max_steps: int = 200_000_000,
                 compiled: bool | None = None):
        self.module = module
        if compiled is None:
            compiled = os.environ.get("REPRO_IR_COMPILED", "1") != "0"
        self.compiled = compiled
        #: Per-block compiled code: block -> (func version, #instrs,
        #: (steps, phi plan, body closures, terminator closure)).
        self._code: dict = {}
        #: Observability: per-function execution counts land in this
        #: plain dict (the shared profile's counts) when a recorder is
        #: active; None keeps the call path branchless beyond one check.
        rec = _obs_recorder()
        self._func_counts: dict | None = \
            rec.registry.profile("ir.func_calls").counts \
            if rec is not None else None
        # Compiled closures capture ``mem`` and ``libc``: reset them in
        # place, never replace them.
        self.mem = make_memory()
        self.libc = LibC(self.mem)
        #: Read at run time by the compiled probes, so it may change
        #: between runs (one tracing runtime per bounds input).
        self.intrinsic_handler = intrinsic_handler
        self.shadow = shadow
        #: Optional hook observing every external call:
        #: hook(frame, instr, sp_or_None, args_or_None).
        self.callext_hook = callext_hook
        self.max_steps = max_steps
        self.global_addrs: dict[str, int] = {}
        self.func_addrs: dict[str, int] = {}
        self._addr_to_func: dict[int, str] = {}
        self._layout_globals()
        self._assign_func_addrs()
        self._initializers = self._global_initializers()
        self.reset(input_items)

    def reset(self, input_items: list[int | bytes] | None = None) -> None:
        """Prepare a run over ``input_items`` that starts as a fresh
        interpreter would: empty memory holding only the global
        initializers, fresh libc state, and zeroed step and frame
        counters.  Compiled blocks are kept."""
        self.mem.clear()
        self.libc.reset(input_items)
        self.steps = 0
        self._next_frame_id = 1
        for addr, data in self._initializers:
            self.mem.write_bytes(addr, data)

    def __enter__(self) -> "Interpreter":
        return self

    def __exit__(self, *exc) -> None:
        """Free the compiled blocks and the memory pages when the stage
        ends.  Compiled closures refer back to the interpreter, so
        otherwise only the cyclic collector frees them, and a finished
        stage's code stays allocated until it runs."""
        self._code.clear()
        self.mem.clear()

    # -- layout -------------------------------------------------------------

    def _layout_globals(self) -> None:
        cursor = GLOBAL_REGION_BASE
        for g in self.module.globals.values():
            if g.fixed_addr is not None:
                addr = g.fixed_addr
            else:
                align = max(g.align, 1)
                cursor = (cursor + align - 1) & ~(align - 1)
                addr = cursor
                cursor += g.size
            self.global_addrs[g.name] = addr

    def _global_initializers(self) -> list[tuple[int, bytes]]:
        # Initializers may reference functions/globals symbolically, so
        # this runs after both address spaces are assigned.
        out = []
        for g in self.module.globals.values():
            data = g.init_bytes(resolve=self._resolve_symbol, pad=False)
            if data:
                out.append((self.global_addrs[g.name], data))
        return out

    def _assign_func_addrs(self) -> None:
        for addr, name in self.module.address_table.items():
            self.func_addrs[name] = addr
            self._addr_to_func[addr] = name
        cursor = FUNC_ADDR_BASE
        for func in self.module.functions.values():
            if func.name not in self.func_addrs:
                self.func_addrs[func.name] = cursor
                self._addr_to_func[cursor] = func.name
                cursor += 16

    def _resolve_symbol(self, sym) -> int:
        name = sym.name if isinstance(sym, (GlobalRef, FuncRef)) else str(sym)
        if name in self.global_addrs:
            return self.global_addrs[name]
        if name in self.func_addrs:
            return self.func_addrs[name]
        # Two-phase: function addresses are assigned after globals, so
        # compute lazily via the address table when needed.
        raise InterpError(f"unresolved symbol {name!r} in initializer")

    # -- entry --------------------------------------------------------------

    def run(self, args: list[int] | None = None) -> InterpResult:
        entry = self.module.entry_function
        call_args = list(args or [])
        if len(call_args) < len(entry.params):
            call_args += [0] * (len(entry.params) - len(call_args))
        try:
            rets = self.call_function(entry, call_args)
            code = rets[0] if rets else 0
        except ExitProgram as exc:
            code = exc.code
        finally:
            if self._func_counts is not None:
                _obs_count("ir.runs")
                _obs_count("ir.steps", self.steps)
        return InterpResult(code & MASK32, bytes(self.libc.stdout),
                            self.steps)

    # -- evaluation ---------------------------------------------------------

    def _eval(self, frame: Frame, v: Value) -> int:
        if isinstance(v, Const):
            return v.value
        if isinstance(v, Instr):
            try:
                return frame.values[v]  # type: ignore[return-value]
            except KeyError:
                raise InterpError(
                    f"{frame.function.name}: use of unevaluated "
                    f"{v!r}") from None
        if isinstance(v, Param):
            return frame.values[v]  # type: ignore[return-value]
        if isinstance(v, GlobalRef):
            return self.global_addrs[v.name]
        if isinstance(v, FuncRef):
            return self.func_addrs[v.name]
        raise InterpError(f"cannot evaluate {v!r}")

    def _shadow_of(self, frame: Frame, v: Value):
        if isinstance(v, (Instr, Param)):
            return frame.shadows.get(v)
        return None

    def call_function(self, func: Function,
                      args: list[int],
                      arg_shadows: list | None = None) -> list[int]:
        values, _shadows = self._call(func, args, arg_shadows,
                                      STACK_TOP)
        return values

    def _call(self, func: Function, args: list[int],
              arg_shadows: list | None, sp: int) -> tuple[list[int],
                                                          list]:
        if self.compiled:
            return self._call_compiled(func, args, arg_shadows, sp)
        return self._call_interp(func, args, arg_shadows, sp)

    def _call_interp(self, func: Function, args: list[int],
                     arg_shadows: list | None, sp: int) -> tuple[list[int],
                                                                 list]:
        if len(args) != len(func.params):
            raise InterpError(
                f"{func.name}: called with {len(args)} args, wants "
                f"{len(func.params)}")
        counts = self._func_counts
        if counts is not None:
            counts[func.name] = counts.get(func.name, 0) + 1
        frame = Frame(func, self._next_frame_id, sp)
        self._next_frame_id += 1
        for param, value in zip(func.params, args, strict=False):
            frame.values[param] = value & MASK32
        if self.shadow is not None:
            shadows = list(arg_shadows or [None] * len(args))
            replaced = self.shadow.call_enter(func, frame.frame_id,
                                              list(args), shadows)
            if replaced is not None:
                shadows = replaced
            for param, sh in zip(func.params, shadows, strict=False):
                frame.shadows[param] = sh

        block = func.entry
        prev_block = None
        while True:
            # Phis first, evaluated simultaneously against prev_block.
            phis = block.phis()
            if phis:
                if prev_block is None:
                    raise InterpError(
                        f"{func.name}: phi in entry block {block.name}")
                # Phis execute in parallel: evaluate every incoming value
                # against the pre-transition state before assigning any
                # (swap patterns break under sequential update).
                staged = []
                for phi in phis:
                    incoming = phi.value_for(prev_block)
                    staged.append((phi, self._eval(frame, incoming),
                                   self._shadow_of(frame, incoming)
                                   if self.shadow is not None else None))
                for phi, value, shadow in staged:
                    frame.values[phi] = value
                    if self.shadow is not None:
                        frame.shadows[phi] = shadow

            for instr in block.instrs[len(phis):]:
                self.steps += 1
                if self.steps > self.max_steps:
                    raise InterpError("interpreter step budget exceeded")
                outcome = self._exec(frame, instr)
                if outcome is None:
                    continue
                kind, payload = outcome
                if kind == "ret":
                    values, shadows = payload
                    if self.shadow is not None:
                        translated = self.shadow.call_exit(
                            func, frame.frame_id, values, shadows)
                        if translated is not None:
                            shadows = translated
                    return values, shadows
                # branch
                prev_block, block = block, payload
                break
            else:
                raise InterpError(
                    f"{func.name}/{block.name}: fell off block end")

    # -- compiled engine ----------------------------------------------------

    def _call_compiled(self, func: Function, args: list[int],
                       arg_shadows: list | None,
                       sp: int) -> tuple[list[int], list]:
        """Run one activation through per-block compiled closure lists.

        Observable behaviour (memory, shadows, step counts, errors)
        matches :meth:`_call_interp`; only the dispatch mechanism
        differs.
        """
        if len(args) != len(func.params):
            raise InterpError(
                f"{func.name}: called with {len(args)} args, wants "
                f"{len(func.params)}")
        counts = self._func_counts
        if counts is not None:
            counts[func.name] = counts.get(func.name, 0) + 1
        frame = Frame(func, self._next_frame_id, sp)
        self._next_frame_id += 1
        values = frame.values
        for param, value in zip(func.params, args, strict=False):
            values[param] = value & MASK32
        shadow = self.shadow
        if shadow is not None:
            shadows = list(arg_shadows or [None] * len(args))
            replaced = shadow.call_enter(func, frame.frame_id,
                                         list(args), shadows)
            if replaced is not None:
                shadows = replaced
            for param, sh in zip(func.params, shadows, strict=False):
                frame.shadows[param] = sh

        code_for = self._code_for
        max_steps = self.max_steps
        block = func.entry
        prev: object = None
        while True:
            nsteps, phi_plan, body, term = code_for(block)
            if phi_plan is not None:
                if prev is None:
                    raise InterpError(
                        f"{func.name}: phi in entry block {block.name}")
                pid = id(prev)
                # Stage every incoming value before assigning any (phis
                # execute in parallel; swap patterns break otherwise).
                if shadow is None:
                    staged = []
                    for phi, plan in phi_plan:
                        ev = plan.get(pid)
                        if ev is None:
                            raise KeyError("phi has no incoming for "
                                           f"block {prev.name}")
                        staged.append((phi, ev(values)))
                    for phi, value in staged:
                        values[phi] = value
                else:
                    shadow_map = frame.shadows
                    staged = []
                    for phi, plan, splan in phi_plan:
                        ev = plan.get(pid)
                        if ev is None:
                            raise KeyError("phi has no incoming for "
                                           f"block {prev.name}")
                        staged.append((phi, ev(values),
                                       splan[pid](shadow_map)))
                    for phi, value, sh in staged:
                        values[phi] = value
                        shadow_map[phi] = sh
            self.steps += nsteps
            if self.steps > max_steps:
                raise InterpError("interpreter step budget exceeded")
            for op in body:
                op(frame)
            kind, payload = term(frame)
            if kind == "br":
                prev = block
                block = payload
            else:  # ret
                rvalues, rshadows = payload
                if shadow is not None:
                    translated = shadow.call_exit(
                        func, frame.frame_id, rvalues, rshadows)
                    if translated is not None:
                        rshadows = translated
                return rvalues, rshadows

    def _code_for(self, block):
        """Compiled code for ``block``, rebuilt when its function mutates."""
        entry = self._code.get(block)
        func = block.function
        version = func.version if func is not None else -1
        n = len(block.instrs)
        if entry is not None and entry[0] == version and entry[1] == n:
            return entry[2]
        # Cold path: first compile or a version-mismatch invalidation.
        if entry is not None:
            _obs_count("ir.code_cache.invalidations")
        _obs_count("ir.code_cache.compiles")
        code = self._compile_block(block)
        self._code[block] = (version, n, code)
        return code

    def _compile_block(self, block):
        phis = block.phis()
        nphis = len(phis)
        shadow = self.shadow
        phi_plan = None
        if nphis:
            phi_plan = []
            for phi in phis:
                evs = {id(pred): self._ev(value)
                       for pred, value in phi.incomings()}
                if shadow is None:
                    phi_plan.append((phi, evs))
                else:
                    shvs = {id(pred): self._shv(value)
                            for pred, value in phi.incomings()}
                    phi_plan.append((phi, evs, shvs))
        body = []
        term = None
        executed = 0
        for instr in block.instrs[nphis:]:
            executed += 1
            if instr.is_terminator:
                term = self._compile_term(instr)
                break
            body.append(self._compile_body(instr))
        if term is None:
            # Parity with the reference loop: the body still runs (and
            # counts) before the fall-off is reported.
            fname = block.function.name if block.function else "?"
            bname = block.name

            def term(frame):
                raise InterpError(f"{fname}/{bname}: fell off block end")
        return (executed, phi_plan, tuple(body), term)

    # operand evaluation closures ------------------------------------------

    def _ev(self, v: Value):
        """Closure evaluating ``v`` against a frame's value dict.

        Instr/Param operands compile to ``operator.itemgetter`` (a
        C-level dict access); use of an unevaluated value therefore
        surfaces as ``KeyError`` rather than the reference engine's
        ``InterpError`` — acceptable, since both only occur on IR the
        verifier rejects.
        """
        if isinstance(v, Const):
            c = v.value
            return lambda values: c
        if isinstance(v, (Instr, Param)):
            return itemgetter(v)
        if isinstance(v, GlobalRef):
            c = self.global_addrs[v.name]
            return lambda values: c
        if isinstance(v, FuncRef):
            c = self.func_addrs[v.name]
            return lambda values: c
        raise InterpError(f"cannot evaluate {v!r}")

    @staticmethod
    def _shv(v: Value):
        """Closure evaluating ``v``'s shadow against a frame's shadow dict."""
        if isinstance(v, (Instr, Param)):
            return lambda shadows: shadows.get(v)
        return lambda shadows: None

    # per-instruction compilers --------------------------------------------

    def _compile_body(self, i: Instr):
        """Compile a non-terminator into a ``closure(frame) -> None``."""
        sh = self.shadow
        if isinstance(i, BinOp):
            return self._compile_binop(i)
        if isinstance(i, ICmp):
            ea, eb = self._ev(i.lhs), self._ev(i.rhs)
            fn = _icmp_fn(i.pred)
            if sh is None:
                lhs, rhs = i.lhs, i.rhs
                if isinstance(lhs, (Instr, Param)) \
                        and isinstance(rhs, (Instr, Param)):
                    def run(frame):
                        v = frame.values
                        v[i] = fn(v[lhs], v[rhs])
                    return run

                def run(frame):
                    v = frame.values
                    v[i] = fn(ea(v), eb(v))
                return run
            sa, sb = self._shv(i.lhs), self._shv(i.rhs)

            def run(frame):
                v = frame.values
                r = fn(ea(v), eb(v))
                v[i] = r
                shadows = frame.shadows
                shadows[i] = sh.on_instr(frame.frame_id, i,
                                         [sa(shadows), sb(shadows)], r)
            return run
        if isinstance(i, Unary):
            ea = self._ev(i.src)
            fn = _unary_fn(i.opcode)
            if sh is None:
                def run(frame):
                    v = frame.values
                    v[i] = fn(ea(v))
                return run
            sa = self._shv(i.src)

            def run(frame):
                v = frame.values
                r = fn(ea(v))
                v[i] = r
                shadows = frame.shadows
                shadows[i] = sh.on_instr(frame.frame_id, i,
                                         [sa(shadows)], r)
            return run
        if isinstance(i, Load):
            ea = self._ev(i.addr)
            size = i.size
            read = self.mem.read
            if sh is None:
                addr_v = i.addr
                if isinstance(addr_v, (Instr, Param)):
                    def run(frame):
                        v = frame.values
                        v[i] = read(v[addr_v], size)
                    return run

                def run(frame):
                    v = frame.values
                    v[i] = read(ea(v), size)
                return run

            def run(frame):
                v = frame.values
                addr = ea(v)
                value = read(addr, size)
                v[i] = value
                frame.shadows[i] = sh.on_load(frame.frame_id, i,
                                              addr, value)
            return run
        if isinstance(i, Store):
            ea, ev = self._ev(i.addr), self._ev(i.value)
            size = i.size
            write = self.mem.write
            if sh is None:
                def run(frame):
                    v = frame.values
                    write(ea(v), size, ev(v))
                return run
            sv = self._shv(i.value)

            def run(frame):
                v = frame.values
                addr = ea(v)
                value = ev(v)
                write(addr, size, value)
                sh.on_store(frame.frame_id, i, addr, value,
                            sv(frame.shadows))
            return run
        if isinstance(i, Alloca):
            size = i.size
            mask = ~(max(i.align, 1) - 1)
            if sh is None:
                def run(frame):
                    sp = (frame.sp - size) & mask
                    frame.sp = sp
                    frame.values[i] = sp
                return run

            def run(frame):
                sp = (frame.sp - size) & mask
                frame.sp = sp
                frame.values[i] = sp
                frame.shadows[i] = sh.on_instr(frame.frame_id, i, [], sp)
            return run
        if isinstance(i, Call):
            return self._compile_call(i)
        if isinstance(i, CallInd):
            return self._compile_callind(i)
        if isinstance(i, CallExt):
            return self._compile_callext(i)
        if isinstance(i, Result):
            src, idx = i.call, i.index
            if sh is None:
                def run(frame):
                    v = frame.values
                    v[i] = v[src][idx]
                return run

            def run(frame):
                v = frame.values
                v[i] = v[src][idx]
                bundle = frame.shadows.get(src)
                frame.shadows[i] = (bundle[idx]
                                    if isinstance(bundle, list) else None)
            return run
        if isinstance(i, Intrinsic):
            evs = [self._ev(a) for a in i.ops]

            def run(frame):
                handler = self.intrinsic_handler
                if handler is not None:
                    v = frame.values
                    handler(frame, i, [ev(v) for ev in evs])
            return run
        if isinstance(i, Phi):
            def run(frame):
                raise InterpError("phi executed out of band")
            return run

        def run(frame):
            raise InterpError(f"unimplemented instruction {i!r}")
        return run

    def _compile_binop(self, i: BinOp):
        sh = self.shadow
        opc = i.opcode
        lhs, rhs = i.lhs, i.rhs
        if sh is None:
            # Address arithmetic dominates the mix; its common operand
            # shapes (value op value, value op constant) get fully
            # inlined bodies with direct dict access.
            lslot = isinstance(lhs, (Instr, Param))
            if opc == "add" and lslot:
                if isinstance(rhs, (Instr, Param)):
                    def run(frame):
                        v = frame.values
                        v[i] = (v[lhs] + v[rhs]) & MASK32
                    return run
                if isinstance(rhs, Const):
                    c = rhs.value

                    def run(frame):
                        v = frame.values
                        v[i] = (v[lhs] + c) & MASK32
                    return run
            if opc == "sub" and lslot:
                if isinstance(rhs, (Instr, Param)):
                    def run(frame):
                        v = frame.values
                        v[i] = (v[lhs] - v[rhs]) & MASK32
                    return run
                if isinstance(rhs, Const):
                    c = rhs.value

                    def run(frame):
                        v = frame.values
                        v[i] = (v[lhs] - c) & MASK32
                    return run
            fn = _binop_fn(opc, i)
            ea, eb = self._ev(lhs), self._ev(rhs)
            if lslot and isinstance(rhs, (Instr, Param)):
                def run(frame):
                    v = frame.values
                    v[i] = fn(v[lhs], v[rhs])
                return run

            def run(frame):
                v = frame.values
                v[i] = fn(ea(v), eb(v))
            return run
        fn = _binop_fn(opc, i)
        ea, eb = self._ev(lhs), self._ev(rhs)
        sa, sb = self._shv(lhs), self._shv(rhs)

        def run(frame):
            v = frame.values
            r = fn(ea(v), eb(v))
            v[i] = r
            shadows = frame.shadows
            shadows[i] = sh.on_instr(frame.frame_id, i,
                                     [sa(shadows), sb(shadows)], r)
        return run

    def _compile_call(self, i: Call):
        callee = self.module.functions.get(i.callee.name)
        if callee is None:
            def run(frame):
                raise InterpError("call to unknown function")
            return run
        evs = [self._ev(a) for a in i.args]
        nres = i.nresults
        call = self._call_compiled
        sh = self.shadow
        if sh is None:
            if nres == 1:
                def run(frame):
                    v = frame.values
                    rets, _ = call(callee, [ev(v) for ev in evs], None,
                                   (frame.sp - 32) & ~15)
                    v[i] = rets[0] if rets else 0
            else:
                def run(frame):
                    v = frame.values
                    rets, _ = call(callee, [ev(v) for ev in evs], None,
                                   (frame.sp - 32) & ~15)
                    v[i] = rets
            return run
        shvs = [self._shv(a) for a in i.args]

        def run(frame):
            v = frame.values
            shadows = frame.shadows
            rets, rsh = call(callee, [ev(v) for ev in evs],
                             [s(shadows) for s in shvs],
                             (frame.sp - 32) & ~15)
            if nres == 1:
                v[i] = rets[0] if rets else 0
                shadows[i] = rsh[0] if rsh else None
            else:
                v[i] = rets
                shadows[i] = list(rsh)
        return run

    def _compile_callind(self, i: CallInd):
        et = self._ev(i.target)
        evs = [self._ev(a) for a in i.args]
        nres = i.nresults
        call = self._call_compiled
        addr_to_func = self._addr_to_func
        functions = self.module.functions
        sh = self.shadow
        shvs = [self._shv(a) for a in i.args] if sh is not None else None

        def run(frame):
            v = frame.values
            target = et(v)
            name = addr_to_func.get(target)
            if name is None:
                raise InterpError(
                    f"indirect call to unknown address {target:#x}")
            callee = functions[name]
            if sh is not None:
                sh.on_indirect_call(callee)
            shadows = frame.shadows
            arg_shadows = [s(shadows) for s in shvs] \
                if sh is not None else None
            rets, rsh = call(callee, [ev(v) for ev in evs], arg_shadows,
                             (frame.sp - 32) & ~15)
            if nres == 1:
                v[i] = rets[0] if rets else 0
            else:
                v[i] = rets
            if sh is not None:
                if nres == 1:
                    shadows[i] = rsh[0] if rsh else None
                else:
                    shadows[i] = list(rsh)
        return run

    def _compile_callext(self, i: CallExt):
        libc_call = self.libc.call
        hook = self.callext_hook
        mem = self.mem
        sh = self.shadow
        name = i.ext_name
        if i.stack_args:
            esp = self._ev(i.sp)

            def run(frame):
                sp = esp(frame.values)
                if hook is not None:
                    hook(frame, i, sp, None)
                frame.values[i] = libc_call(name, StackArgs(mem, sp))
                if sh is not None:
                    frame.shadows[i] = None
            return run
        evs = [self._ev(a) for a in i.args]
        shvs = [self._shv(a) for a in i.args] if sh is not None else None

        def run(frame):
            v = frame.values
            values = [ev(v) for ev in evs]
            if sh is not None:
                sh.on_callext(frame.frame_id, i, values,
                              [s(frame.shadows) for s in shvs])
            if hook is not None:
                hook(frame, i, None, values)
            v[i] = libc_call(name, ListArgs(values))
            if sh is not None:
                frame.shadows[i] = None
        return run

    def _compile_term(self, i: Instr):
        """Compile a terminator into ``closure(frame) -> (kind, payload)``."""
        if isinstance(i, Br):
            out = ("br", i.target)
            return lambda frame: out
        if isinstance(i, CondBr):
            taken = ("br", i.if_true)
            fall = ("br", i.if_false)
            cond = i.cond
            if isinstance(cond, (Instr, Param)):
                return lambda frame: taken if frame.values[cond] else fall
            ec = self._ev(cond)
            return lambda frame: taken if ec(frame.values) else fall
        if isinstance(i, Switch):
            ev = self._ev(i.value)
            table = {}
            for case, target in i.cases:
                table.setdefault(case & MASK32, ("br", target))
            default = ("br", i.default)
            return lambda frame: table.get(ev(frame.values), default)
        if isinstance(i, Ret):
            evs = [self._ev(v) for v in i.ops]
            if self.shadow is None:
                def run(frame):
                    v = frame.values
                    return ("ret", ([ev(v) for ev in evs], []))
                return run
            shvs = [self._shv(v) for v in i.ops]

            def run(frame):
                v = frame.values
                shadows = frame.shadows
                return ("ret", ([ev(v) for ev in evs],
                                [s(shadows) for s in shvs]))
            return run
        if isinstance(i, Unreachable):
            fname = i.block.function.name \
                if i.block is not None and i.block.function else "?"
            note = i.note

            def run(frame):
                raise InterpError(
                    f"{fname}: reached untraced path ({note})")
            return run

        def run(frame):
            raise InterpError(f"unimplemented terminator {i!r}")
        return run

    # -- instruction execution ----------------------------------------------

    def _exec(self, frame: Frame, instr: Instr):
        """Execute one instruction.

        Returns None to continue, ("ret", (values, shadows)), or
        ("br", target_block).
        """
        if isinstance(instr, BinOp):
            a = self._eval(frame, instr.lhs)
            b = self._eval(frame, instr.rhs)
            result = self._binop(instr.opcode, a, b, frame.function.name)
            frame.values[instr] = result
            self._notify(frame, instr, [instr.lhs, instr.rhs], result)
            return None
        if isinstance(instr, ICmp):
            a = self._eval(frame, instr.lhs)
            b = self._eval(frame, instr.rhs)
            result = 1 if self._icmp(instr.pred, a, b) else 0
            frame.values[instr] = result
            self._notify(frame, instr, [instr.lhs, instr.rhs], result)
            return None
        if isinstance(instr, Unary):
            a = self._eval(frame, instr.src)
            result = self._unary(instr.opcode, a)
            frame.values[instr] = result
            self._notify(frame, instr, [instr.src], result)
            return None
        if isinstance(instr, Load):
            addr = self._eval(frame, instr.addr)
            value = self.mem.read(addr, instr.size)
            frame.values[instr] = value
            if self.shadow is not None:
                frame.shadows[instr] = self.shadow.on_load(
                    frame.frame_id, instr, addr, value)
            return None
        if isinstance(instr, Store):
            addr = self._eval(frame, instr.addr)
            value = self._eval(frame, instr.value)
            self.mem.write(addr, instr.size, value)
            if self.shadow is not None:
                self.shadow.on_store(frame.frame_id, instr, addr, value,
                                     self._shadow_of(frame, instr.value))
            return None
        if isinstance(instr, Alloca):
            align = max(instr.align, 1)
            frame.sp = (frame.sp - instr.size) & ~(align - 1)
            frame.values[instr] = frame.sp
            self._notify(frame, instr, [], frame.sp)
            return None
        if isinstance(instr, Phi):
            raise InterpError("phi executed out of band")
        if isinstance(instr, Call):
            return self._do_call(frame, instr,
                                 self.module.functions.get(
                                     instr.callee.name),
                                 instr.args)
        if isinstance(instr, CallInd):
            target = self._eval(frame, instr.target)
            name = self._addr_to_func.get(target)
            if name is None:
                raise InterpError(
                    f"indirect call to unknown address {target:#x}")
            return self._do_call(frame, instr, self.module.functions[name],
                                 instr.args)
        if isinstance(instr, CallExt):
            return self._do_callext(frame, instr)
        if isinstance(instr, Result):
            bundle = frame.values[instr.call]
            frame.values[instr] = bundle[instr.index]  # type: ignore
            if self.shadow is not None:
                shadow_bundle = frame.shadows.get(instr.call)
                frame.shadows[instr] = (
                    shadow_bundle[instr.index]
                    if isinstance(shadow_bundle, list) else None)
            return None
        if isinstance(instr, Intrinsic):
            if self.intrinsic_handler is not None:
                args = [self._eval(frame, a) for a in instr.ops]
                self.intrinsic_handler(frame, instr, args)
            return None
        if isinstance(instr, Br):
            return ("br", instr.target)
        if isinstance(instr, CondBr):
            cond = self._eval(frame, instr.cond)
            return ("br", instr.if_true if cond else instr.if_false)
        if isinstance(instr, Switch):
            value = self._eval(frame, instr.value)
            for case, target in instr.cases:
                if (case & MASK32) == value:
                    return ("br", target)
            return ("br", instr.default)
        if isinstance(instr, Ret):
            values = [self._eval(frame, v) for v in instr.ops]
            shadows = [self._shadow_of(frame, v) for v in instr.ops] \
                if self.shadow is not None else []
            return ("ret", (values, shadows))
        if isinstance(instr, Unreachable):
            raise InterpError(
                f"{frame.function.name}: reached untraced path "
                f"({instr.note})")
        raise InterpError(f"unimplemented instruction {instr!r}")

    def _notify(self, frame: Frame, instr: Instr, operands: list[Value],
                result: int | None) -> None:
        if self.shadow is not None:
            op_shadows = [self._shadow_of(frame, op) for op in operands]
            frame.shadows[instr] = self.shadow.on_instr(
                frame.frame_id, instr, op_shadows, result)

    def _do_call(self, frame: Frame, instr, callee: Function | None,
                 arg_values: list[Value]):
        if callee is None:
            raise InterpError("call to unknown function")
        if self.shadow is not None and isinstance(instr, CallInd):
            self.shadow.on_indirect_call(callee)
        args = [self._eval(frame, a) for a in arg_values]
        shadows = [self._shadow_of(frame, a) for a in arg_values] \
            if self.shadow is not None else None
        # The callee's allocas live below this frame's cursor (with a
        # small red zone for alignment).
        rets, ret_shadows = self._call(callee, args, shadows,
                                       (frame.sp - 32) & ~15)
        if instr.nresults == 1:
            frame.values[instr] = rets[0] if rets else 0
        else:
            frame.values[instr] = rets
        if self.shadow is not None:
            if instr.nresults == 1:
                frame.shadows[instr] = ret_shadows[0] if ret_shadows \
                    else None
            else:
                frame.shadows[instr] = list(ret_shadows)
        return None

    def _do_callext(self, frame: Frame, instr: CallExt):
        if instr.stack_args:
            sp = self._eval(frame, instr.sp)
            if self.callext_hook is not None:
                self.callext_hook(frame, instr, sp, None)
            result = self.libc.call(instr.ext_name,
                                    StackArgs(self.mem, sp))
        else:
            values = [self._eval(frame, a) for a in instr.args]
            if self.shadow is not None:
                self.shadow.on_callext(
                    frame.frame_id, instr, values,
                    [self._shadow_of(frame, a) for a in instr.args])
            if self.callext_hook is not None:
                self.callext_hook(frame, instr, None, values)
            result = self.libc.call(instr.ext_name, ListArgs(values))
        frame.values[instr] = result
        if self.shadow is not None:
            frame.shadows[instr] = None
        return None

    # -- scalar ops ----------------------------------------------------------

    def _binop(self, op: str, a: int, b: int, where: str) -> int:
        if op == "add":
            return (a + b) & MASK32
        if op == "sub":
            return (a - b) & MASK32
        if op == "mul":
            return (_signed(a) * _signed(b)) & MASK32
        if op == "div":
            if _signed(b) == 0:
                raise InterpError(f"{where}: division by zero")
            return int(_signed(a) / _signed(b)) & MASK32
        if op == "rem":
            sb = _signed(b)
            if sb == 0:
                raise InterpError(f"{where}: remainder by zero")
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
        raise InterpError(f"bad binop {op}")

    @staticmethod
    def _icmp(pred: str, a: int, b: int) -> bool:
        if pred == "eq":
            return a == b
        if pred == "ne":
            return a != b
        sa, sb = _signed(a), _signed(b)
        if pred == "slt":
            return sa < sb
        if pred == "sle":
            return sa <= sb
        if pred == "sgt":
            return sa > sb
        if pred == "sge":
            return sa >= sb
        if pred == "ult":
            return a < b
        if pred == "ule":
            return a <= b
        if pred == "ugt":
            return a > b
        if pred == "uge":
            return a >= b
        raise InterpError(f"bad icmp predicate {pred}")

    @staticmethod
    def _unary(op: str, a: int) -> int:
        if op == "neg":
            return (-a) & MASK32
        if op == "not":
            return (~a) & MASK32
        if op == "sext8":
            v = a & 0xFF
            return (v | 0xFFFFFF00) if v & 0x80 else v
        if op == "sext16":
            v = a & 0xFFFF
            return (v | 0xFFFF0000) if v & 0x8000 else v
        if op == "zext8":
            return a & 0xFF
        if op == "zext16":
            return a & 0xFFFF
        if op == "trunc8":
            return a & 0xFF
        if op == "trunc16":
            return a & 0xFFFF
        raise InterpError(f"bad unary op {op}")


def run_module(module: Module,
               input_items: list[int | bytes] | None = None,
               **kwargs) -> InterpResult:
    """Convenience wrapper mirroring :func:`repro.emu.run_binary`."""
    return Interpreter(module, input_items, **kwargs).run()
