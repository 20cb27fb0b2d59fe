"""IR interpreter: executes a module against the shared memory model.

This is the "Execute" box of the paper's Figure 4: every refinement runs
the *lifted IR itself* (instrumented with probes) on the traced inputs.
The interpreter therefore supports two extension points:

* a **probe compiler** — turns each ``wyt.*`` probe inserted by
  :mod:`repro.core.instrument` into a closure, once per probe, when the
  probe's block compiles (the analogue of linking the instrumentation
  runtime into the lifted program, which fixes each probe's target and
  constants before the program runs); and
* a **shadow plugin** — sees every use of a shadowed value, used by the
  register save/argument classification of refinement 1 (paper §4.1),
  where each register carries a symbolic value.  Only parameters, phis,
  loads, the results of calls to IR functions and their ``Result``
  extracts carry a shadow; arithmetic, compare, alloca and external-call
  results never do, so an instruction whose operands are none of those
  runs without calling the plugin.

It is also used to validate lifted IR functionally before lowering.

One instance serves one replay stage: the stage builds it once and
calls :meth:`Interpreter.reset` before each traced input, which clears
the per-run state (memory, libc, step and frame counters) and rewrites
the global initializers, so every run of the stage starts as a fresh
process would while sharing the compiled blocks below.  The module must
not change between the runs of one instance.  A stage holds its
interpreter in a ``with`` block, whose exit frees the compiled blocks
and memory pages at once instead of at the next cyclic collection.

Execution engine: each basic block is compiled, on first entry, into a
list of argument-specialized closures (one per instruction), cached per
interpreter instance and keyed on the owning function's mutation
``version``, so an executed instruction does no ``isinstance`` dispatch
and no per-operand classification.
"""

from __future__ import annotations

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

#: The only values that can carry a shadow (see the module docstring).
_SHADOW_CARRIERS = (Param, Phi, Load, Call, CallInd, Result)


def _signed(v: int) -> int:
    v &= MASK32
    return v - 0x100000000 if v >= 0x80000000 else v


def _binop_fn(op: str, where):
    """Scalar function for a binop opcode; ``where`` names the owning
    instruction for division-error messages."""
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


def _no_probe(frame) -> None:
    """A probe run without a probe compiler: a no-op (still a step)."""
    return None


class ShadowPlugin(Protocol):
    """Observer interface for shadow-value analyses (refinement 1).

    ``call_enter`` may return replacement shadows for the parameters
    (e.g. fresh register symbols); ``call_exit`` may return translated
    shadows for the returned values, which the interpreter attaches to
    the call's results in the caller frame.  ``on_load`` returns the
    loaded value's shadow.  ``on_use`` is called once per operand of an
    executed binop, compare or unary whose shadow is not None, after the
    instruction ran; its result carries no shadow.
    """

    def call_enter(self, func: Function, frame_id: int, args: list[int],
                   arg_shadows: list) -> list | None: ...

    def call_exit(self, func: Function, frame_id: int,
                  ret_values: list[int],
                  ret_shadows: list) -> list | None: ...

    def on_use(self, frame_id: int, instr: Instr, shadow) -> None: ...

    def on_store(self, frame_id: int, instr: Instr, addr: int,
                 value: int, value_shadow) -> None: ...

    def on_load(self, frame_id: int, instr: Instr, addr: int,
                value: int): ...

    def on_callext(self, frame_id: int, instr: Instr,
                   arg_values: list[int], arg_shadows: list) -> None: ...

    def on_indirect_call(self, callee: Function) -> None: ...


class ProbeCompiler(Protocol):
    """Compiler for ``wyt.*`` probes (the tracing runtime).

    ``compile`` is called once per probe, when its block compiles;
    ``evs`` evaluate the probe's operands against a frame's values, one
    per operand.  The returned closure runs on every execution of the
    probe, with the executing :class:`Frame`.
    """

    def compile(self, instr: Intrinsic,
                evs: list) -> Callable[["Frame"], None]: ...


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
                 probes: ProbeCompiler | None = None,
                 shadow: ShadowPlugin | None = None,
                 max_steps: int = 200_000_000):
        self.module = module
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
        #: Fixed for the interpreter's life: its closures are compiled
        #: into the blocks.  Without it probes are no-ops (still steps).
        self.probes = probes
        self.shadow = shadow
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

    def call_function(self, func: Function,
                      args: list[int],
                      arg_shadows: list | None = None) -> list[int]:
        values, _shadows = self._call(func, args, arg_shadows,
                                      STACK_TOP)
        return values

    # -- execution ----------------------------------------------------------

    def _call(self, func: Function, args: list[int],
              arg_shadows: list | None,
              sp: int) -> tuple[list[int], list]:
        """Run one activation through per-block compiled closure lists."""
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
            # The body still runs (and counts) before the fall-off is
            # reported.
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
        surfaces as ``KeyError``, which only IR the verifier rejects can
        cause.
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
            return self._observed(i, self._compile_binop(i))
        if isinstance(i, ICmp):
            fn = _icmp_fn(i.pred)
            lhs, rhs = i.lhs, i.rhs
            if isinstance(lhs, (Instr, Param)) \
                    and isinstance(rhs, (Instr, Param)):
                def run(frame):
                    v = frame.values
                    v[i] = fn(v[lhs], v[rhs])
                return self._observed(i, run)
            ea, eb = self._ev(lhs), self._ev(rhs)

            def run(frame):
                v = frame.values
                v[i] = fn(ea(v), eb(v))
            return self._observed(i, run)
        if isinstance(i, Unary):
            ea = self._ev(i.src)
            fn = _unary_fn(i.opcode)

            def run(frame):
                v = frame.values
                v[i] = fn(ea(v))
            return self._observed(i, run)
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

            def run(frame):
                sp = (frame.sp - size) & mask
                frame.sp = sp
                frame.values[i] = sp
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
            if self.probes is None:
                return _no_probe
            return self.probes.compile(i, [self._ev(a) for a in i.ops])
        if isinstance(i, Phi):
            def run(frame):
                raise InterpError("phi executed out of band")
            return run

        def run(frame):
            raise InterpError(f"unimplemented instruction {i!r}")
        return run

    def _observed(self, i: Instr, run):
        """``run`` followed by the shadow plugin's ``on_use`` for each
        operand of ``i`` whose shadow is not None; ``run`` itself when
        there is no plugin or no operand of ``i`` can carry a shadow."""
        sh = self.shadow
        carriers = tuple(op for op in i.ops
                         if isinstance(op, _SHADOW_CARRIERS))
        if sh is None or not carriers:
            return run
        on_use = sh.on_use

        def observed(frame):
            run(frame)
            shadows = frame.shadows
            for op in carriers:
                shadow = shadows.get(op)
                if shadow is not None:
                    on_use(frame.frame_id, i, shadow)
        return observed

    def _compile_binop(self, i: BinOp):
        opc = i.opcode
        lhs, rhs = i.lhs, i.rhs
        # Address arithmetic dominates the mix; its common operand
        # shapes (value op value, value op constant) get fully inlined
        # bodies with direct dict access.
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
        if lslot and isinstance(rhs, (Instr, Param)):
            def run(frame):
                v = frame.values
                v[i] = fn(v[lhs], v[rhs])
            return run
        ea, eb = self._ev(lhs), self._ev(rhs)

        def run(frame):
            v = frame.values
            v[i] = fn(ea(v), eb(v))
        return run

    def _compile_call(self, i: Call):
        callee = self.module.functions.get(i.callee.name)
        if callee is None:
            def run(frame):
                raise InterpError("call to unknown function")
            return run
        evs = [self._ev(a) for a in i.args]
        nres = i.nresults
        call = self._call
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
        call = self._call
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
        mem = self.mem
        sh = self.shadow
        name = i.ext_name
        if i.stack_args:
            esp = self._ev(i.sp)

            def run(frame):
                sp = esp(frame.values)
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


def run_module(module: Module,
               input_items: list[int | bytes] | None = None,
               **kwargs) -> InterpResult:
    """Convenience wrapper mirroring :func:`repro.emu.run_binary`."""
    return Interpreter(module, input_items, **kwargs).run()
