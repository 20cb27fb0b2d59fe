"""IR interpreter: executes a module against the shared memory model.

This is the "Execute" box of the paper's Figure 4: every refinement runs
the *lifted IR itself* (instrumented with probes) on the traced inputs.
The interpreter therefore supports two extension points:

* a **probe compiler** — turns each ``wyt.*`` probe inserted by
  :mod:`repro.core.instrument` into a closure, once per probe, when the
  probe's block compiles (the analogue of linking the instrumentation
  runtime into the lifted program, which fixes each probe's target and
  constants before the program runs); and
* a **shadow plugin** — sees the uses of shadowed values, used by the
  register save/argument classification of refinement 1 (paper §4.1),
  where each register carries a symbolic value.  Only parameters, loads,
  the results of calls to IR functions, their ``Result`` extracts and
  the phis with such an incoming value carry a shadow; arithmetic,
  compare, alloca and external-call results never do.  The binops,
  compares and unaries of each straight-line segment of a block report
  their shadowed operands together, once per segment (see
  :class:`ShadowPlugin`), so an instruction runs as its plain closure.
  Memory traffic reaches the plugin through hooks it hands out once per
  load or store, when the block compiles, so a load or store it has no
  use for costs no Python-level call.

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
list of argument-specialized closures (one per instruction), cached in
the owning function's frame layout, so an executed instruction does no
``isinstance`` dispatch and no per-operand classification, and a block
transfer finds the next block's code with one ``dict.get``.  Compiling
is cheap too, since most blocks of a short trace run only a few times:
the compiler picks each instruction's closure factory by its exact
class from a table built at import (``_BODY_COMPILERS``,
``_TERM_COMPILERS``; nothing subclasses the IR's value classes), and an
operand's kind (a slot, or a constant, global or function) is one
lookup in a frozenset of classes.  An instruction of a class no table
knows compiles to a closure that raises ``unimplemented instruction``
when it runs.  A 4-byte
load from a value's address, and a 4-byte store of a value to a
value's address in a run without a plugin or to any address in a
shadow run (carrier or not: a value that carries no shadow reads its
None shadow slot, so every such store runs one closure), take the
memory's word path inline (see :mod:`repro.emu.memory`) and call
``Memory.read``/``write`` only off it; ``add``, ``sub`` and ``mul``
with a constant operand are one inline expression.

Frames are slot lists.  The interpreter lays each function out once per
mutation ``version``: its parameters, then each instruction that has a
value, get slot numbers, and a frame's values (and, in a shadow run, its
shadows) are a list indexed by them, so a closure reads an operand by
list index.  A frame's ``probe`` slot holds the probe compiler's record
of the activation (the tracing runtime's pointer infos); the interpreter
only starts it at None.  A slot nothing has written holds :data:`UNSET`,
whose truth test, comparison, hashing and arithmetic raise
:class:`InterpError`: a use whose definition did not run fails the run.
Slot numbers are private to the interpreter; a probe reads a frame's
values only through the operand evaluators (``evs``) it is compiled
with.

A shadow run (one with a plugin; only the §4.1 observation has one)
computes only the values an effect reads.  Per function it marks live
the roots — every instruction that is not a binop, compare, unary, phi
or ``Result`` extract, plus ``div`` and ``rem``, which can raise — and
every instruction their operands reach; the one walk over the function
that numbers its slots also finds the roots and the shadow carriers
(see :class:`_Layout`).  A dead binop, compare or unary
compiles to nothing, and a live one to its plain closure: the operand
uses of both are reported by their segment's closure, which runs at the
segment's end, before the call or terminator that ends it.  A dead phi
or ``Result`` keeps only its shadow.  Runs without a plugin (bounds and
validation) skip the liveness pass: their modules come out of dead-code
elimination.  Steps count every instruction of an entered block,
computed or not, so ``steps`` and the step budget are the same either
way.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Protocol, Sequence

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
from ..emu.memory import (
    PAGE_MASK,
    PAGE_SHIFT,
    WORD_END,
    Memory,
    pack_word,
    unpack_word,
)
from ..obs import count as _obs_count, recorder as _obs_recorder

MASK32 = 0xFFFFFFFF

#: Where unpinned globals are placed by the interpreter and the lowerer.
GLOBAL_REGION_BASE = 0x0D000000

#: Pseudo-addresses assigned to address-taken functions with no original
#: binary entry (cc-compiled modules).
FUNC_ADDR_BASE = 0x0E000000

# The block compiler chooses by an instruction's exact class (nothing
# subclasses the IR's value classes): one lookup in the sets below or in
# the compiler tables after :class:`Interpreter`.

#: Every instruction class.
_INSTRS = frozenset((BinOp, Unary, ICmp, Load, Store, Alloca, Call,
                     CallInd, CallExt, Result, Phi, Intrinsic, Br, CondBr,
                     Switch, Ret, Unreachable))

#: Operand classes that live in a frame slot; any other operand is a
#: constant, a global or a function.
_SLOTTED = _INSTRS | {Param}

#: Instructions whose shadow the plugin supplies (with parameters; a phi
#: carries one when an incoming value can, see :class:`_Layout`).
_SHADOW_SOURCES = frozenset((Load, Call, CallInd, Result))

#: Instructions a shadow run computes only when a live one reads them.
_PURE = frozenset((BinOp, ICmp, Unary, Phi, Result))

#: Binops a shadow run computes although nothing reads them: they can
#: raise.
_TRAPPING = frozenset(("div", "rem"))

#: Instructions whose shadowed operands a shadow run reports as uses.
_REPORTED = frozenset((BinOp, ICmp, Unary))

#: Instructions that end a straight-line segment (the terminator does
#: too): the callee may end the run, so the segment reports first.
_CALLS = frozenset((Call, CallInd, CallExt))


class _Unset:
    """The value of a frame slot whose definition has not run."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unset>"

    def _fail(self, *_args):
        raise InterpError("use of a value whose definition did not run")


for _name in ("__bool__", "__index__", "__int__", "__hash__", "__eq__",
              "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
              "__getitem__", "__neg__", "__invert__", "__add__",
              "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__and__", "__rand__", "__or__", "__ror__", "__xor__",
              "__rxor__", "__lshift__", "__rlshift__", "__rshift__",
              "__rrshift__", "__truediv__", "__rtruediv__",
              "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__"):
    setattr(_Unset, _name, _Unset._fail)
del _name

#: What a frame slot holds until its definition runs.
UNSET = _Unset()


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
    # The low 32 bits of a product do not depend on the operands' sign.
    "mul": lambda a, b: (a * b) & MASK32,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
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


#: Binops whose operands commute: a constant on the left is moved right.
_COMMUTATIVE = frozenset(("add", "mul", "and", "or", "xor"))


def _binop_const(op: str, a: int, c: int, d: int, where):
    """Closure computing ``values[a] op c`` into slot ``d``: inline for
    the address arithmetic (``add``, ``sub``, ``mul``), one call of the
    opcode's scalar function otherwise."""
    if op == "add":
        def run(frame):
            v = frame.values
            v[d] = (v[a] + c) & MASK32
    elif op == "sub":
        def run(frame):
            v = frame.values
            v[d] = (v[a] - c) & MASK32
    elif op == "mul":
        def run(frame):
            v = frame.values
            v[d] = (v[a] * c) & MASK32
    else:
        fn = _binop_fn(op, where)

        def run(frame):
            v = frame.values
            v[d] = fn(v[a], c)
    return run


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


def _no_shadow(shadows) -> None:
    """The shadow of a constant, global or function operand: none."""
    return None


class _Layout:
    """One function's frame layout at one mutation ``version``, and the
    blocks compiled in it.

    ``slots`` numbers the parameters, then every instruction with a
    value; a frame's value list is its arguments followed by ``tail``
    (and its shadow list, in a shadow run, their shadows followed by
    ``shadow_tail``).  In a shadow run ``live`` holds the instructions
    the run computes and ``carriers`` the values that can carry a
    shadow; both are None otherwise.  Each block's phis get consecutive
    slots, live ones first and shadow carriers in the middle, so the
    values and the shadows a block entry stages each fill one range.
    ``code`` maps each block compiled so far to its code; a mutation
    bumps the version, which replaces the layout and drops its code.

    A shadow run's layout comes from one walk over the function, which
    numbers the slots and collects the roots of ``live`` (every
    instruction that is not a binop, compare, unary, phi or ``Result``
    extract, plus ``div`` and ``rem``, which can raise), the shadow
    sources (parameters, loads, calls to IR functions and their
    ``Result`` extracts) and each phi's incoming values.  ``live`` is
    then the roots and every instruction their operands reach, and
    ``carriers`` the sources and each phi with a carrier incoming; no
    other value's shadow slot is ever written, so it stays None.  Each
    block's phis are renumbered within their range once both sets are
    known.
    """

    __slots__ = ("version", "slots", "tail", "shadow_tail", "live",
                 "carriers", "code")

    def __init__(self, func: Function, shadow_run: bool):
        self.version = func.version
        self.code: dict = {}
        params = func.params
        slots: dict[Value, int] = {p: n for n, p in enumerate(params)}
        n = len(params)
        if not shadow_run:
            for block in func.blocks:
                for instr in block.instrs:
                    if instr.has_result:
                        slots[instr] = n
                        n += 1
            self.live = self.carriers = self.shadow_tail = None
            self.slots = slots
            self.tail = [UNSET] * (n - len(params))
            return
        work: list[Instr] = []
        carriers: set[Value] = set(params)
        phi_users: dict[Value, list[Phi]] = {}
        # Per block with phis: its first phi slot and its phis.
        phi_runs: list[tuple[int, list[Phi]]] = []
        for block in func.blocks:
            instrs = block.instrs
            nphis = 0
            for instr in instrs:
                if instr.__class__ is not Phi:
                    break
                nphis += 1
            if nphis:
                # Numbered in block order below, renumbered at the end.
                phi_runs.append((n, instrs[:nphis]))
            for instr in instrs:
                cls = instr.__class__
                if cls in _SHADOW_SOURCES:
                    carriers.add(instr)
                elif cls is Phi:
                    for op in instr.ops:
                        if op.__class__ in _SLOTTED:
                            phi_users.setdefault(op, []).append(instr)
                if cls not in _PURE or cls is BinOp \
                        and instr.opcode in _TRAPPING:
                    work.append(instr)
                if instr.has_result:
                    slots[instr] = n
                    n += 1
        live = set(work)
        while work:
            for op in work.pop().ops:
                if op.__class__ in _INSTRS and op not in live:
                    live.add(op)
                    work.append(op)
        work = list(carriers)
        while work:
            for phi in phi_users.get(work.pop(), ()):
                if phi not in carriers:
                    carriers.add(phi)
                    work.append(phi)
        for first, phis in phi_runs:
            phis.sort(key=lambda p: (1 if p in carriers else 0)
                      if p in live else (2 if p in carriers else 3))
            for k, phi in enumerate(phis, first):
                slots[phi] = k
        self.live = live
        self.carriers = carriers
        self.slots = slots
        nvalues = n - len(params)
        self.tail = [UNSET] * nvalues
        self.shadow_tail = [None] * nvalues


class ShadowPlugin(Protocol):
    """Observer interface for shadow-value analyses (refinement 1).

    ``call_enter`` may return replacement shadows for the parameters
    (e.g. fresh register symbols); ``call_exit`` may return translated
    shadows for the returned values, which the interpreter attaches to
    the call's results in the caller frame.

    ``on_use(frame_id, shadow)`` reports operand uses one straight-line
    segment at a time.  A block's segments end before each call,
    indirect call and external call and before the terminator; at the
    end of each executed segment the interpreter calls ``on_use`` once
    per distinct operand slot the segment's binops, compares and unaries
    read whose shadow is not None, in order of first use, whether or
    not the run computes those instructions (see the module docstring).
    A use is reported before any callee of a later instruction runs, so
    one before a call that ends the run (``exit``) is reported and one
    after it is not; a slot read twice in one segment is reported once,
    and once more by each later segment that reads it.  The results of
    those instructions carry no shadow.

    Memory is observed through hooks the plugin hands out once per load
    or store, when its block compiles, so an event the plugin has no
    use for costs no Python-level call:

    * ``load_hook(instr)`` returns ``shadow_of(addr)``, which gives the
      shadow of the value each run of ``instr`` loads from ``addr`` (a
      bound ``dict.get`` serves), or None when its values never carry
      one;
    * ``store_hooks(instr)`` returns ``(on_shadow, on_plain)``.  After
      each run of ``instr`` the interpreter calls ``on_shadow(frame_id,
      addr, shadow)`` when the stored value carries a shadow, and
      ``on_plain(addr, None)`` when it carries none (the second
      argument lets a bound ``dict.pop`` serve).  Both are required.
    """

    def call_enter(self, func: Function, frame_id: int, args: list[int],
                   arg_shadows: list) -> list | None: ...

    def call_exit(self, func: Function, frame_id: int,
                  ret_values: list[int],
                  ret_shadows: list) -> list | None: ...

    def on_use(self, frame_id: int, shadow) -> None: ...

    def load_hook(self, instr: Load) -> Callable[[int], object] | None: ...

    def store_hooks(self, instr: Store) -> tuple[
            Callable[[int, int, object], None],
            Callable[[int, None], object]]: ...

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
    """One activation of an IR function.

    ``values`` (and ``shadows`` in a shadow run, else None) are slot
    lists in the function's layout; read them only through the operand
    evaluators the interpreter hands a probe compiler.  ``probe`` is
    the probe compiler's per-activation record: None until a compiled
    probe sets it, and never read by the interpreter.
    """

    __slots__ = ("function", "frame_id", "values", "shadows", "sp",
                 "probe")

    def __init__(self, function: Function, frame_id: int, sp: int,
                 values: list, shadows: list | None):
        self.function = function
        self.frame_id = frame_id
        self.values = values
        self.shadows = shadows
        self.sp = sp  # native stack cursor for allocas
        self.probe = None


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
        #: Per-function frame layout, rebuilt when the function mutates;
        #: it holds the function's compiled blocks.
        self._layouts: dict[Function, _Layout] = {}
        #: Observability: per-function execution counts land in this
        #: plain dict (the shared profile's counts) when a recorder is
        #: active; None keeps the call path branchless beyond one check.
        rec = _obs_recorder()
        self._func_counts: dict | None = \
            rec.registry.profile("ir.func_calls").counts \
            if rec is not None else None
        # Compiled closures capture ``mem`` and ``libc``: reset them in
        # place, never replace them.
        self.mem = Memory()
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
        self._layouts.clear()
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

    def _call(self, func: Function, args: Sequence[int],
              arg_shadows: list | None,
              sp: int) -> tuple[list[int], list]:
        """Run one activation through per-block compiled closure lists."""
        nparams = len(func.params)
        if len(args) != nparams:
            raise InterpError(
                f"{func.name}: called with {len(args)} args, wants "
                f"{nparams}")
        counts = self._func_counts
        if counts is not None:
            counts[func.name] = counts.get(func.name, 0) + 1
        lay = self._layouts.get(func)
        if lay is None or lay.version != func.version:
            if lay is not None and lay.code:
                _obs_count("ir.code_cache.invalidations", len(lay.code))
            lay = self._layouts[func] = _Layout(func, self.shadow is not None)
        values = [a & MASK32 for a in args]
        values += lay.tail
        frame_id = self._next_frame_id
        self._next_frame_id += 1
        shadow = self.shadow
        shadows = None
        if shadow is not None:
            shadows = list(arg_shadows or [None] * nparams)
            replaced = shadow.call_enter(func, frame_id, list(args),
                                         shadows)
            if replaced is not None:
                shadows = list(replaced)
            del shadows[nparams:]
            shadows += [None] * (nparams - len(shadows))
            shadows += lay.shadow_tail
        frame = Frame(func, frame_id, sp, values, shadows)

        code = lay.code
        max_steps = self.max_steps
        block = func.entry
        prev: object = None
        while True:
            compiled = code.get(block)
            if compiled is None:
                compiled = self._code_for(block, lay)
            nsteps, phi_plan, body, term = compiled
            if phi_plan is not None:
                if prev is None:
                    raise InterpError(
                        f"{func.name}: phi in entry block {block.name}")
                try:
                    stage = phi_plan[id(prev)]
                except KeyError:
                    raise KeyError("phi has no incoming for "
                                   f"block {prev.name}") from None
                if stage is not None:
                    stage(values, shadows)
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
                        func, frame_id, rvalues, rshadows)
                    if translated is not None:
                        rshadows = translated
                return rvalues, rshadows

    def _code_for(self, block, lay: _Layout):
        """Compile ``block`` in layout ``lay`` (its first entry since the
        layout was built) and keep the code in the layout."""
        _obs_count("ir.code_cache.compiles")
        code = lay.code[block] = self._compile_block(block, lay)
        return code

    def _compile_block(self, block, lay: _Layout):
        phis = block.phis()
        nphis = len(phis)
        phi_plan = self._phi_plan(phis, lay) if nphis else None
        body = []
        term = None
        executed = 0
        slots, live, carriers = lay.slots, lay.live, lay.carriers
        # The carrier slots the current segment's reported instructions
        # read, in order of first use (a shadow run only).
        uses: dict[int, None] = {}
        for instr in block.instrs[nphis:]:
            executed += 1
            cls = instr.__class__
            if instr.is_terminator:
                term = _TERM_COMPILERS.get(cls, _unknown_term)(
                    self, instr, lay)
                break
            if carriers is not None:
                if cls in _REPORTED:
                    for op in instr.ops:
                        if op.__class__ in _SLOTTED and op in carriers:
                            uses[slots[op]] = None
                elif cls in _CALLS and uses:
                    body.append(self._report_uses(uses))
                    uses = {}
                if instr not in live and cls is not Phi:
                    # Dead: a ``Result`` keeps its shadow; a binop,
                    # compare or unary keeps nothing (its segment
                    # reports its uses).
                    if cls is Result:
                        body.append(self._result_shadow(instr, lay))
                    continue
            body.append(_BODY_COMPILERS.get(cls, _unknown_instr)(
                self, instr, lay))
        if uses:
            body.append(self._report_uses(uses))
        if term is None:
            # The body still runs (and counts) before the fall-off is
            # reported.
            fname = block.function.name if block.function else "?"
            bname = block.name

            def term(frame):
                raise InterpError(f"{fname}/{bname}: fell off block end")
        return (executed, phi_plan, tuple(body), term)

    def _report_uses(self, uses: dict[int, None]):
        """Closure reporting one segment's uses: ``on_use`` for each slot
        of ``uses`` whose shadow is not None."""
        on_use = self.shadow.on_use
        if len(uses) == 1:
            (c,) = uses

            def report(frame):
                shadow = frame.shadows[c]
                if shadow is not None:
                    on_use(frame.frame_id, shadow)
            return report
        get = itemgetter(*uses)

        def report(frame):
            frame_id = frame.frame_id
            for shadow in get(frame.shadows):
                if shadow is not None:
                    on_use(frame_id, shadow)
        return report

    def _phi_plan(self, phis: list[Phi], lay: _Layout) -> dict:
        """Per predecessor (by id), the ``stage(values, shadows)`` closure
        that assigns the block's phis on entry from it, or None when no
        phi computes a value or reports a shadow.  A predecessor some phi
        has no incoming for is absent.  Each closure reads every incoming
        value before it writes a phi (phis execute in parallel; swap
        patterns break otherwise)."""
        slots, live, carriers = lay.slots, lay.live, lay.carriers
        phis = sorted(phis, key=slots.__getitem__)
        computed = [p for p in phis if live is None or p in live]
        shadowed = [p for p in phis
                    if carriers is not None and p in carriers]
        incoming = {p: {id(b): v for b, v in p.incomings()} for p in phis}
        preds = set(incoming[phis[0]])
        for p in phis[1:]:
            preds &= incoming[p].keys()
        return {pid: self._phi_stage(
                    [incoming[p][pid] for p in computed],
                    slots[computed[0]] if computed else 0,
                    [incoming[p][pid] for p in shadowed],
                    slots[shadowed[0]] if shadowed else 0, lay)
                for pid in preds}

    def _phi_stage(self, srcs: list[Value], first: int,
                   shadow_srcs: list[Value], shadow_first: int,
                   lay: _Layout):
        """Closure writing ``srcs``' values to the slots from ``first`` on
        and ``shadow_srcs``' shadows to the shadow slots from
        ``shadow_first`` on; None when both lists are empty."""
        end = first + len(srcs)
        shadow_end = shadow_first + len(shadow_srcs)
        get = self._gather(srcs, lay)
        get_shadows = self._gather(shadow_srcs, lay, shadows=True)
        if not shadow_srcs:
            if not srcs:
                return None

            def stage(values, shadows):
                values[first:end] = get(values)
        elif not srcs:
            def stage(values, shadows):
                shadows[shadow_first:shadow_end] = get_shadows(shadows)
        else:
            def stage(values, shadows):
                values[first:end] = get(values)
                shadows[shadow_first:shadow_end] = get_shadows(shadows)
        return stage

    # operand evaluation closures ------------------------------------------

    def _const(self, v: Value) -> int:
        """The value of a constant, global or function operand."""
        cls = v.__class__
        if cls is Const:
            return v.value
        if cls is GlobalRef:
            return self.global_addrs[v.name]
        if cls is FuncRef:
            return self.func_addrs[v.name]
        raise InterpError(f"cannot evaluate {v!r}")

    def _ev(self, v: Value, lay: _Layout):
        """Closure evaluating ``v`` against a frame's value list.

        Instr/Param operands compile to ``operator.itemgetter`` of their
        slot (a C-level list index).  A slot whose definition has not run
        yields :data:`UNSET`, so a computation on it fails the run.  The
        verifier does not rule that out: it checks that an operand is
        defined somewhere in the function, not that the definition
        dominates the use.
        """
        if v.__class__ in _SLOTTED:
            return itemgetter(lay.slots[v])
        c = self._const(v)
        return lambda values: c

    @staticmethod
    def _shv(v: Value, lay: _Layout):
        """Closure evaluating ``v``'s shadow against a frame's shadow
        list (the slot of a value that carries none holds None)."""
        if v.__class__ in _SLOTTED:
            return itemgetter(lay.slots[v])
        return _no_shadow

    def _gather(self, ops: list[Value], lay: _Layout,
                shadows: bool = False):
        """Closure returning the values (or the shadows) of ``ops`` from
        a frame's slot list as one sequence."""
        slot_of = lay.slots
        idx = []
        for op in ops:
            if op.__class__ not in _SLOTTED:
                break
            idx.append(slot_of[op])
        else:
            if len(idx) > 1:
                return itemgetter(*idx)
            if idx:
                only = idx[0]
                return lambda slots: (slots[only],)
            return lambda slots: ()
        evs = [self._shv(op, lay) if shadows else self._ev(op, lay)
               for op in ops]
        return lambda slots: [ev(slots) for ev in evs]

    # per-instruction compilers --------------------------------------------

    # Each compiler turns one instruction into a ``closure(frame) ->
    # None``; :data:`_BODY_COMPILERS` maps a class to its compiler.

    def _compile_icmp(self, i: ICmp, lay: _Layout):
        fn = _icmp_fn(i.pred)
        lhs, rhs = i.lhs, i.rhs
        slots = lay.slots
        d = slots[i]
        if lhs.__class__ in _SLOTTED and rhs.__class__ in _SLOTTED:
            a, b = slots[lhs], slots[rhs]

            def run(frame):
                v = frame.values
                v[d] = fn(v[a], v[b])
            return run
        ea, eb = self._ev(lhs, lay), self._ev(rhs, lay)

        def run(frame):
            v = frame.values
            v[d] = fn(ea(v), eb(v))
        return run

    def _compile_unary(self, i: Unary, lay: _Layout):
        ea = self._ev(i.src, lay)
        fn = _unary_fn(i.opcode)
        d = lay.slots[i]

        def run(frame):
            v = frame.values
            v[d] = fn(ea(v))
        return run

    def _compile_alloca(self, i: Alloca, lay: _Layout):
        size = i.size
        mask = ~(max(i.align, 1) - 1)
        d = lay.slots[i]

        def run(frame):
            sp = (frame.sp - size) & mask
            frame.sp = sp
            frame.values[d] = sp
        return run

    def _compile_result(self, i: Result, lay: _Layout):
        slots = lay.slots
        s, idx, d = slots[i.call], i.index, slots[i]
        if self.shadow is None:
            def run(frame):
                v = frame.values
                v[d] = v[s][idx]
            return run
        shadow_of = self._result_shadow(i, lay)

        def run(frame):
            v = frame.values
            v[d] = v[s][idx]
            shadow_of(frame)
        return run

    def _compile_probe(self, i: Intrinsic, lay: _Layout):
        if self.probes is None:
            return _no_probe
        return self.probes.compile(i, [self._ev(a, lay) for a in i.ops])

    def _compile_phi(self, i: Phi, lay: _Layout):
        """A phi after a block's leading phis: an error when it runs."""
        def run(frame):
            raise InterpError("phi executed out of band")
        return run

    @staticmethod
    def _result_shadow(i: Result, lay: _Layout):
        """Closure setting a ``Result`` extract's shadow from its call's
        shadow bundle."""
        s, idx, d = lay.slots[i.call], i.index, lay.slots[i]

        def run(frame):
            shadows = frame.shadows
            bundle = shadows[s]
            shadows[d] = bundle[idx] if isinstance(bundle, list) else None
        return run

    def _compile_load(self, i: Load, lay: _Layout):
        """A load; a 4-byte one from a value's address reads a mapped
        page's word inline and calls ``Memory.read`` only off the word
        path."""
        read = self.mem.read
        d = lay.slots[i]
        sh = self.shadow
        shadow_of = sh.load_hook(i) if sh is not None else None
        addr_v = i.addr
        if i.size != 4 or addr_v.__class__ not in _SLOTTED:
            size = i.size
            ea = self._ev(addr_v, lay)
            if shadow_of is None:
                def run(frame):
                    v = frame.values
                    v[d] = read(ea(v), size)
                return run

            def run(frame):
                v = frame.values
                addr = ea(v)
                v[d] = read(addr, size)
                frame.shadows[d] = shadow_of(addr)
            return run
        page_of = self.mem.page_of
        a = lay.slots[addr_v]
        if shadow_of is None:
            def run(frame):
                v = frame.values
                addr = v[a]
                off = addr & PAGE_MASK
                page = page_of(addr >> PAGE_SHIFT) if off <= WORD_END \
                    else None
                v[d] = read(addr, 4) if page is None \
                    else unpack_word(page, off)[0]
            return run

        def run(frame):
            v = frame.values
            addr = v[a]
            off = addr & PAGE_MASK
            page = page_of(addr >> PAGE_SHIFT) if off <= WORD_END \
                else None
            v[d] = read(addr, 4) if page is None \
                else unpack_word(page, off)[0]
            frame.shadows[d] = shadow_of(addr)
        return run

    def _compile_store(self, i: Store, lay: _Layout):
        """A store.  A 4-byte one of a value to a value's address (with
        no plugin) or of a value to any address (in a shadow run) writes
        a mapped page's word inline and calls ``Memory.write`` only off
        the word path.  In a shadow run the plugin's store hooks follow
        the write: a value that is not a shadow carrier reads its None
        shadow slot, as a carrier does."""
        write = self.mem.write
        page_of = self.mem.page_of
        slots = lay.slots
        addr_v, value_v = i.addr, i.value
        size = i.size
        sh = self.shadow
        if sh is None:
            if size == 4 and addr_v.__class__ in _SLOTTED \
                    and value_v.__class__ in _SLOTTED:
                a, s = slots[addr_v], slots[value_v]

                def run(frame):
                    v = frame.values
                    addr = v[a]
                    off = addr & PAGE_MASK
                    page = page_of(addr >> PAGE_SHIFT) \
                        if off <= WORD_END else None
                    if page is None:
                        write(addr, 4, v[s])
                    else:
                        pack_word(page, off, v[s] & MASK32)
                return run
            ea, ev = self._ev(addr_v, lay), self._ev(value_v, lay)

            def run(frame):
                v = frame.values
                write(ea(v), size, ev(v))
            return run
        on_shadow, on_plain = sh.store_hooks(i)
        ea = self._ev(addr_v, lay)
        if value_v.__class__ not in _SLOTTED \
                or size != 4 and value_v not in lay.carriers:
            # The stored value carries no shadow.
            ev = self._ev(value_v, lay)

            def run(frame):
                v = frame.values
                addr = ea(v)
                write(addr, size, ev(v))
                on_plain(addr, None)
            return run
        # A word store of any value takes the word path below: one that
        # is not a shadow carrier reads its shadow slot's None.
        c = slots[value_v]
        if size != 4:
            def run(frame):
                v = frame.values
                addr = ea(v)
                write(addr, size, v[c])
                shadow = frame.shadows[c]
                if shadow is None:
                    on_plain(addr, None)
                else:
                    on_shadow(frame.frame_id, addr, shadow)
            return run

        def run(frame):
            v = frame.values
            addr = ea(v)
            value = v[c]
            off = addr & PAGE_MASK
            page = page_of(addr >> PAGE_SHIFT) if off <= WORD_END \
                else None
            if page is None:
                write(addr, 4, value)
            else:
                pack_word(page, off, value & MASK32)
            shadow = frame.shadows[c]
            if shadow is None:
                on_plain(addr, None)
            else:
                on_shadow(frame.frame_id, addr, shadow)
        return run

    def _compile_binop(self, i: BinOp, lay: _Layout):
        slots = lay.slots
        opc = i.opcode
        lhs, rhs = i.lhs, i.rhs
        d = slots[i]
        lslot = lhs.__class__ in _SLOTTED
        rslot = rhs.__class__ in _SLOTTED
        if lslot and rslot:
            # Address arithmetic dominates the mix: add and sub of two
            # values get inline bodies.
            a, b = slots[lhs], slots[rhs]
            if opc == "add":
                def run(frame):
                    v = frame.values
                    v[d] = (v[a] + v[b]) & MASK32
                return run
            if opc == "sub":
                def run(frame):
                    v = frame.values
                    v[d] = (v[a] - v[b]) & MASK32
                return run
            fn = _binop_fn(opc, i)

            def run(frame):
                v = frame.values
                v[d] = fn(v[a], v[b])
            return run
        if lslot:
            return _binop_const(opc, slots[lhs], self._const(rhs), d, i)
        if rslot and opc in _COMMUTATIVE:
            return _binop_const(opc, slots[rhs], self._const(lhs), d, i)
        fn = _binop_fn(opc, i)
        ea, eb = self._ev(lhs, lay), self._ev(rhs, lay)

        def run(frame):
            v = frame.values
            v[d] = fn(ea(v), eb(v))
        return run

    def _compile_call(self, i: Call, lay: _Layout):
        callee = self.module.functions.get(i.callee.name)
        if callee is None:
            def run(frame):
                raise InterpError("call to unknown function")
            return run
        args = self._gather(i.args, lay)
        nres = i.nresults
        d = lay.slots[i]
        call = self._call
        if self.shadow is None:
            if nres == 1:
                def run(frame):
                    v = frame.values
                    rets, _ = call(callee, args(v), None,
                                   (frame.sp - 32) & ~15)
                    v[d] = rets[0] if rets else 0
            else:
                def run(frame):
                    v = frame.values
                    rets, _ = call(callee, args(v), None,
                                   (frame.sp - 32) & ~15)
                    v[d] = rets
            return run
        arg_shadows = self._gather(i.args, lay, shadows=True)

        def run(frame):
            v = frame.values
            shadows = frame.shadows
            rets, rsh = call(callee, args(v), arg_shadows(shadows),
                             (frame.sp - 32) & ~15)
            if nres == 1:
                v[d] = rets[0] if rets else 0
                shadows[d] = rsh[0] if rsh else None
            else:
                v[d] = rets
                shadows[d] = list(rsh)
        return run

    def _compile_callind(self, i: CallInd, lay: _Layout):
        et = self._ev(i.target, lay)
        args = self._gather(i.args, lay)
        nres = i.nresults
        d = lay.slots[i]
        call = self._call
        addr_to_func = self._addr_to_func
        functions = self.module.functions
        sh = self.shadow
        arg_shadows = self._gather(i.args, lay, shadows=True) \
            if sh is not None else None

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
            rets, rsh = call(callee, args(v),
                             arg_shadows(shadows)
                             if sh is not None else None,
                             (frame.sp - 32) & ~15)
            if nres == 1:
                v[d] = rets[0] if rets else 0
            else:
                v[d] = rets
            if sh is not None:
                if nres == 1:
                    shadows[d] = rsh[0] if rsh else None
                else:
                    shadows[d] = list(rsh)
        return run

    def _compile_callext(self, i: CallExt, lay: _Layout):
        # An external call's result carries no shadow: its shadow slot
        # keeps the None the frame starts with.
        libc_call = self.libc.call
        mem = self.mem
        sh = self.shadow
        name = i.ext_name
        d = lay.slots[i]
        if i.stack_args:
            esp = self._ev(i.sp, lay)

            def run(frame):
                sp = esp(frame.values)
                frame.values[d] = libc_call(name, StackArgs(mem, sp))
            return run
        evs = [self._ev(a, lay) for a in i.args]
        shvs = [self._shv(a, lay) for a in i.args] \
            if sh is not None else None

        def run(frame):
            v = frame.values
            values = [ev(v) for ev in evs]
            if sh is not None:
                sh.on_callext(frame.frame_id, i, values,
                              [s(frame.shadows) for s in shvs])
            v[d] = libc_call(name, ListArgs(values))
        return run

    # Each terminator compiler turns one terminator into a
    # ``closure(frame) -> (kind, payload)``; :data:`_TERM_COMPILERS`
    # maps a class to its compiler.

    def _compile_br(self, i: Br, lay: _Layout):
        out = ("br", i.target)
        return lambda frame: out

    def _compile_condbr(self, i: CondBr, lay: _Layout):
        taken = ("br", i.if_true)
        fall = ("br", i.if_false)
        cond = i.cond
        if cond.__class__ in _SLOTTED:
            c = lay.slots[cond]
            return lambda frame: taken if frame.values[c] else fall
        ec = self._ev(cond, lay)
        return lambda frame: taken if ec(frame.values) else fall

    def _compile_switch(self, i: Switch, lay: _Layout):
        ev = self._ev(i.value, lay)
        table = {}
        for case, target in i.cases:
            table.setdefault(case & MASK32, ("br", target))
        default = ("br", i.default)
        return lambda frame: table.get(ev(frame.values), default)

    def _compile_ret(self, i: Ret, lay: _Layout):
        rets = self._gather(i.ops, lay)
        if self.shadow is None:
            def run(frame):
                return ("ret", (list(rets(frame.values)), []))
            return run
        ret_shadows = self._gather(i.ops, lay, shadows=True)

        def run(frame):
            return ("ret", (list(rets(frame.values)),
                            list(ret_shadows(frame.shadows))))
        return run

    def _compile_unreachable(self, i: Unreachable, lay: _Layout):
        fname = i.block.function.name \
            if i.block is not None and i.block.function else "?"
        note = i.note

        def run(frame):
            raise InterpError(
                f"{fname}: reached untraced path ({note})")
        return run


def _unknown_instr(interp: Interpreter, i: Instr, lay: _Layout):
    """An instruction of a class no compiler knows: an error when it
    runs."""
    def run(frame):
        raise InterpError(f"unimplemented instruction {i!r}")
    return run


def _unknown_term(interp: Interpreter, i: Instr, lay: _Layout):
    """A terminator of a class no compiler knows: an error when it
    runs."""
    def run(frame):
        raise InterpError(f"unimplemented terminator {i!r}")
    return run


#: Instruction class -> ``compiler(interp, instr, layout)`` of a body
#: instruction, built once.
_BODY_COMPILERS = {
    BinOp: Interpreter._compile_binop,
    ICmp: Interpreter._compile_icmp,
    Unary: Interpreter._compile_unary,
    Load: Interpreter._compile_load,
    Store: Interpreter._compile_store,
    Alloca: Interpreter._compile_alloca,
    Call: Interpreter._compile_call,
    CallInd: Interpreter._compile_callind,
    CallExt: Interpreter._compile_callext,
    Result: Interpreter._compile_result,
    Intrinsic: Interpreter._compile_probe,
    Phi: Interpreter._compile_phi,
}

#: Terminator class -> its compiler, built once.
_TERM_COMPILERS = {
    Br: Interpreter._compile_br,
    CondBr: Interpreter._compile_condbr,
    Switch: Interpreter._compile_switch,
    Ret: Interpreter._compile_ret,
    Unreachable: Interpreter._compile_unreachable,
}


def run_module(module: Module,
               input_items: list[int | bytes] | None = None,
               **kwargs) -> InterpResult:
    """Convenience wrapper mirroring :func:`repro.emu.run_binary`."""
    return Interpreter(module, input_items, **kwargs).run()
