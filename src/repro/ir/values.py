"""Core value and instruction classes of the repro compiler IR.

The IR is a small LLVM-flavoured SSA IR:

* values are 32-bit integers (pointers are integers, as on the machine);
  narrower widths exist only at memory boundaries (sized loads/stores) and
  via explicit extension/truncation ops — mirroring how 32-bit x86 code
  actually behaves, which matters for the paper's false-derive discussion;
* functions may return **multiple values**, which is how lifted functions
  thread the virtual register file through calls before the refinements
  shrink their signatures;
* ``Intrinsic`` instructions carry the WYTIWYG instrumentation probes
  (``wyt.derive`` and friends, paper §4.2.2); the interpreter dispatches
  them to a registered runtime, like BinRec's instrumentation library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .module import Block


class Value:
    """Anything that can appear as an instruction operand."""


@dataclass(frozen=True)
class Const(Value):
    """A 32-bit integer constant (stored as unsigned)."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & 0xFFFFFFFF)

    @property
    def signed(self) -> int:
        return self.value - 0x100000000 if self.value >= 0x80000000 \
            else self.value

    def __repr__(self) -> str:
        return str(self.signed)


@dataclass(frozen=True)
class GlobalRef(Value):
    """The address of a module global."""

    name: str

    def __repr__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class FuncRef(Value):
    """A direct reference to a function (call target or address-taken)."""

    name: str

    def __repr__(self) -> str:
        return f"@{self.name}"


class Param(Value):
    """A function parameter."""

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index

    def __repr__(self) -> str:
        return f"%{self.name}"


class Instr(Value):
    """Base class of all IR instructions.

    ``ops`` holds operand values; subclasses expose named accessors.
    ``name`` is a printing hint assigned by the function's numberer.
    """

    opcode: str = "?"
    has_result: bool = True
    is_terminator: bool = False

    def __init__(self, ops: list[Value]):
        self.ops: list[Value] = list(ops)
        self.block: "Block | None" = None
        self.name: str | None = None

    def operands(self) -> Iterator[Value]:
        return iter(self.ops)

    def replace_operand(self, old: Value, new: Value) -> None:
        self.ops = [new if op is old else op for op in self.ops]

    def rewrite_operands(self, mapping: dict[Value, Value]) -> None:
        self.ops = [mapping.get(op, op) for op in self.ops]

    def _label(self) -> str:
        return f"%{self.name}" if self.name else f"%<{id(self):x}>"

    def __repr__(self) -> str:
        result = f"{self._label()} = " if self.has_result else ""
        ops = ", ".join(_short(op) for op in self.ops)
        return f"{result}{self.opcode} {ops}".rstrip()


def _short(v: Value) -> str:
    if isinstance(v, Instr):
        return v._label()
    return repr(v)


BINOPS = ("add", "sub", "mul", "div", "rem", "and", "or", "xor",
          "shl", "shr", "sar")

UNOPS = ("neg", "not", "sext8", "sext16", "zext8", "zext16",
         "trunc8", "trunc16")

ICMP_PREDS = ("eq", "ne", "slt", "sle", "sgt", "sge",
              "ult", "ule", "ugt", "uge")


class BinOp(Instr):
    def __init__(self, op: str, lhs: Value, rhs: Value):
        if op not in BINOPS:
            raise ValueError(f"bad binop {op!r}")
        super().__init__([lhs, rhs])
        self.opcode = op

    @property
    def lhs(self) -> Value:
        return self.ops[0]

    @property
    def rhs(self) -> Value:
        return self.ops[1]


class Unary(Instr):
    def __init__(self, op: str, src: Value):
        if op not in UNOPS:
            raise ValueError(f"bad unary op {op!r}")
        super().__init__([src])
        self.opcode = op

    @property
    def src(self) -> Value:
        return self.ops[0]


class ICmp(Instr):
    opcode = "icmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value):
        if pred not in ICMP_PREDS:
            raise ValueError(f"bad icmp predicate {pred!r}")
        super().__init__([lhs, rhs])
        self.pred = pred

    @property
    def lhs(self) -> Value:
        return self.ops[0]

    @property
    def rhs(self) -> Value:
        return self.ops[1]

    def __repr__(self) -> str:
        return (f"{self._label()} = icmp {self.pred} "
                f"{_short(self.ops[0])}, {_short(self.ops[1])}")


class Load(Instr):
    opcode = "load"

    def __init__(self, addr: Value, size: int = 4):
        if size not in (1, 2, 4):
            raise ValueError(f"bad load size {size}")
        super().__init__([addr])
        self.size = size

    @property
    def addr(self) -> Value:
        return self.ops[0]

    def __repr__(self) -> str:
        return f"{self._label()} = load.{self.size} {_short(self.ops[0])}"


class Store(Instr):
    opcode = "store"
    has_result = False

    def __init__(self, addr: Value, value: Value, size: int = 4):
        if size not in (1, 2, 4):
            raise ValueError(f"bad store size {size}")
        super().__init__([addr, value])
        self.size = size

    @property
    def addr(self) -> Value:
        return self.ops[0]

    @property
    def value(self) -> Value:
        return self.ops[1]

    def __repr__(self) -> str:
        return (f"store.{self.size} {_short(self.ops[0])}, "
                f"{_short(self.ops[1])}")


class Alloca(Instr):
    """A native stack allocation of ``size`` bytes; yields its address."""

    opcode = "alloca"

    def __init__(self, size: int, align: int = 4, var_name: str = ""):
        super().__init__([])
        self.size = size
        self.align = align
        self.var_name = var_name

    def __repr__(self) -> str:
        tag = f" ; {self.var_name}" if self.var_name else ""
        return f"{self._label()} = alloca {self.size}, align {self.align}" \
            + tag


class Call(Instr):
    """Direct call. May produce multiple results (see :class:`Result`)."""

    opcode = "call"

    def __init__(self, callee: FuncRef, args: list[Value],
                 nresults: int = 1):
        super().__init__([callee, *args])
        self.nresults = nresults

    @property
    def callee(self) -> FuncRef:
        callee = self.ops[0]
        assert isinstance(callee, FuncRef)
        return callee

    @property
    def args(self) -> list[Value]:
        return self.ops[1:]

    def __repr__(self) -> str:
        args = ", ".join(_short(a) for a in self.ops[1:])
        res = f"{self._label()} = " if self.nresults else ""
        return f"{res}call {self.ops[0]!r}({args}) -> {self.nresults}"


class CallInd(Instr):
    """Indirect call through a runtime code address.

    Resolution goes through the module's address table (original entry
    address -> lifted function), the same mechanism BinRec uses for
    indirect control flow in lifted programs.
    """

    opcode = "callind"

    def __init__(self, target: Value, args: list[Value], nresults: int = 1):
        super().__init__([target, *args])
        self.nresults = nresults

    @property
    def target(self) -> Value:
        return self.ops[0]

    @property
    def args(self) -> list[Value]:
        return self.ops[1:]

    def __repr__(self) -> str:
        args = ", ".join(_short(a) for a in self.ops[1:])
        return (f"{self._label()} = callind {_short(self.ops[0])}({args}) "
                f"-> {self.nresults}")


class CallExt(Instr):
    """Call to an external (libc) function.

    Before varargs recovery, lifted variadic calls use *stack switching*
    (paper §5.2): ``sp`` points at the argument area in the emulated stack
    and ``args`` is empty.  After recovery (and always for recompiled
    MiniC code), arguments are explicit and ``sp`` is ``None``.
    ``call_addr`` is the address of the binary call instruction a lifted
    site came from, which keys its traced argument count.
    """

    opcode = "callext"

    def __init__(self, name: str, args: list[Value],
                 sp: Value | None = None, call_addr: int | None = None):
        ops = list(args) if sp is None else [sp, *args]
        super().__init__(ops)
        self.ext_name = name
        self.stack_args = sp is not None
        self.call_addr = call_addr

    @property
    def sp(self) -> Value | None:
        return self.ops[0] if self.stack_args else None

    @property
    def args(self) -> list[Value]:
        return self.ops[1:] if self.stack_args else list(self.ops)

    def __repr__(self) -> str:
        if self.stack_args:
            return (f"{self._label()} = callext @{self.ext_name} "
                    f"[stack {_short(self.ops[0])}]")
        args = ", ".join(_short(a) for a in self.ops)
        return f"{self._label()} = callext @{self.ext_name}({args})"


class Result(Instr):
    """Extracts result ``index`` of a multi-result call."""

    opcode = "result"

    def __init__(self, call: Instr, index: int):
        super().__init__([call])
        self.index = index

    @property
    def call(self) -> Instr:
        call = self.ops[0]
        assert isinstance(call, Instr)
        return call

    def __repr__(self) -> str:
        return f"{self._label()} = result {_short(self.ops[0])}[{self.index}]"


class Phi(Instr):
    opcode = "phi"

    def __init__(self, incomings: list[tuple["Block", Value]]):
        super().__init__([v for _b, v in incomings])
        self.blocks: list["Block"] = [b for b, _v in incomings]

    def incomings(self) -> list[tuple["Block", Value]]:
        return list(zip(self.blocks, self.ops, strict=True))

    def add_incoming(self, block: "Block", value: Value) -> None:
        self.blocks.append(block)
        self.ops.append(value)

    def value_for(self, block: "Block") -> Value:
        for b, v in zip(self.blocks, self.ops, strict=True):
            if b is block:
                return v
        raise KeyError(f"phi has no incoming for block {block.name}")

    def remove_incoming(self, block: "Block") -> None:
        pairs = [(b, v) for b, v in zip(self.blocks, self.ops,
                                        strict=True)
                 if b is not block]
        self.blocks = [b for b, _ in pairs]
        self.ops = [v for _, v in pairs]

    def __repr__(self) -> str:
        parts = ", ".join(f"[{b.name}: {_short(v)}]"
                          for b, v in zip(self.blocks, self.ops,
                                          strict=True))
        return f"{self._label()} = phi {parts}"


class Intrinsic(Instr):
    """An instrumentation probe (e.g. ``wyt.derive``); see paper §4.2.2.

    Probes never produce a value used by the program and are removed
    wholesale after an analysis round, so they cannot perturb semantics.
    """

    opcode = "intrinsic"
    has_result = False

    def __init__(self, name: str, args: list[Value],
                 meta: dict | None = None):
        super().__init__(args)
        self.intrinsic = name
        self.meta = dict(meta or {})

    def __repr__(self) -> str:
        args = ", ".join(_short(a) for a in self.ops)
        return f"{self.intrinsic}({args})"


# -- terminators ------------------------------------------------------------


class Br(Instr):
    opcode = "br"
    has_result = False
    is_terminator = True

    def __init__(self, target: "Block"):
        super().__init__([])
        self.target = target

    def successors(self) -> list["Block"]:
        return [self.target]

    def __repr__(self) -> str:
        return f"br {self.target.name}"


class CondBr(Instr):
    opcode = "condbr"
    has_result = False
    is_terminator = True

    def __init__(self, cond: Value, if_true: "Block", if_false: "Block"):
        super().__init__([cond])
        self.if_true = if_true
        self.if_false = if_false

    @property
    def cond(self) -> Value:
        return self.ops[0]

    def successors(self) -> list["Block"]:
        return [self.if_true, self.if_false]

    def __repr__(self) -> str:
        return (f"condbr {_short(self.ops[0])}, {self.if_true.name}, "
                f"{self.if_false.name}")


class Switch(Instr):
    """Multi-way branch on a value (lifted jump tables, indirect jumps)."""

    opcode = "switch"
    has_result = False
    is_terminator = True

    def __init__(self, value: Value, cases: list[tuple[int, "Block"]],
                 default: "Block"):
        super().__init__([value])
        self.cases = list(cases)
        self.default = default

    @property
    def value(self) -> Value:
        return self.ops[0]

    def successors(self) -> list["Block"]:
        seen: list["Block"] = []
        for _v, b in self.cases:
            if b not in seen:
                seen.append(b)
        if self.default not in seen:
            seen.append(self.default)
        return seen

    def __repr__(self) -> str:
        cases = ", ".join(f"{v:#x}: {b.name}" for v, b in self.cases)
        return (f"switch {_short(self.ops[0])} [{cases}] "
                f"default {self.default.name}")


class Ret(Instr):
    opcode = "ret"
    has_result = False
    is_terminator = True

    def __init__(self, values: list[Value]):
        super().__init__(values)

    def successors(self) -> list["Block"]:
        return []

    def __repr__(self) -> str:
        return "ret " + ", ".join(_short(v) for v in self.ops)


class Unreachable(Instr):
    """An untraced path: executing it is a lifting-coverage failure."""

    opcode = "unreachable"
    has_result = False
    is_terminator = True

    def __init__(self, note: str = ""):
        super().__init__([])
        self.note = note

    def successors(self) -> list["Block"]:
        return []

    def __repr__(self) -> str:
        return f"unreachable ; {self.note}" if self.note else "unreachable"
