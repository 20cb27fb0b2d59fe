"""Instruction builder: a positioned cursor for emitting IR."""

from __future__ import annotations

from .module import Block, Function
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
    ICmp,
    Instr,
    Intrinsic,
    Load,
    Phi,
    Ret,
    Result,
    Store,
    Switch,
    Unary,
    Unreachable,
    Value,
)


class Builder:
    """Emits instructions at the end of a current block."""

    def __init__(self, function: Function):
        self.function = function
        self.block: Block | None = None

    def position(self, block: Block) -> "Builder":
        self.block = block
        return self

    def new_block(self, name: str) -> Block:
        return self.function.add_block(name)

    def _emit(self, instr: Instr) -> Instr:
        if self.block is None:
            raise RuntimeError("builder has no current block")
        return self.block.append(instr)

    # -- arithmetic ---------------------------------------------------------

    def binop(self, op: str, a: Value, b: Value) -> Instr:
        return self._emit(BinOp(op, a, b))

    def add(self, a: Value, b: Value) -> Instr:
        return self.binop("add", a, b)

    def sub(self, a: Value, b: Value) -> Instr:
        return self.binop("sub", a, b)

    def mul(self, a: Value, b: Value) -> Instr:
        return self.binop("mul", a, b)

    def unary(self, op: str, src: Value) -> Instr:
        return self._emit(Unary(op, src))

    def icmp(self, pred: str, a: Value, b: Value) -> Instr:
        return self._emit(ICmp(pred, a, b))

    # -- memory -------------------------------------------------------------

    def load(self, addr: Value, size: int = 4) -> Instr:
        return self._emit(Load(addr, size))

    def store(self, addr: Value, value: Value, size: int = 4) -> Instr:
        return self._emit(Store(addr, value, size))

    def alloca(self, size: int, align: int = 4, name: str = "") -> Instr:
        return self._emit(Alloca(size, align, name))

    # -- calls --------------------------------------------------------------

    def call(self, callee: str | FuncRef, args: list[Value],
             nresults: int = 1) -> Instr:
        ref = callee if isinstance(callee, FuncRef) else FuncRef(callee)
        return self._emit(Call(ref, args, nresults))

    def call_indirect(self, target: Value, args: list[Value],
                      nresults: int = 1) -> Instr:
        return self._emit(CallInd(target, args, nresults))

    def call_external(self, name: str, args: list[Value],
                      sp: Value | None = None,
                      call_addr: int | None = None) -> Instr:
        return self._emit(CallExt(name, args, sp, call_addr))

    def result(self, call: Instr, index: int) -> Instr:
        return self._emit(Result(call, index))

    def intrinsic(self, name: str, args: list[Value],
                  meta: dict | None = None) -> Instr:
        return self._emit(Intrinsic(name, args, meta))

    # -- control flow -------------------------------------------------------

    def phi(self, incomings: list[tuple[Block, Value]]) -> Phi:
        if self.block is None:
            raise RuntimeError("builder has no current block")
        phi = Phi(incomings)
        # Phis must be grouped at the top of the block.
        index = len(self.block.phis())
        self.block.insert(index, phi)
        return phi

    def br(self, target: Block) -> Instr:
        return self._emit(Br(target))

    def condbr(self, cond: Value, if_true: Block, if_false: Block) -> Instr:
        return self._emit(CondBr(cond, if_true, if_false))

    def switch(self, value: Value, cases: list[tuple[int, Block]],
               default: Block) -> Instr:
        return self._emit(Switch(value, cases, default))

    def ret(self, values: list[Value]) -> Instr:
        return self._emit(Ret(values))

    def unreachable(self, note: str = "") -> Instr:
        return self._emit(Unreachable(note))

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def const(value: int) -> Const:
        return Const(value)
