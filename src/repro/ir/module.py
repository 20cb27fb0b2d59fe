"""Module, function, block and global containers of the repro IR."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import IRError
from .values import Instr, Param, Phi


@dataclass
class GlobalVar:
    """A module-level datum.

    ``init`` may be raw bytes or a list of 32-bit words (ints or
    :class:`~repro.ir.values.FuncRef`-style names resolved at lowering).
    ``fixed_addr`` pins the global at an absolute address — lifted modules
    use this to keep original data sections where the binary had them.
    """

    name: str
    size: int
    init: bytes | list = b""
    align: int = 4
    fixed_addr: int | None = None
    writable: bool = True

    def init_bytes(self, resolve=None, pad: bool = True) -> bytes:
        """Materialize the initializer as bytes.

        With ``pad`` the result is zero-extended to ``size``; callers
        whose memory is already zero-initialized pass ``pad=False`` to
        avoid materializing megabytes of zeros (e.g. the emulated
        stack).
        """
        if isinstance(self.init, bytes):
            data = self.init
        else:
            out = bytearray()
            for word in self.init:
                if isinstance(word, int):
                    out += (word & 0xFFFFFFFF).to_bytes(4, "little")
                elif resolve is not None:
                    out += (resolve(word) & 0xFFFFFFFF).to_bytes(4, "little")
                else:
                    raise IRError(
                        f"global {self.name} has symbolic initializer")
            data = bytes(out)
        if len(data) > self.size:
            raise IRError(f"global {self.name} initializer too large")
        if not pad:
            return data
        return data + b"\x00" * (self.size - len(data))


class Block:
    """A basic block: a straight-line instruction list ending in a
    terminator."""

    def __init__(self, name: str):
        self.name = name
        self.instrs: list[Instr] = []
        self.function: "Function | None" = None

    @property
    def terminator(self) -> Instr:
        if not self.instrs or not self.instrs[-1].is_terminator:
            raise IRError(f"block {self.name} lacks a terminator")
        return self.instrs[-1]

    @property
    def is_terminated(self) -> bool:
        return bool(self.instrs) and self.instrs[-1].is_terminator

    def successors(self) -> list["Block"]:
        return self.terminator.successors()

    def append(self, instr: Instr) -> Instr:
        if self.is_terminated:
            raise IRError(f"appending past terminator in {self.name}")
        instr.block = self
        self.instrs.append(instr)
        if self.function is not None:
            self.function.version += 1
        return instr

    def insert(self, index: int, instr: Instr) -> Instr:
        instr.block = self
        self.instrs.insert(index, instr)
        if self.function is not None:
            self.function.version += 1
        return instr

    def phis(self) -> list[Phi]:
        out = []
        for instr in self.instrs:
            if not isinstance(instr, Phi):
                break
            out.append(instr)
        return out

    def __repr__(self) -> str:
        return f"<block {self.name}: {len(self.instrs)} instrs>"


class Function:
    """An IR function.

    ``nresults`` is the number of values its ``ret`` instructions carry —
    lifted functions return several (the live registers) until the
    refinements shrink them.
    """

    def __init__(self, name: str, param_names: list[str],
                 nresults: int = 1):
        self.name = name
        self.params = [Param(p, i) for i, p in enumerate(param_names)]
        self.nresults = nresults
        self.blocks: list[Block] = []
        #: Original binary address of the function entry (lifted modules).
        self.orig_entry: int | None = None
        #: Free-form analysis annotations (refinements stash results here).
        self.meta: dict = {}
        #: Mutation counter consulted by the interpreter's per-block
        #: compiled-code cache and the versioned CFG-analysis cache
        #: (:mod:`repro.opt.analysis`).  Bumped by :meth:`Block.append` /
        #: :meth:`Block.insert`; passes that splice ``block.instrs``
        #: directly, rewrite terminators in place, or edit
        #: :attr:`blocks` must call :meth:`invalidate`.
        self.version = 0
        #: The analysis cache's entry, ``(epoch, {name: result})``
        #: (:mod:`repro.opt.analysis`).  Its results reference the
        #: function, so it lives here, where it is freed with it.
        self.analyses: tuple | None = None

    def invalidate(self) -> None:
        """Signal a mutation made behind the builder API.

        Contract: call this after *any* change to this function's block
        list, instruction lists, or terminator targets that bypasses
        :meth:`Block.append`/:meth:`Block.insert`.  Cached analyses
        (dominators, predecessors, reachability) and the interpreter's
        compiled-block cache key on :attr:`version` and serve stale
        results to mutations that skip it.
        """
        self.version += 1

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str, index: int | None = None) -> Block:
        block = Block(name)
        block.function = self
        if index is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(index, block)
        return block

    def instructions(self) -> Iterator[Instr]:
        for block in self.blocks:
            yield from block.instrs

    def predecessors(self) -> dict[Block, list[Block]]:
        preds: dict[Block, list[Block]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            if block.is_terminated:
                for succ in block.successors():
                    preds[succ].append(block)
        return preds

    def renumber(self) -> None:
        """Assign printable names (%0, %1, ...) to all instructions."""
        counter = 0
        for instr in self.instructions():
            if instr.has_result:
                instr.name = str(counter)
                counter += 1
            else:
                instr.name = None

    def __repr__(self) -> str:
        return f"<function {self.name}/{len(self.params)}>"


class Module:
    """A whole IR program."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVar] = {}
        #: Map from original binary code address to lifted function name;
        #: resolves indirect calls/jumps in lifted programs.
        self.address_table: dict[int, str] = {}
        #: Name of the program entry function.
        self.entry_name: str = "_start"
        #: Provenance (compiler/config or lifting pipeline description).
        self.metadata: dict[str, str] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise IRError(f"duplicate function {func.name}")
        self.functions[func.name] = func
        return func

    def add_global(self, g: GlobalVar) -> GlobalVar:
        if g.name in self.globals:
            raise IRError(f"duplicate global {g.name}")
        self.globals[g.name] = g
        return g

    @property
    def entry_function(self) -> Function:
        try:
            return self.functions[self.entry_name]
        except KeyError:
            raise IRError(f"no entry function {self.entry_name!r}") from None

    def __repr__(self) -> str:
        return (f"<module {self.name}: {len(self.functions)} funcs, "
                f"{len(self.globals)} globals>")
