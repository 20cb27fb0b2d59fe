"""The machine emulator: executes repro-ISA binaries.

This module plays two roles from the paper's architecture (Figure 4):

* the **binary tracer** (S2E's role) — with a :class:`~repro.emu.tracer.
  Tracer` attached it records every control transfer and executed address
  for a set of user-provided inputs; and
* the **measurement host** — it accumulates cycle costs under the shared
  :class:`~repro.emu.costs.CostModel`, producing the runtime numbers that
  Table 1 and Figure 6 normalize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..binary.image import STACK_SIZE, STACK_TOP, BinaryImage
from ..errors import EmulationError
from ..isa.disassembler import Disassembler
from ..isa.instructions import Imm, ImportRef, Instruction, Mem
from ..isa.registers import ESP, Reg
from ..obs import recorder as _obs_recorder
from .blocks import EXIT_SENTINEL, BlockCache, shared_block_cache
from .cpu import CPU, MASK32, signed32
from .costs import DEFAULT_COSTS, CostModel
from .libc import ExitProgram, LibC, StackArgs, vararg_counter
from .memory import make_memory

__all__ = ["ControlSink", "EXIT_SENTINEL", "Machine", "RunResult",
           "run_binary"]


class ControlSink(Protocol):
    """Receiver of dynamic control-transfer events (the trace consumer).

    ``varargs(src, count)`` reports that the variadic import call at
    ``src`` passed ``count`` arguments
    (:func:`~repro.emu.libc.vararg_counter`).
    """

    def transfer(self, src: int, dst: int, kind: str) -> None: ...

    def executed(self, addr: int) -> None: ...

    def varargs(self, src: int, count: int) -> None: ...


@dataclass
class RunResult:
    """Outcome of one emulated execution."""

    exit_code: int
    stdout: bytes
    cycles: int
    instructions: int

    def matches(self, other: "RunResult") -> bool:
        """Functional equivalence: same observable behaviour."""
        return (self.exit_code == other.exit_code
                and self.stdout == other.stdout)


@dataclass
class Machine:
    """An emulator instance bound to one loaded binary image."""

    image: BinaryImage
    input_items: list[int | bytes] = field(default_factory=list)
    costs: CostModel = DEFAULT_COSTS
    max_instructions: int = 80_000_000
    stack_size: int = STACK_SIZE
    trace_sink: ControlSink | None = None
    #: Execute through the superblock engine (:mod:`repro.emu.blocks`).
    #: ``False`` selects the per-step reference path; the differential
    #: tests keep the two in lockstep.
    use_blocks: bool = True
    #: Optional pre-built block cache shared across machines (must be
    #: built over the same image and an equal cost model).
    blocks: BlockCache | None = None

    def __post_init__(self) -> None:
        self.mem = make_memory()
        self.mem.load_image(self.image)
        self.cpu = CPU()
        self.libc = LibC(self.mem, self.input_items)
        if self.blocks is not None and self.blocks.costs == self.costs:
            self.disasm = self.blocks.disasm
        elif self.use_blocks:
            self.blocks = shared_block_cache(self.image, self.costs,
                                             _HANDLERS)
            self.disasm = self.blocks.disasm
        else:
            self.disasm = Disassembler(self.image)
            self.blocks = None
        self.cycles = 0
        self.instructions = 0
        self._halted: int | None = None

    # -- operand access -----------------------------------------------------

    def _mem_addr(self, op: Mem) -> int:
        addr = op.disp if isinstance(op.disp, int) else 0
        if op.base is not None:
            addr += self.cpu.get(op.base)
        if op.index is not None:
            addr += self.cpu.get(op.index) * op.scale
        return addr & MASK32

    def _read(self, op, width: int | None = None) -> int:
        if isinstance(op, Reg):
            return self.cpu.get(op)
        if isinstance(op, Imm):
            return op.value & MASK32
        if isinstance(op, Mem):
            return self.mem.read(self._mem_addr(op), op.size)
        raise EmulationError(f"cannot read operand {op!r}")

    def _write(self, op, value: int) -> None:
        if isinstance(op, Reg):
            self.cpu.set(op, value)
        elif isinstance(op, Mem):
            self.mem.write(self._mem_addr(op), op.size, value)
        else:
            raise EmulationError(f"cannot write operand {op!r}")

    @staticmethod
    def _width_of(op) -> int:
        if isinstance(op, Reg):
            return op.width
        if isinstance(op, Mem):
            return op.size
        return 4

    # -- execution ----------------------------------------------------------

    def run(self) -> RunResult:
        """Run from the image entry point until ``hlt``, ``exit``, or a
        return from the entry function."""
        self.cpu.eip = self.image.entry
        self.cpu.set(ESP, STACK_TOP - 4)
        self.mem.write(STACK_TOP - 4, 4, EXIT_SENTINEL)
        rec = _obs_recorder()
        try:
            if self.use_blocks:
                if rec is not None:
                    self._run_blocks_observed(rec)
                else:
                    self._run_blocks()
            else:
                self._run_steps()
        except ExitProgram as exc:
            self._halted = exc.code
        if rec is not None:
            registry = rec.registry
            registry.count("emu.runs")
            registry.count("emu.instructions_retired", self.instructions)
            registry.count("emu.cycles", self.cycles)
            if self.blocks is not None:
                registry.gauge("emu.block_cache.size",
                               len(self.blocks._blocks))
        return RunResult(self._halted, bytes(self.libc.stdout),
                         self.cycles, self.instructions)

    def _run_blocks(self) -> None:
        """Superblock loop: decode-once blocks of pre-compiled closures.

        Coverage callbacks fire once per block per machine — sinks see
        each executed address at least once, and coverage is a set, so
        repeat visits add nothing (the per-step path reports every
        execution; both produce identical coverage sets).
        """
        block_at = self.blocks.block_at
        cpu = self.cpu
        sink = self.trace_sink
        seen: set[int] = set()
        budget = self.max_instructions
        while self._halted is None:
            addr = cpu.eip
            block = block_at(addr)
            if sink is not None and addr not in seen:
                seen.add(addr)
                executed = sink.executed
                for a in block.addrs:
                    executed(a)
            self.instructions += block.count
            self.cycles += block.cost
            for op in block.code:
                op(self)
            if self.instructions >= budget:
                raise EmulationError(
                    f"instruction budget exceeded ({budget})")

    def _run_blocks_observed(self, rec) -> None:
        """The superblock loop with observability: identical semantics
        to :meth:`_run_blocks` plus block-cache hit/miss accounting and
        the hot-block execution profile.  Selected only when a recorder
        is active, so the disabled path stays untouched."""
        blocks = self.blocks
        block_map = blocks._blocks
        block_at = blocks.block_at
        hot = rec.registry.profile("emu.hot_blocks").counts
        cpu = self.cpu
        sink = self.trace_sink
        seen: set[int] = set()
        budget = self.max_instructions
        hits = misses = 0
        try:
            while self._halted is None:
                addr = cpu.eip
                if addr in block_map:
                    hits += 1
                else:
                    misses += 1
                block = block_at(addr)
                hot[addr] = hot.get(addr, 0) + 1
                if sink is not None and addr not in seen:
                    seen.add(addr)
                    executed = sink.executed
                    for a in block.addrs:
                        executed(a)
                self.instructions += block.count
                self.cycles += block.cost
                for op in block.code:
                    op(self)
                if self.instructions >= budget:
                    raise EmulationError(
                        f"instruction budget exceeded ({budget})")
        finally:
            registry = rec.registry
            registry.count("emu.block_cache.hit", hits)
            registry.count("emu.block_cache.miss", misses)

    def _run_steps(self) -> None:
        """Reference per-step loop (seed semantics, kept for differential
        testing and cost-model experiments)."""
        while self._halted is None:
            self._step()
            if self.instructions >= self.max_instructions:
                raise EmulationError(
                    f"instruction budget exceeded "
                    f"({self.max_instructions})")

    def _step(self) -> None:
        instr = self.disasm.at(self.cpu.eip)
        if self.trace_sink is not None:
            self.trace_sink.executed(self.cpu.eip)
        self.instructions += 1
        self.cycles += self.costs.instruction_cost(instr)
        next_eip = self.cpu.eip + instr.size
        handler = _HANDLERS.get(instr.mnemonic)
        if handler is None:
            raise EmulationError(f"unimplemented {instr!r}")
        handler(self, instr, next_eip)

    def _transfer(self, dst: int, kind: str) -> None:
        if self.trace_sink is not None:
            self.trace_sink.transfer(self.cpu.eip, dst, kind)

    # -- instruction semantics ---------------------------------------------

    def _op_mov(self, instr: Instruction, next_eip: int) -> None:
        dst, src = instr.operands
        self._write(dst, self._read(src))
        self.cpu.eip = next_eip

    def _op_movzx(self, instr: Instruction, next_eip: int) -> None:
        dst, src = instr.operands
        self._write(dst, self._read(src))
        self.cpu.eip = next_eip

    def _op_movsx(self, instr: Instruction, next_eip: int) -> None:
        dst, src = instr.operands
        width = self._width_of(src)
        value = self._read(src)
        sign_bit = 1 << (8 * width - 1)
        if value & sign_bit:
            value |= MASK32 ^ ((1 << (8 * width)) - 1)
        self._write(dst, value)
        self.cpu.eip = next_eip

    def _op_lea(self, instr: Instruction, next_eip: int) -> None:
        dst, src = instr.operands
        if not isinstance(src, Mem):
            raise EmulationError(f"lea needs memory operand: {instr!r}")
        self._write(dst, self._mem_addr(src))
        self.cpu.eip = next_eip

    def _op_push(self, instr: Instruction, next_eip: int) -> None:
        value = self._read(instr.operands[0])
        esp = (self.cpu.get(ESP) - 4) & MASK32
        self.cpu.set(ESP, esp)
        self.mem.write(esp, 4, value)
        self.cpu.eip = next_eip

    def _op_pop(self, instr: Instruction, next_eip: int) -> None:
        esp = self.cpu.get(ESP)
        self._write(instr.operands[0], self.mem.read(esp, 4))
        self.cpu.set(ESP, (esp + 4) & MASK32)
        self.cpu.eip = next_eip

    def _arith(self, instr: Instruction, next_eip: int, op: str) -> None:
        dst, src = instr.operands
        a = self._read(dst)
        b = self._read(src)
        if op == "add":
            result = a + b
            self.cpu.flags.set_add(a, b, result)
        elif op == "sub":
            result = a - b
            self.cpu.flags.set_sub(a, b, result)
        elif op == "and":
            result = a & b
            self.cpu.flags.set_logic(result)
        elif op == "or":
            result = a | b
            self.cpu.flags.set_logic(result)
        else:  # xor
            result = a ^ b
            self.cpu.flags.set_logic(result)
        self._write(dst, result & MASK32)
        self.cpu.eip = next_eip

    def _op_add(self, i, n):
        self._arith(i, n, "add")

    def _op_sub(self, i, n):
        self._arith(i, n, "sub")

    def _op_and(self, i, n):
        self._arith(i, n, "and")

    def _op_or(self, i, n):
        self._arith(i, n, "or")

    def _op_xor(self, i, n):
        self._arith(i, n, "xor")

    def _op_neg(self, instr: Instruction, next_eip: int) -> None:
        dst = instr.operands[0]
        a = self._read(dst)
        result = (-a) & MASK32
        self.cpu.flags.set_sub(0, a, result)
        self._write(dst, result)
        self.cpu.eip = next_eip

    def _op_not(self, instr: Instruction, next_eip: int) -> None:
        dst = instr.operands[0]
        self._write(dst, (~self._read(dst)) & MASK32)
        self.cpu.eip = next_eip

    def _op_imul(self, instr: Instruction, next_eip: int) -> None:
        dst, src = instr.operands
        a = signed32(self._read(dst))
        b = signed32(self._read(src))
        result = a * b
        self._write(dst, result & MASK32)
        truncated = signed32(result)
        self.cpu.flags.cf = self.cpu.flags.of = truncated != result
        self.cpu.flags.zf = truncated == 0
        self.cpu.flags.sf = truncated < 0
        self.cpu.eip = next_eip

    def _op_cdq(self, instr: Instruction, next_eip: int) -> None:
        eax = self.cpu.get_name("eax")
        self.cpu.set_name("edx", MASK32 if eax & 0x80000000 else 0)
        self.cpu.eip = next_eip

    def _op_idiv(self, instr: Instruction, next_eip: int) -> None:
        divisor = signed32(self._read(instr.operands[0]))
        if divisor == 0:
            raise EmulationError("integer division by zero")
        dividend = (self.cpu.get_name("edx") << 32) | self.cpu.get_name("eax")
        if dividend >= 1 << 63:
            dividend -= 1 << 64
        quotient = int(dividend / divisor)  # C semantics: truncate to zero
        remainder = dividend - quotient * divisor
        if not -0x80000000 <= quotient <= 0x7FFFFFFF:
            raise EmulationError("idiv quotient overflow")
        self.cpu.set_name("eax", quotient & MASK32)
        self.cpu.set_name("edx", remainder & MASK32)
        self.cpu.eip = next_eip

    def _shift(self, instr: Instruction, next_eip: int, op: str) -> None:
        dst, count_op = instr.operands
        count = self._read(count_op) & 31
        a = self._read(dst)
        if op == "shl":
            result = (a << count) & MASK32
        elif op == "shr":
            result = (a & MASK32) >> count
        else:  # sar
            result = (signed32(a) >> count) & MASK32
        if count:
            self.cpu.flags.zf = result == 0
            self.cpu.flags.sf = bool(result & 0x80000000)
        self._write(dst, result)
        self.cpu.eip = next_eip

    def _op_shl(self, i, n):
        self._shift(i, n, "shl")

    def _op_shr(self, i, n):
        self._shift(i, n, "shr")

    def _op_sar(self, i, n):
        self._shift(i, n, "sar")

    def _op_inc(self, instr: Instruction, next_eip: int) -> None:
        dst = instr.operands[0]
        a = self._read(dst)
        result = (a + 1) & MASK32
        carry = self.cpu.flags.cf  # inc preserves CF, as on x86
        self.cpu.flags.set_add(a, 1, a + 1)
        self.cpu.flags.cf = carry
        self._write(dst, result)
        self.cpu.eip = next_eip

    def _op_dec(self, instr: Instruction, next_eip: int) -> None:
        dst = instr.operands[0]
        a = self._read(dst)
        result = (a - 1) & MASK32
        carry = self.cpu.flags.cf
        self.cpu.flags.set_sub(a, 1, a - 1)
        self.cpu.flags.cf = carry
        self._write(dst, result)
        self.cpu.eip = next_eip

    def _op_cmp(self, instr: Instruction, next_eip: int) -> None:
        a = self._read(instr.operands[0])
        b = self._read(instr.operands[1])
        self.cpu.flags.set_sub(a, b, a - b)
        self.cpu.eip = next_eip

    def _op_test(self, instr: Instruction, next_eip: int) -> None:
        a = self._read(instr.operands[0])
        b = self._read(instr.operands[1])
        self.cpu.flags.set_logic(a & b)
        self.cpu.eip = next_eip

    def _op_jmp(self, instr: Instruction, next_eip: int) -> None:
        target = self._read(instr.operands[0])
        self._transfer(target, "jump")
        self.cycles += self.costs.branch_taken
        self.cpu.eip = target

    def _op_jcc(self, instr: Instruction, next_eip: int) -> None:
        if self.cpu.flags.condition(instr.cc):
            target = self._read(instr.operands[0])
            self._transfer(target, "jump")
            self.cycles += self.costs.branch_taken
            self.cpu.eip = target
        else:
            self._transfer(next_eip, "fallthrough")
            self.cpu.eip = next_eip

    def _op_call(self, instr: Instruction, next_eip: int) -> None:
        target_op = instr.operands[0]
        if isinstance(target_op, ImportRef):
            self.cycles += self.costs.import_call
            self._transfer(next_eip, "import")
            esp = self.cpu.get(ESP)
            if self.trace_sink is not None:
                count = vararg_counter(target_op.name)
                if count is not None:
                    self.trace_sink.varargs(self.cpu.eip,
                                            count(self.mem, esp))
            result = self.libc.call(target_op.name, StackArgs(self.mem, esp))
            self.cpu.set_name("eax", result)
            self.cpu.eip = next_eip
            return
        target = self._read(target_op)
        esp = (self.cpu.get(ESP) - 4) & MASK32
        self.cpu.set(ESP, esp)
        self.mem.write(esp, 4, next_eip)
        self._transfer(target, "call")
        self.cpu.eip = target

    def _op_ret(self, instr: Instruction, next_eip: int) -> None:
        esp = self.cpu.get(ESP)
        target = self.mem.read(esp, 4)
        self.cpu.set(ESP, (esp + 4) & MASK32)
        if target == EXIT_SENTINEL:
            self._halted = self.cpu.get_name("eax")
            return
        self._transfer(target, "ret")
        self.cpu.eip = target

    def _op_leave(self, instr: Instruction, next_eip: int) -> None:
        ebp = self.cpu.get_name("ebp")
        self.cpu.set(ESP, ebp)
        self.cpu.set_name("ebp", self.mem.read(ebp, 4))
        self.cpu.set(ESP, (ebp + 4) & MASK32)
        self.cpu.eip = next_eip

    def _op_setcc(self, instr: Instruction, next_eip: int) -> None:
        self._write(instr.operands[0],
                    1 if self.cpu.flags.condition(instr.cc) else 0)
        self.cpu.eip = next_eip

    def _op_nop(self, instr: Instruction, next_eip: int) -> None:
        self.cpu.eip = next_eip

    def _op_hlt(self, instr: Instruction, next_eip: int) -> None:
        self._halted = self.cpu.get_name("eax")


_HANDLERS: dict[str, Callable[[Machine, Instruction, int], None]] = {
    name[4:]: getattr(Machine, name)
    for name in dir(Machine) if name.startswith("_op_")
}


def run_binary(image: BinaryImage,
               input_items: list[int | bytes] | None = None,
               trace_sink: ControlSink | None = None,
               costs: CostModel = DEFAULT_COSTS,
               max_instructions: int = 80_000_000,
               use_blocks: bool = True,
               blocks: BlockCache | None = None) -> RunResult:
    """Convenience wrapper: load, run, and return the result."""
    machine = Machine(image, list(input_items or []), costs=costs,
                      max_instructions=max_instructions,
                      trace_sink=trace_sink, use_blocks=use_blocks,
                      blocks=blocks)
    return machine.run()
