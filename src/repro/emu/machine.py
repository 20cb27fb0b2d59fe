"""The machine emulator: executes repro-ISA binaries.

It runs each binary through the superblock engine of
:mod:`repro.emu.blocks`, which holds every instruction's semantics;
this module owns the machine state, the run loop and its accounting.
A :class:`Machine` exposes what the compiled templates read on every
instruction one attribute away: ``regs``, the CPU's register list
itself, and ``page_of``, its memory's page lookup.  The run loop finds
each block in the cache's block map and asks the cache to build one
only on a miss.
It plays two roles from the paper's architecture (Figure 4):

* the **binary tracer** (S2E's role) — with a :class:`~repro.emu.tracer.
  Tracer` attached it records every control transfer and executed address
  for a set of user-provided inputs; and
* the **measurement host** — it accumulates cycle costs under the shared
  :class:`~repro.emu.costs.CostModel`, producing the runtime numbers that
  Table 1 and Figure 6 normalize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..binary.image import STACK_SIZE, STACK_TOP, BinaryImage
from ..errors import EmulationError
from ..isa.registers import ESP
from ..obs import recorder as _obs_recorder
from .blocks import EXIT_SENTINEL, BlockCache, shared_block_cache
from .cpu import CPU
from .costs import DEFAULT_COSTS, CostModel
from .libc import ExitProgram, LibC
from .memory import Memory

__all__ = ["ControlSink", "EXIT_SENTINEL", "Machine", "RunResult",
           "run_binary"]


class ControlSink(Protocol):
    """Receiver of dynamic control-transfer events (the trace consumer).

    ``transfer(edge)`` reports one control transfer as a ``(src, dst,
    kind)`` tuple, which the terminator templates build once when the
    target is static.  ``varargs(src, count)`` reports that the variadic
    import call at ``src`` passed ``count`` arguments
    (:func:`~repro.emu.libc.vararg_counter`).
    """

    def transfer(self, edge: tuple[int, int, str]) -> None: ...

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
    #: Optional pre-built block cache shared across machines (must be
    #: built over the same image and an equal cost model).
    blocks: BlockCache | None = None

    def __post_init__(self) -> None:
        self.mem = Memory()
        self.mem.load_image(self.image)
        #: The memory's page lookup (see :attr:`Memory.page_of`), read by
        #: the templates' inline word paths.
        self.page_of = self.mem.page_of
        self.cpu = CPU()
        #: The CPU's register list itself, one attribute away from the
        #: compiled templates.
        self.regs = self.cpu.regs
        self.libc = LibC(self.mem, self.input_items)
        if self.blocks is None or self.blocks.costs != self.costs:
            self.blocks = shared_block_cache(self.image, self.costs)
        self.cycles = 0
        self.instructions = 0
        self._halted: int | None = None

    # -- execution ----------------------------------------------------------

    def run(self) -> RunResult:
        """Run from the image entry point until ``hlt``, ``exit``, or a
        return from the entry function."""
        self.cpu.eip = self.image.entry
        self.cpu.set(ESP, STACK_TOP - 4)
        self.mem.write(STACK_TOP - 4, 4, EXIT_SENTINEL)
        rec = _obs_recorder()
        try:
            self._run_blocks(rec)
        except ExitProgram as exc:
            self._halted = exc.code
        if rec is not None:
            registry = rec.registry
            registry.count("emu.runs")
            registry.count("emu.instructions_retired", self.instructions)
            registry.count("emu.cycles", self.cycles)
            registry.gauge("emu.block_cache.size", len(self.blocks._blocks))
        return RunResult(self._halted, bytes(self.libc.stdout),
                         self.cycles, self.instructions)

    def _run_blocks(self, rec) -> None:
        """Superblock loop: decode-once blocks of pre-compiled closures.

        The loop reads the cache's block map itself and asks the cache
        to build a block only on a miss.  Coverage callbacks fire once
        per block per machine — sinks see each executed address at least
        once, and coverage is a set, so repeat visits add nothing.  With
        a recorder (``rec``) the loop also counts block-cache hits and
        misses and profiles how often each block runs.
        """
        blocks = self.blocks
        block_map = blocks._blocks
        block_at = blocks.block_at
        hot = rec.registry.profile("emu.hot_blocks").counts \
            if rec is not None else None
        cpu = self.cpu
        sink = self.trace_sink
        seen: set[int] = set()
        budget = self.max_instructions
        hits = misses = 0
        try:
            while self._halted is None:
                addr = cpu.eip
                block = block_map.get(addr)
                if hot is not None:
                    if block is not None:
                        hits += 1
                    else:
                        misses += 1
                    hot[addr] = hot.get(addr, 0) + 1
                if block is None:
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
        finally:
            if rec is not None:
                registry = rec.registry
                registry.count("emu.block_cache.hit", hits)
                registry.count("emu.block_cache.miss", misses)


def run_binary(image: BinaryImage,
               input_items: list[int | bytes] | None = None,
               trace_sink: ControlSink | None = None,
               costs: CostModel = DEFAULT_COSTS,
               max_instructions: int = 80_000_000,
               blocks: BlockCache | None = None) -> RunResult:
    """Convenience wrapper: load, run, and return the result."""
    machine = Machine(image, list(input_items or []), costs=costs,
                      max_instructions=max_instructions,
                      trace_sink=trace_sink, blocks=blocks)
    return machine.run()
