"""Dynamic CFG recovery from merged execution traces.

Only instructions that actually executed are decoded and lifted — the
BinRec discipline.  Conditional directions that were never traced become
trap ("unreachable") edges; executing one in the recompiled binary is the
coverage failure mode the paper discusses in §7.2, fixed by incremental
re-lifting with more inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..binary.image import BinaryImage
from ..emu.tracer import TraceSet
from ..errors import LiftError
from ..isa.disassembler import shared_disassembler
from ..isa.instructions import Instruction


@dataclass
class MachineBlock:
    """A traced basic block: consecutive executed instructions."""

    start: int
    instrs: list[Instruction] = field(default_factory=list)
    #: Traced intra-procedural successors (addresses).
    succs: list[int] = field(default_factory=list)

    @property
    def end(self) -> int:
        last = self.instrs[-1]
        return last.addr + last.size

    @property
    def terminator(self) -> Instruction:
        return self.instrs[-1]


@dataclass
class RecoveredCFG:
    """The merged interprocedural CFG of the traced program."""

    image: BinaryImage
    blocks: dict[int, MachineBlock] = field(default_factory=dict)
    #: Direct + indirect call edges: call-site address -> target set.
    call_targets: dict[int, set[int]] = field(default_factory=dict)
    #: Observed indirect jump targets: jump-site address -> target set.
    jump_targets: dict[int, set[int]] = field(default_factory=dict)
    entry: int = 0

    def block_at(self, addr: int) -> MachineBlock:
        try:
            return self.blocks[addr]
        except KeyError:
            raise LiftError(f"no traced block at {addr:#x}") from None


_BLOCK_ENDERS = frozenset({"jmp", "jcc", "ret", "hlt"})


def recover_cfg(traces: TraceSet) -> RecoveredCFG:
    """Build basic blocks and edges from the merged trace set."""
    image = traces.image
    disasm = shared_disassembler(image)
    executed = traces.executed
    if image.entry not in executed:
        raise LiftError("entry point never executed in traces")

    # Instruction-level successor map from the trace events.
    jump_edges: dict[int, set[int]] = {}
    call_edges: dict[int, set[int]] = {}
    leaders: set[int] = {image.entry}
    for t in traces.transfers:
        if t.kind in ("jump", "fallthrough"):
            jump_edges.setdefault(t.src, set()).add(t.dst)
            leaders.add(t.dst)
        elif t.kind == "call":
            call_edges.setdefault(t.src, set()).add(t.dst)
            leaders.add(t.dst)
            instr = disasm.at(t.src)
            leaders.add(t.src + instr.size)  # return site
        elif t.kind == "ret":
            leaders.add(t.dst)
        elif t.kind == "import":
            leaders.add(t.dst)

    # Split on leaders: walk each leader forward through executed code.
    cfg = RecoveredCFG(image, entry=image.entry)
    for leader in sorted(leaders):
        if leader not in executed or leader in cfg.blocks:
            continue
        block = MachineBlock(leader)
        addr = leader
        while True:
            instr = disasm.at(addr)
            block.instrs.append(instr)
            nxt = addr + instr.size
            if instr.mnemonic in _BLOCK_ENDERS:
                break
            if instr.mnemonic == "call":
                # Calls end blocks; the return site starts a new one.
                break
            if nxt in leaders:
                break
            if nxt not in executed:
                # Trace stopped mid-flow (e.g. exit inside an import).
                break
            addr = nxt
        cfg.blocks[leader] = block

    # Successor edges.
    for block in cfg.blocks.values():
        term = block.terminator
        addr = term.addr
        if term.mnemonic == "jmp":
            targets = sorted(jump_edges.get(addr, ()))
            block.succs = targets
            if len(targets) > 1 or _is_indirect(term):
                cfg.jump_targets[addr] = set(targets)
        elif term.mnemonic == "jcc":
            block.succs = sorted(jump_edges.get(addr, ()))
        elif term.mnemonic == "call":
            from ..isa.instructions import ImportRef
            if isinstance(term.operands[0], ImportRef):
                ret_site = addr + term.size
                block.succs = [ret_site] if ret_site in cfg.blocks else []
            else:
                cfg.call_targets[addr] = set(call_edges.get(addr, ()))
                ret_site = addr + term.size
                block.succs = [ret_site] if ret_site in cfg.blocks else []
        elif term.mnemonic in ("ret", "hlt"):
            block.succs = []
        else:
            # Fallthrough into the next leader.
            nxt = block.end
            block.succs = [nxt] if nxt in cfg.blocks else []
    return cfg


def _is_indirect(instr: Instruction) -> bool:
    from ..isa.instructions import Imm
    return not isinstance(instr.operands[0], Imm)
