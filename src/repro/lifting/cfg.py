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
from ..isa.disassembler import Disassembler, shared_disassembler
from ..isa.instructions import Instruction


@dataclass
class MachineBlock:
    """A traced basic block: consecutive executed instructions."""

    start: int
    instrs: list[Instruction] = field(default_factory=list)
    #: Traced intra-procedural successors (addresses).
    succs: list[int] = field(default_factory=list)
    #: True if the block's terminator had an untraced direction.
    has_untraced_edge: bool = False

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
    #: Instruction addresses added by static coverage extension (empty
    #: without ``static_extend``); blocks rooted here carry no dynamic
    #: evidence, which downstream analyses report as provenance.
    static_addrs: set[int] = field(default_factory=set)

    def block_at(self, addr: int) -> MachineBlock:
        try:
            return self.blocks[addr]
        except KeyError:
            raise LiftError(f"no traced block at {addr:#x}") from None


_BLOCK_ENDERS = frozenset({"jmp", "jcc", "ret", "hlt"})


def recover_cfg(traces: TraceSet,
                static_extend: bool = False) -> RecoveredCFG:
    """Build basic blocks and edges from the merged trace set.

    With ``static_extend`` (the paper's §7.2 hybrid direction), untraced
    conditional-branch directions and direct jump/call targets are grown
    by *static* disassembly, so inputs that stray slightly off the traced
    paths no longer trap.  Statically-added code contributes no dynamic
    bounds, so its stack references fall back to the conservative
    attachment rules during symbolization.
    """
    image = traces.image
    disasm = shared_disassembler(image)
    executed = set(traces.executed)
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

    static_addrs: set[int] = set()
    if static_extend:
        static_addrs = _extend_statically(image, disasm, executed,
                                          leaders, jump_edges,
                                          call_edges)

    # Split on leaders: walk each leader forward through executed code.
    cfg = RecoveredCFG(image, entry=image.entry,
                       static_addrs=static_addrs)
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
            taken = sorted(jump_edges.get(addr, ()))
            block.succs = taken
            if len(taken) < 2:
                block.has_untraced_edge = True
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


def _extend_statically(image, disasm: Disassembler, executed: set[int],
                       leaders: set[int], jump_edges: dict,
                       call_edges: dict) -> set[int]:
    """Grow coverage along statically decodable, untraced paths.

    Starting from the untraced sides of traced conditional branches,
    decode forward; direct branch/call targets join the worklist.
    Indirect control flow stops growth (its targets stay
    trace-only, keeping the dynamic discipline where statics cannot
    help).  Returns the set of instruction addresses it added.
    """
    from ..isa.instructions import Imm, ImportRef

    added: set[int] = set()
    work: list[int] = []

    def want(addr: int) -> None:
        if image.text.contains(addr) and addr not in executed:
            work.append(addr)

    for addr in list(executed):
        instr = disasm.at(addr)
        if instr.mnemonic == "jcc":
            target = instr.operands[0].value
            fall = addr + instr.size
            # Complete the traced branch with its untraced direction.
            jump_edges.setdefault(addr, set()).update(
                t for t in (target, fall) if image.text.contains(t))
            leaders.update(t for t in (target, fall)
                           if image.text.contains(t))
            want(target)
            want(fall)
        elif instr.mnemonic == "jmp" and isinstance(instr.operands[0],
                                                    Imm):
            want(instr.operands[0].value)

    budget = 20000
    while work and budget > 0:
        addr = work.pop()
        if addr in executed or not image.text.contains(addr):
            continue
        leaders.add(addr)
        while image.text.contains(addr) and addr not in executed \
                and budget > 0:
            budget -= 1
            instr = disasm.at(addr)
            executed.add(addr)
            added.add(addr)
            nxt = addr + instr.size
            if instr.mnemonic == "jcc":
                target = instr.operands[0].value
                jump_edges.setdefault(addr, set()).update({target, nxt})
                leaders.update({target, nxt})
                want(target)
                want(nxt)
                break
            if instr.mnemonic == "jmp":
                op = instr.operands[0]
                if isinstance(op, Imm):
                    jump_edges.setdefault(addr, set()).add(op.value)
                    leaders.add(op.value)
                    want(op.value)
                break
            if instr.mnemonic == "call":
                op = instr.operands[0]
                if isinstance(op, Imm):
                    call_edges.setdefault(addr, set()).add(op.value)
                    leaders.update({op.value, nxt})
                    want(op.value)
                    want(nxt)
                elif isinstance(op, ImportRef):
                    leaders.add(nxt)
                    want(nxt)
                else:
                    break  # indirect call: stop static growth here
                break
            if instr.mnemonic in ("ret", "hlt"):
                break
            if nxt in leaders:
                want(nxt)
                break
            addr = nxt
    return added
