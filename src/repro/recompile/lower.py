"""Lowering: repro IR -> repro machine code.

One backend serves two masters, exactly like LLVM does in the paper's
world:

* the MiniC compiler personalities lower their optimized IR through it to
  produce the *input binaries* (recording ground-truth stack layouts into
  the debug section on the way); and
* the recompiler lowers lifted/refined IR through it to produce the
  *recovered binaries* whose runtime Table 1 and Figure 6 measure.

Design notes:

* block-local linear-scan register allocation; values live across blocks
  or across calls sit in frame slots (eax/edx are reserved scratch);
* cdecl-style calls: arguments pushed right-to-left, caller cleanup;
* multi-result calls (lifted register-file signatures) return results in
  the fixed sequence eax, ecx, edx, ebx, esi, edi, ebp — result registers
  are exempt from the callee-saved contract;
* loads/stores fold single-use address arithmetic into ``[ebp-20]`` /
  ``[esp+12+eax]`` style operands — producing exactly the direct stack
  reference idiom WYTIWYG's refinements must untangle;
* variadic external calls lifted without recovered prototypes use *stack
  switching* (paper §5.2): esp is pointed at the emulated stack argument
  area for the duration of the call.

Every function is lowered cold, by a fresh :class:`FunctionLowerer`;
nothing is kept between calls.  Lowering also rewrites the IR, since
:meth:`FunctionLowerer._split_phi_edges` splits critical phi edges in
place before code emission, so lowering two equal modules leaves them
equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..binary.image import FrameGroundTruth, StackObject
from ..errors import LowerError
from ..ir.module import Block, Function, Module
from ..ir.values import (
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
from ..isa import (
    AsmFunction,
    DataItem,
    EAX,
    EBP,
    EBX,
    ECX,
    EDI,
    EDX,
    ESI,
    ESP,
    Imm,
    ImportRef,
    Label,
    Mem,
    Reg,
    ins,
    jcc,
    setcc,
)
from ..isa.registers import CL

#: Registers used to return multiple results (lifted signatures).
RESULT_REGS = (EAX, ECX, EDX, EBX, ESI, EDI, EBP)

_CC_FOR_PRED = {
    "eq": "e", "ne": "ne", "slt": "l", "sle": "le", "sgt": "g",
    "sge": "ge", "ult": "b", "ule": "be", "ugt": "a", "uge": "ae",
}

_NEGATE_CC = {
    "e": "ne", "ne": "e", "l": "ge", "le": "g", "g": "le", "ge": "l",
    "b": "ae", "be": "a", "a": "be", "ae": "b", "s": "ns", "ns": "s",
}

_REG_BY_NAME = {"eax": EAX, "ecx": ECX, "edx": EDX, "ebx": EBX,
                "esp": ESP, "ebp": EBP, "esi": ESI, "edi": EDI}

#: Name of the module global used by stack switching.
STACK_SWITCH_SAVE = "__stack_switch_save"

#: Name of the generated original-address-to-new-address resolver.
RESOLVER_NAME = "__resolve_addr"


def build_resolver(address_table: dict[int, str],
                   trap_code: int = 198) -> AsmFunction:
    """Generate the indirect-call dispatcher for a lifted module.

    Custom convention: original code address in eax on entry, recompiled
    entry address in eax on return; flags clobbered.
    """
    asm = AsmFunction(RESOLVER_NAME)
    entries = sorted(address_table.items())
    for i, (orig, _name) in enumerate(entries):
        asm.emit(ins("cmp", EAX, Imm(orig)))
        asm.emit(jcc("e", Label(f"{RESOLVER_NAME}.{i}")))
    asm.emit(ins("mov", EAX, Imm(trap_code),
                 comment="indirect target not in address table"))
    asm.emit(ins("hlt"))
    for i, (_orig, name) in enumerate(entries):
        asm.label(f"{RESOLVER_NAME}.{i}")
        asm.emit(ins("mov", EAX, Label(name)))
        asm.emit(ins("ret"))
    return asm


@dataclass(frozen=True)
class LowerOptions:
    """Backend configuration (what compiler personalities tweak)."""

    frame_pointer: bool = True
    #: Registers available for block-local values (beyond eax/edx scratch).
    pool: tuple[str, ...] = ("ecx", "ebx", "esi", "edi")
    jump_tables: bool = True
    #: Fold add-chains into addressing modes (legacy compilers keep the
    #: arithmetic explicit and only use direct [frame+disp] operands).
    fold_chains: bool = True
    #: Run the redundant-move peephole (legacy compilers did not).
    peephole: bool = True
    #: Promote loop-carried phis into dedicated callee-saved registers.
    promote_phis: bool = True
    #: Exit code used when a recompiled binary reaches an untraced path.
    trap_code: int = 199


@dataclass
class _Location:
    kind: str           # "reg" | "slot"
    reg: Reg | None = None
    offset: int = 0


@dataclass
class _FoldedAddr:
    """A load/store address folded into one addressing-mode operand.

    Invariant maintained by the matcher: at most one of base/index needs
    materialization, so ``edx`` suffices as address scratch and ``eax``
    stays free for the value path.
    """

    base: Value | None
    index: Value | None
    disp: int
    label: Label | None = None


class FunctionLowerer:
    """Lowers one IR function to assembly items."""

    def __init__(self, func: Function, module: Module,
                 options: LowerOptions):
        self.func = func
        self.module = module
        self.options = options
        self.asm = AsmFunction(func.name)
        self.pool = [_REG_BY_NAME[r] for r in options.pool]
        self.locs: dict[Value, _Location] = {}
        self.alloca_offsets: dict[Alloca, int] = {}
        self.frame_size = 0
        self.used_callee_saved: set[str] = set()
        self.push_depth = 0
        self.folded: dict[Instr, _FoldedAddr] = {}
        self.dead: set[Instr] = set()
        self.fused_icmps: set[ICmp] = set()
        self.data_items: list[DataItem] = []
        self.ground_truth: FrameGroundTruth | None = None
        self._table_counter = 0
        self._save_slots: dict[str, int] = {}
        self._slot_cursor = 0
        #: Result registers of this function are exempt from preservation.
        self._result_reg_names = {r.name for r
                                  in RESULT_REGS[:func.nresults]} \
            if func.nresults > 1 else set()

    # ------------------------------------------------------------------ utils

    def _block_label(self, block: Block) -> str:
        return f"{self.func.name}.{block.name}"

    def emit(self, instr) -> None:
        self.asm.emit(instr)
        if instr.mnemonic == "push":
            self.push_depth += 4
        elif instr.mnemonic == "pop":
            self.push_depth -= 4
        elif instr.mnemonic in ("add", "sub") \
                and instr.operands and instr.operands[0] == ESP \
                and isinstance(instr.operands[1], Imm):
            delta = instr.operands[1].value
            self.push_depth += -delta if instr.mnemonic == "add" else delta

    def _slot_mem(self, offset: int, size: int = 4) -> Mem:
        if self.options.frame_pointer:
            return Mem(EBP, disp=offset - self.frame_size, size=size)
        return Mem(ESP, disp=offset + self.push_depth, size=size)

    def _arg_mem(self, index: int) -> Mem:
        if self.options.frame_pointer:
            return Mem(EBP, disp=8 + 4 * index)
        return Mem(ESP, disp=self.frame_size + 4 + 4 * index
                   + self.push_depth)

    def _sp0_offset(self, frame_offset: int) -> int:
        if self.options.frame_pointer:
            return frame_offset - self.frame_size - 4
        return frame_offset - self.frame_size

    @property
    def frame_reg(self) -> Reg:
        return EBP if self.options.frame_pointer else ESP

    # ------------------------------------------------------------- analyses

    def _use_counts(self) -> dict[Value, int]:
        counts: dict[Value, int] = {}
        for instr in self.func.instructions():
            for op in instr.operands():
                if isinstance(op, Instr):
                    counts[op] = counts.get(op, 0) + 1
        return counts

    def _collect_fused_icmps(self) -> None:
        counts = self._use_counts()
        for block in self.func.blocks:
            term = block.instrs[-1] if block.instrs else None
            if isinstance(term, CondBr) and isinstance(term.cond, ICmp):
                cond = term.cond
                if counts.get(cond, 0) == 1 and cond.block is block:
                    self.fused_icmps.add(cond)
                    self.dead.add(cond)

    def _fold_addresses(self) -> None:
        counts = self._use_counts()
        for instr in self.func.instructions():
            if not isinstance(instr, (Load, Store)):
                continue
            matched = self._match_addr(instr.ops[0], counts,
                                       allow_index=True)
            if matched is not None and self._needs_two_scratch(matched):
                matched = self._match_addr(instr.ops[0], counts,
                                           allow_index=False)
            if matched is None:
                continue
            folded, consumed = matched
            self.folded[instr] = folded
            self.dead.update(consumed)

    @staticmethod
    def _needs_two_scratch(matched) -> bool:
        folded, _consumed = matched
        base_generic = folded.base is not None and \
            not isinstance(folded.base, Alloca)
        return base_generic and folded.index is not None

    def _match_addr(self, addr: Value, counts: dict[Value, int],
                    allow_index: bool):
        """Try to express ``addr`` as base + index + disp (+label).

        Returns (folded, consumed_nodes) or None. Does not mutate state.
        """
        disp = 0
        index: Value | None = None
        node = addr
        consumed: list[Instr] = []
        peel_budget = 6 if self.options.fold_chains else 0
        for _ in range(peel_budget):
            if isinstance(node, BinOp) and node.opcode == "add" \
                    and counts.get(node, 0) == 1 \
                    and node not in self.dead:
                if isinstance(node.rhs, Const):
                    disp += node.rhs.signed
                    consumed.append(node)
                    node = node.lhs
                    continue
                if allow_index and index is None \
                        and not isinstance(node.lhs, Const):
                    index = node.rhs
                    consumed.append(node)
                    node = node.lhs
                    continue
            break
        if isinstance(node, Alloca):
            return _FoldedAddr(node, index, disp), consumed
        if isinstance(node, GlobalRef):
            return (_FoldedAddr(None, index, 0,
                                label=Label(node.name, disp)), consumed)
        if isinstance(node, Const):
            return _FoldedAddr(None, index, disp + node.signed), consumed
        if not consumed and index is None:
            return None  # nothing folded: use the value's location
        return _FoldedAddr(node, index, disp), consumed

    def _clobbers_ebp(self) -> bool:
        """Does this function (or its calls) overwrite ebp as data?"""
        if self.options.frame_pointer:
            return False
        if self.func.nresults >= 7:
            return True
        for instr in self.func.instructions():
            if isinstance(instr, (Call, CallInd)) and instr.nresults >= 7:
                return True
        return False

    def _assign_frame(self) -> None:
        offset = 0
        save_candidates = [r.name for r in self.pool
                           if r.name in ("ebx", "esi", "edi")]
        if self._clobbers_ebp():
            save_candidates.append("ebp")
        for name in save_candidates:
            self._save_slots[name] = offset
            offset += 4
        self._alloca_start = offset
        for alloca in self.func.instructions():
            if not isinstance(alloca, Alloca):
                continue
            align = max(alloca.align, 4)
            offset = (offset + align - 1) & ~(align - 1)
            self.alloca_offsets[alloca] = offset
            offset += max(alloca.size, 1)
        offset = (offset + 3) & ~3
        self._alloca_end = offset
        self._slot_cursor = offset

    def _new_slot(self) -> int:
        slot = self._slot_cursor
        self._slot_cursor += 4
        return slot

    def _allocate_registers(self) -> None:
        cross: set[Instr] = set()
        multi_calls: set[Instr] = set()
        has_internal_calls = False
        phis: list[Phi] = []
        use_counts: dict[Instr, int] = {}
        for block in self.func.blocks:
            for instr in block.instrs:
                if isinstance(instr, Phi):
                    cross.add(instr)
                    phis.append(instr)
                    # Phi operands are consumed on the incoming *edge*:
                    # a value defined anywhere but that predecessor must
                    # survive across blocks.
                    for pred, value in instr.incomings():
                        if isinstance(value, Instr):
                            use_counts[value] = \
                                use_counts.get(value, 0) + 1
                            if value.block is not pred:
                                cross.add(value)
                    continue
                if isinstance(instr, (Call, CallInd)):
                    has_internal_calls = True
                    if instr.nresults > 1:
                        multi_calls.add(instr)
                for op in instr.operands():
                    if isinstance(op, Instr):
                        use_counts[op] = use_counts.get(op, 0) + 1
                        if op.block is not block:
                            cross.add(op)
                # Address folding peels chains that may span blocks; the
                # surviving leaves are consumed at the memory op itself.
                folded = self.folded.get(instr)
                if folded is not None:
                    for leaf in (folded.base, folded.index):
                        if isinstance(leaf, Instr) \
                                and leaf.block is not block:
                            cross.add(leaf)

        # Loop-carried values (phis) get dedicated callee-saved
        # registers: those survive internal single-result calls (callees
        # preserve them) and external calls (which only clobber eax).
        # Multi-result callees return *in* these registers, so calls with
        # more results shrink the candidate set -- unsymbolized lifted
        # code gets no promotion, symbolized code gets it back, and the
        # legacy pool only ever offers ebx.
        max_nresults = 1
        for block in self.func.blocks:
            for instr in block.instrs:
                if isinstance(instr, (Call, CallInd)):
                    max_nresults = max(max_nresults, instr.nresults)
        clobbered = {r.name for r in RESULT_REGS[:max_nresults]}
        dedicated: dict[Reg, Phi] = {}
        if phis and self.options.promote_phis:
            candidates = [r for r in self.pool
                          if r.name in ("ebx", "esi", "edi")
                          and r.name not in clobbered]
            for phi in sorted(phis, key=lambda p: -use_counts.get(p, 0)):
                if not candidates:
                    break
                reg = candidates.pop()
                dedicated[reg] = phi
                self.locs[phi] = _Location("reg", reg=reg)
                self.used_callee_saved.add(reg.name)
        block_pool = [r for r in self.pool if r not in dedicated]

        for block in self.func.blocks:
            last_use: dict[Instr, int] = {}
            call_positions: list[int] = []
            for idx, instr in enumerate(block.instrs):
                # Only internal calls clobber the pool; external calls
                # preserve everything except eax/edx scratch.
                if isinstance(instr, (Call, CallInd)):
                    call_positions.append(idx)
                for op in instr.operands():
                    if isinstance(op, Instr):
                        last_use[op] = idx
                folded = self.folded.get(instr)
                if folded is not None:
                    for leaf in (folded.base, folded.index):
                        if isinstance(leaf, Instr):
                            last_use[leaf] = idx
                if instr.is_terminator:
                    # Successor phis consume their incoming values at
                    # this block's end (the edge copies emitted before
                    # the branch).
                    for succ in instr.successors():
                        for phi in succ.phis():
                            for pred, value in phi.incomings():
                                if pred is block and \
                                        isinstance(value, Instr):
                                    last_use[value] = idx

            free = list(block_pool)
            active: list[tuple[int, Reg]] = []  # (end, reg)
            for idx, instr in enumerate(block.instrs):
                if instr in self.dead or instr in self.locs \
                        or not instr.has_result \
                        or isinstance(instr, (Alloca, Intrinsic)):
                    continue
                if instr in cross or isinstance(instr, Phi) \
                        or (isinstance(instr, Result)
                            and instr.call in multi_calls):
                    self.locs[instr] = _Location(
                        "slot", offset=self._new_slot())
                    continue
                end = last_use.get(instr)
                if end is None:
                    self.locs[instr] = _Location(
                        "slot", offset=self._new_slot())
                    continue
                if any(idx < c < end for c in call_positions):
                    self.locs[instr] = _Location(
                        "slot", offset=self._new_slot())
                    continue
                # Expire intervals that ended at or before this point.
                still_active = []
                for e, r in active:
                    if e <= idx:
                        free.append(r)
                    else:
                        still_active.append((e, r))
                active = still_active
                if free:
                    reg = free.pop(0)
                    active.append((end, reg))
                    self.locs[instr] = _Location("reg", reg=reg)
                    if reg.name in ("ebx", "esi", "edi"):
                        self.used_callee_saved.add(reg.name)
                else:
                    self.locs[instr] = _Location(
                        "slot", offset=self._new_slot())

        if self._clobbers_ebp() and self.func.nresults < 7:
            # ebp trashed by a multi-result callee; preserve it for our
            # own caller.
            self.used_callee_saved.add("ebp")
        self.frame_size = (self._slot_cursor + 15) & ~15

    # ------------------------------------------------------- operand access

    def _operand(self, v: Value, scratch: Reg) -> Reg | Imm | Mem | Label:
        if isinstance(v, Const):
            return Imm(v.signed)
        if isinstance(v, (GlobalRef, FuncRef)):
            return Label(v.name)
        if isinstance(v, Param):
            return self._arg_mem(v.index)
        if isinstance(v, Alloca):
            off = self.alloca_offsets[v]
            self.emit(ins("lea", scratch, self._slot_mem(off),
                          comment=f"&{v.var_name or 'alloca'}"))
            return scratch
        loc = self.locs.get(v)
        if loc is None:
            raise LowerError(f"{self.func.name}: no location for {v!r}")
        if loc.kind == "reg":
            return loc.reg
        return self._slot_mem(loc.offset)

    def _to_reg(self, v: Value, scratch: Reg) -> Reg:
        op = self._operand(v, scratch)
        if isinstance(op, Reg):
            return op
        self.emit(ins("mov", scratch, op))
        return scratch

    def _store_result(self, instr: Instr, src: Reg) -> None:
        loc = self.locs.get(instr)
        if loc is None:
            return
        if loc.kind == "reg":
            if loc.reg != src:
                self.emit(ins("mov", loc.reg, src))
        else:
            self.emit(ins("mov", self._slot_mem(loc.offset), src))

    def _mem_operand(self, instr: Instr, size: int) -> Mem:
        """Addressing-mode operand for a load/store; uses edx only."""
        folded = self.folded.get(instr)
        if folded is None:
            reg = self._to_reg(instr.ops[0], EDX)
            return Mem(reg, disp=0, size=size)
        disp = folded.disp
        label = folded.label
        base_reg: Reg | None = None
        index_reg: Reg | None = None
        if isinstance(folded.base, Alloca):
            base_reg = self.frame_reg
            base_off = self.alloca_offsets[folded.base]
            if self.options.frame_pointer:
                disp += base_off - self.frame_size
            else:
                disp += base_off + self.push_depth
        elif folded.base is not None:
            base_reg = self._to_reg(folded.base, EDX)
        if folded.index is not None:
            op = self._operand(folded.index, EDX)
            if isinstance(op, Reg):
                index_reg = op
            elif isinstance(op, Imm):
                disp += op.value
            else:
                if base_reg is EDX:
                    raise LowerError("address fold needs two scratch regs")
                self.emit(ins("mov", EDX, op))
                index_reg = EDX
        if label is not None:
            return Mem(base_reg, index_reg, 1,
                       Label(label.name, label.addend + disp), size)
        return Mem(base_reg, index_reg, 1, disp, size)

    # ------------------------------------------------------------- emission

    def lower(self) -> AsmFunction:
        self._split_phi_edges()
        self._collect_fused_icmps()
        self._fold_addresses()
        self._assign_frame()
        self._allocate_registers()
        self._emit_prologue()
        for bi, block in enumerate(self.func.blocks):
            if bi != 0:
                self.asm.label(self._block_label(block))
            self.push_depth = 0  # blocks begin with a balanced stack
            next_block = self.func.blocks[bi + 1] \
                if bi + 1 < len(self.func.blocks) else None
            for instr in block.instrs:
                if instr in self.dead:
                    continue
                self._emit_instr(block, instr, next_block)
        if self.options.peephole:
            self._peephole()
        self._record_ground_truth()
        return self.asm

    def _peephole(self) -> None:
        """Drop redundant move pairs the templates produce.

        ``mov A, B`` immediately followed by ``mov B, A`` leaves both
        locations equal after the first instruction, so the second is
        dead; ``mov A, A`` is dead outright.  Moves never touch flags and
        adjacency guarantees no esp adjustment in between, so the rewrite
        is safe for both register and frame-slot operands.
        """
        out: list = []
        for item in self.asm.items:
            if isinstance(item, str):
                out.append(item)
                continue
            if item.mnemonic == "mov" and len(item.operands) == 2:
                dst, src = item.operands
                if dst == src:
                    continue
                prev = out[-1] if out and not isinstance(out[-1], str) \
                    else None
                if prev is not None and prev.mnemonic == "mov" \
                        and len(prev.operands) == 2 \
                        and prev.operands[0] == src \
                        and prev.operands[1] == dst:
                    continue
            out.append(item)
        self.asm.items = out

    def _split_phi_edges(self) -> None:
        """Insert blocks on edges from multi-successor blocks into blocks
        with phis, so phi copies can be placed on the edge."""
        work = True
        while work:
            work = False
            for block in list(self.func.blocks):
                term = block.terminator
                succs = term.successors()
                if len(succs) <= 1:
                    continue
                for succ in succs:
                    if not succ.phis():
                        continue
                    split = self.func.add_block(
                        f"{block.name}.to.{succ.name}",
                        index=self.func.blocks.index(block) + 1)
                    br = Br(succ)
                    br.block = split
                    split.instrs.append(br)
                    self._retarget(term, succ, split)
                    for phi in succ.phis():
                        phi.blocks = [split if b is block else b
                                      for b in phi.blocks]
                    work = True
                    break
                if work:
                    break

    @staticmethod
    def _retarget(term: Instr, old: Block, new: Block) -> None:
        if isinstance(term, CondBr):
            if term.if_true is old:
                term.if_true = new
            if term.if_false is old:
                term.if_false = new
        elif isinstance(term, Switch):
            term.cases = [(v, new if b is old else b)
                          for v, b in term.cases]
            if term.default is old:
                term.default = new
        elif isinstance(term, Br) and term.target is old:
            term.target = new

    def _preserved_regs(self) -> list[str]:
        return sorted(name for name in self.used_callee_saved
                      if name not in self._result_reg_names)

    def _emit_prologue(self) -> None:
        if self.options.frame_pointer:
            self.emit(ins("push", EBP, comment="sav ebp"))
            self.emit(ins("mov", EBP, ESP))
        if self.frame_size:
            self.emit(ins("sub", ESP, Imm(self.frame_size)))
        self.push_depth = 0
        for name in self._preserved_regs():
            self.emit(ins("mov", self._slot_mem(self._save_slots[name]),
                          _REG_BY_NAME[name], comment=f"save {name}"))

    def _emit_epilogue(self) -> None:
        for name in self._preserved_regs():
            self.emit(ins("mov", _REG_BY_NAME[name],
                          self._slot_mem(self._save_slots[name]),
                          comment=f"restore {name}"))
        if self.options.frame_pointer:
            self.emit(ins("leave"))
        elif self.frame_size:
            self.emit(ins("add", ESP, Imm(self.frame_size)))
        self.emit(ins("ret"))

    def _emit_phi_copies(self, block: Block, succ: Block) -> None:
        phis = succ.phis()
        if not phis:
            return
        # Push all incoming values, then pop into the phi slots in reverse:
        # clobber-free even for swap patterns.
        for phi in phis:
            op = self._operand(phi.value_for(block), EAX)
            if isinstance(op, Label):
                self.emit(ins("mov", EAX, op))
                op = EAX
            self.emit(ins("push", op))
        for phi in reversed(phis):
            loc = self.locs[phi]
            if loc.kind == "reg":
                self.emit(ins("pop", loc.reg))
            else:
                self.emit(ins("pop", self._slot_mem(loc.offset)))

    def _emit_instr(self, block: Block, instr: Instr,
                    next_block: Block | None) -> None:
        if isinstance(instr, (Phi, Alloca, Result)):
            return
        if isinstance(instr, Intrinsic):
            raise LowerError("instrumentation probe reached lowering; "
                             "strip probes before recompiling")
        if isinstance(instr, BinOp):
            self._emit_binop(instr)
        elif isinstance(instr, Unary):
            self._emit_unary(instr)
        elif isinstance(instr, ICmp):
            self._emit_icmp_value(instr)
        elif isinstance(instr, Load):
            mem = self._mem_operand(instr, instr.size)
            if instr.size == 4:
                self.emit(ins("mov", EAX, mem))
            else:
                self.emit(ins("movzx", EAX, mem))
            self._store_result(instr, EAX)
        elif isinstance(instr, Store):
            self._emit_store(instr)
        elif isinstance(instr, (Call, CallInd)):
            self._emit_call(instr)
        elif isinstance(instr, CallExt):
            self._emit_callext(instr)
        elif isinstance(instr, Br):
            self._emit_phi_copies(block, instr.target)
            if instr.target is not next_block:
                self.emit(ins("jmp",
                              Label(self._block_label(instr.target))))
        elif isinstance(instr, CondBr):
            self._assert_no_phi_succs(instr)
            self._emit_condbr(instr, next_block)
        elif isinstance(instr, Switch):
            self._assert_no_phi_succs(instr)
            self._emit_switch(instr)
        elif isinstance(instr, Ret):
            self._emit_ret(instr)
        elif isinstance(instr, Unreachable):
            self.emit(ins("mov", EAX, Imm(self.options.trap_code),
                          comment=f"trap: {instr.note}"))
            self.emit(ins("hlt"))
        else:
            raise LowerError(f"cannot lower {instr!r}")

    def _assert_no_phi_succs(self, term: Instr) -> None:
        for succ in term.successors():
            if succ.phis():
                raise LowerError(
                    f"{self.func.name}: multi-way edge into phi block "
                    f"{succ.name} survived edge splitting")

    # -------------------------------------------------------------- arithmetic

    def _emit_binop(self, instr: BinOp) -> None:
        op = instr.opcode
        if op in ("div", "rem"):
            self._emit_div(instr)
            return
        if op in ("shl", "shr", "sar") and not isinstance(instr.rhs,
                                                          Const):
            self._emit_var_shift(instr)
            return
        lhs_op = self._operand(instr.lhs, EAX)
        if lhs_op is not EAX:
            self.emit(ins("mov", EAX, lhs_op))
        rhs_op = self._operand(instr.rhs, EDX)
        if isinstance(rhs_op, Label):
            self.emit(ins("mov", EDX, rhs_op))
            rhs_op = EDX
        mnemonic = {"add": "add", "sub": "sub", "and": "and", "or": "or",
                    "xor": "xor", "mul": "imul", "shl": "shl",
                    "shr": "shr", "sar": "sar"}[op]
        self.emit(ins(mnemonic, EAX, rhs_op))
        self._store_result(instr, EAX)

    def _emit_div(self, instr: BinOp) -> None:
        lhs_op = self._operand(instr.lhs, EAX)
        if lhs_op is not EAX:
            self.emit(ins("mov", EAX, lhs_op))
        rhs_op = self._operand(instr.rhs, EDX)
        self.emit(ins("push", rhs_op))  # park divisor: idiv needs edx:eax
        self.emit(ins("cdq"))
        self.emit(ins("idiv", Mem(ESP, disp=0)))
        self.emit(ins("add", ESP, Imm(4)))
        self._store_result(instr, EAX if instr.opcode == "div" else EDX)

    def _emit_var_shift(self, instr: BinOp) -> None:
        lhs_op = self._operand(instr.lhs, EAX)
        if lhs_op is not EAX:
            self.emit(ins("mov", EAX, lhs_op))
        count_op = self._operand(instr.rhs, EDX)
        if count_op is not EDX:
            self.emit(ins("mov", EDX, count_op))
        self.emit(ins("push", ECX))
        self.emit(ins("mov", ECX, EDX))
        self.emit(ins(instr.opcode, EAX, CL))
        self.emit(ins("pop", ECX))
        self._store_result(instr, EAX)

    def _emit_unary(self, instr: Unary) -> None:
        op = instr.opcode
        src_op = self._operand(instr.src, EAX)
        if src_op is not EAX:
            self.emit(ins("mov", EAX, src_op))
        if op in ("neg", "not"):
            self.emit(ins(op, EAX))
        elif op == "sext8":
            self.emit(ins("movsx", EAX, Reg(0, 1)))
        elif op == "sext16":
            self.emit(ins("movsx", EAX, Reg(0, 2)))
        elif op in ("zext8", "trunc8"):
            self.emit(ins("movzx", EAX, Reg(0, 1)))
        elif op in ("zext16", "trunc16"):
            self.emit(ins("movzx", EAX, Reg(0, 2)))
        else:
            raise LowerError(f"cannot lower unary {op}")
        self._store_result(instr, EAX)

    def _emit_store(self, instr: Store) -> None:
        # Address first (uses edx only), then the value path (eax).
        mem = self._mem_operand(instr, instr.size)
        value_op = self._operand(instr.value, EAX)
        if isinstance(value_op, Label):
            self.emit(ins("mov", EAX, value_op))
            value_op = EAX
        if isinstance(value_op, Mem):
            self.emit(ins("mov", EAX, value_op))
            value_op = EAX
        if instr.size < 4:
            if isinstance(value_op, Imm):
                value_op = Imm(value_op.value
                               & ((1 << (8 * instr.size)) - 1))
            else:
                if value_op is not EAX:
                    self.emit(ins("mov", EAX, value_op))
                value_op = Reg(0, instr.size)  # al / ax
        self.emit(ins("mov", mem, value_op))

    def _emit_cmp(self, icmp: ICmp) -> str:
        lhs_op = self._operand(icmp.lhs, EAX)
        if isinstance(lhs_op, (Imm, Label)):
            self.emit(ins("mov", EAX, lhs_op))
            lhs_op = EAX
        rhs_op = self._operand(icmp.rhs, EDX)
        if isinstance(rhs_op, Label):
            self.emit(ins("mov", EDX, rhs_op))
            rhs_op = EDX
        if isinstance(lhs_op, Mem) and isinstance(rhs_op, Mem):
            self.emit(ins("mov", EAX, lhs_op))
            lhs_op = EAX
        self.emit(ins("cmp", lhs_op, rhs_op))
        return _CC_FOR_PRED[icmp.pred]

    def _emit_icmp_value(self, instr: ICmp) -> None:
        cc = self._emit_cmp(instr)
        self.emit(ins("mov", EDX, Imm(0)))
        self.emit(setcc(cc, Reg(2, 1)))  # dl
        self._store_result(instr, EDX)

    # ------------------------------------------------------------ control flow

    def _emit_condbr(self, instr: CondBr,
                     next_block: Block | None) -> None:
        if isinstance(instr.cond, ICmp) and instr.cond in self.fused_icmps:
            cc = self._emit_cmp(instr.cond)
        else:
            cond_op = self._operand(instr.cond, EAX)
            if isinstance(cond_op, (Imm, Label)):
                self.emit(ins("mov", EAX, cond_op))
                cond_op = EAX
            self.emit(ins("cmp", cond_op, Imm(0)))
            cc = "ne"
        true_label = Label(self._block_label(instr.if_true))
        false_label = Label(self._block_label(instr.if_false))
        if instr.if_false is next_block:
            self.emit(jcc(cc, true_label))
        elif instr.if_true is next_block:
            self.emit(jcc(_NEGATE_CC[cc], false_label))
        else:
            self.emit(jcc(cc, true_label))
            self.emit(ins("jmp", false_label))

    def _emit_switch(self, instr: Switch) -> None:
        value_reg = self._to_reg(instr.value, EAX)
        cases = sorted(instr.cases, key=lambda c: c[0] & 0xFFFFFFFF)
        default_label = Label(self._block_label(instr.default))
        values = [v & 0xFFFFFFFF for v, _ in cases]
        dense = (len(cases) >= 4
                 and values[-1] - values[0] < 3 * len(cases) + 8)
        if self.options.jump_tables and dense:
            lo, hi = values[0], values[-1]
            if value_reg is not EAX:
                self.emit(ins("mov", EAX, value_reg))
            if lo:
                self.emit(ins("sub", EAX, Imm(lo)))
            self.emit(ins("cmp", EAX, Imm(hi - lo)))
            self.emit(jcc("a", default_label))
            table_name = f"{self.func.name}.jt{self._table_counter}"
            self._table_counter += 1
            targets = {v - lo: Label(self._block_label(b))
                       for v, b in cases}
            words = [targets.get(i, default_label)
                     for i in range(hi - lo + 1)]
            self.data_items.append(
                DataItem(table_name, words, writable=False))
            self.emit(ins("jmp", Mem(None, EAX, 4, Label(table_name))))
            return
        for v, target in cases:
            self.emit(ins("cmp", value_reg, Imm(v)))
            self.emit(jcc("e", Label(self._block_label(target))))
        self.emit(ins("jmp", default_label))

    def _emit_ret(self, instr: Ret) -> None:
        values = instr.ops
        if len(values) > len(RESULT_REGS):
            raise LowerError(
                f"{self.func.name}: {len(values)} results exceed the "
                f"register return convention")
        if len(values) == 1:
            op = self._operand(values[0], EAX)
            if op is not EAX:
                self.emit(ins("mov", EAX, op))
        elif values:
            for v in values:
                op = self._operand(v, EAX)
                if isinstance(op, Label):
                    self.emit(ins("mov", EAX, op))
                    op = EAX
                self.emit(ins("push", op))
            for i in reversed(range(len(values))):
                self.emit(ins("pop", RESULT_REGS[i]))
        self._emit_epilogue()

    # ----------------------------------------------------------------- calls

    def _push_args(self, args: list[Value]) -> int:
        for v in reversed(args):
            op = self._operand(v, EAX)
            if isinstance(op, Label):
                self.emit(ins("mov", EAX, op))
                op = EAX
            self.emit(ins("push", op))
        return 4 * len(args)

    def _emit_call(self, instr) -> None:
        nbytes = self._push_args(instr.args)
        if isinstance(instr, Call):
            self.emit(ins("call", Label(instr.callee.name)))
        else:
            target_op = self._operand(instr.target, EAX)
            if not (isinstance(target_op, Reg) and target_op is EAX):
                self.emit(ins("mov", EAX, target_op))
            if self.module.address_table:
                # Lifted code holds *original* code addresses; translate
                # them to recompiled entry points (BinRec-style dispatch).
                self.emit(ins("call", Label(RESOLVER_NAME),
                              comment="translate orig address"))
            self.emit(ins("call", EAX))
        if instr.nresults > 1:
            self._spread_results(instr)
        if nbytes:
            self.emit(ins("add", ESP, Imm(nbytes)))
        if instr.nresults == 1:
            self._store_result(instr, EAX)

    def _spread_results(self, call: Instr) -> None:
        block = call.block
        for instr in block.instrs:
            if isinstance(instr, Result) and instr.call is call:
                loc = self.locs.get(instr)
                if loc is None:
                    continue
                if loc.kind != "slot":
                    raise LowerError(
                        "multi-call results must be slot-assigned")
                self.emit(ins("mov", self._slot_mem(loc.offset),
                              RESULT_REGS[instr.index]))

    def _emit_callext(self, instr: CallExt) -> None:
        if instr.stack_args:
            sp_op = self._operand(instr.sp, EAX)
            if sp_op is not EAX:
                self.emit(ins("mov", EAX, sp_op))
            save = Mem(None, disp=Label(STACK_SWITCH_SAVE))
            self.emit(ins("mov", save, ESP, comment="stack switch out"))
            self.emit(ins("mov", ESP, EAX))
            self.emit(ins("call", ImportRef(instr.ext_name)))
            self.emit(ins("mov", ESP, save, comment="stack switch back"))
            self.push_depth = 0  # esp restored exactly
            self._store_result(instr, EAX)
            return
        nbytes = self._push_args(instr.args)
        self.emit(ins("call", ImportRef(instr.ext_name)))
        if nbytes:
            self.emit(ins("add", ESP, Imm(nbytes)))
        self._store_result(instr, EAX)

    # ------------------------------------------------------------ ground truth

    def _record_ground_truth(self) -> None:
        objects = []
        for alloca, offset in self.alloca_offsets.items():
            objects.append(StackObject(
                alloca.var_name or "tmp",
                self._sp0_offset(offset),
                max(alloca.size, 1),
                kind="var" if alloca.var_name else "spill"))
        for name in self._preserved_regs():
            objects.append(StackObject(
                f"save.{name}", self._sp0_offset(self._save_slots[name]),
                4, kind="saved_reg"))
        for off in range(self._alloca_end, self._slot_cursor, 4):
            objects.append(StackObject(
                f"slot.{off}", self._sp0_offset(off), 4, kind="spill"))
        self.ground_truth = FrameGroundTruth(
            self.func.name, 0, self.frame_size, objects)


def clear_lower_cache() -> None:
    """A no-op, kept only because ``benchmarks/e2e/run.py`` imports it;
    the benchmark-hygiene change that drops that import deletes it."""
