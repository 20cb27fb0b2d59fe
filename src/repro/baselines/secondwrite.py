"""SecondWrite baseline: static lifting with heuristic stack splitting.

Models the comparison system of the paper's evaluation (§6): a *static*
binary-to-IR recompiler that

* disassembles with a linear sweep and recovers the CFG statically —
  and therefore **fails** on binaries with indirect jumps or calls whose
  targets it cannot enumerate (the paper reports exactly this class of
  failure: missing jump-table targets, unsupported relocations);
* classifies register arguments with ABI conventions (callee-saved
  registers are never arguments; caller-saved registers are arguments if
  read before written) instead of WYTIWYG's dynamic analysis;
* recovers variadic call prototypes only when the format string is a
  compile-time constant;
* splits stack frames **conservatively**: a frame is divided at the
  statically provable constant offsets only if no indexed or derived
  pointer arithmetic touches it — otherwise the whole frame collapses
  into a single symbol (the paper: "SecondWrite associates all local
  variables of functions beyond a certain complexity with a single
  symbol").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..binary.image import BinaryImage
from ..errors import LiftError
from ..ir.module import Function, Module
from ..ir.values import (
    BinOp,
    Const,
    Phi,
)
from ..isa.disassembler import shared_disassembler
from ..isa.instructions import Imm, ImportRef, Instruction
from ..isa.registers import Reg
from ..lifting.cfg import _BLOCK_ENDERS, MachineBlock, RecoveredCFG
from ..lifting.function_recovery import recover_functions
from ..lifting.translator import REG_ORDER, FunctionTranslator
from ..opt.dce import eliminate_dead_code
from ..opt.deadargelim import shrink_signatures
from ..opt.pipeline import OptOptions, optimize_module
from ..recompile.link import recompile_ir
from ..recompile.lower import LowerOptions
from ..core.extfuncs import EXTERNAL_DB
from ..core.regsave import (
    apply_register_classification,
    classify_statically,
)
from ..core.replace import drop_sp_threading
from ..core.sp0fold import (
    classify_stack_refs,
    is_lifted_function,
)


class SecondWriteError(LiftError):
    """The static pipeline cannot handle this binary."""


# ---------------------------------------------------------------------------
# Static CFG recovery (linear sweep)
# ---------------------------------------------------------------------------


def static_cfg(image: BinaryImage) -> RecoveredCFG:
    disasm = shared_disassembler(image)
    instrs = disasm.linear()
    by_addr = {i.addr: i for i in instrs}

    leaders: set[int] = {image.entry}
    for instr in instrs:
        if instr.mnemonic in ("jmp", "jcc", "call"):
            op = instr.operands[0]
            if isinstance(op, Imm):
                leaders.add(op.value)
                leaders.add(instr.addr + instr.size)
            elif isinstance(op, ImportRef):
                leaders.add(instr.addr + instr.size)
            else:
                raise SecondWriteError(
                    f"indirect control flow at {instr.addr:#x} "
                    f"(static disassembly cannot enumerate targets)")

    cfg = RecoveredCFG(image, entry=image.entry)
    for leader in sorted(leaders):
        if leader not in by_addr or leader in cfg.blocks:
            continue
        block = MachineBlock(leader)
        addr = leader
        while True:
            instr = by_addr[addr]
            block.instrs.append(instr)
            nxt = addr + instr.size
            if instr.mnemonic in _BLOCK_ENDERS or \
                    instr.mnemonic == "call" or nxt in leaders \
                    or nxt not in by_addr:
                break
            addr = nxt
        cfg.blocks[leader] = block

    for block in cfg.blocks.values():
        term = block.terminator
        addr = term.addr
        nxt = addr + term.size
        if term.mnemonic == "jmp":
            block.succs = [term.operands[0].value]
        elif term.mnemonic == "jcc":
            block.succs = sorted({term.operands[0].value, nxt}
                                 & set(cfg.blocks))
        elif term.mnemonic == "call":
            op = term.operands[0]
            if isinstance(op, Imm):
                cfg.call_targets[addr] = {op.value}
            block.succs = [nxt] if nxt in cfg.blocks else []
        elif term.mnemonic in ("ret", "hlt"):
            block.succs = []
        else:
            block.succs = [nxt] if nxt in cfg.blocks else []
    return cfg


# ---------------------------------------------------------------------------
# Static variadic-call recovery (constant format strings only)
# ---------------------------------------------------------------------------


def _constant_pushes(block: MachineBlock, call: Instruction,
                     image: BinaryImage) -> list[int | None]:
    """Abstractly evaluate the block up to ``call``: the stack of pushed
    constants (innermost last).  Non-constant pushes become None."""
    regs: dict[int, int | None] = {}
    pushed: list[int | None] = []
    for instr in block.instrs:
        if instr is call:
            break
        m = instr.mnemonic
        if m == "mov" and isinstance(instr.operands[0], Reg) \
                and instr.operands[0].width == 4:
            src = instr.operands[1]
            if isinstance(src, Imm):
                regs[instr.operands[0].index] = src.value
            elif isinstance(src, Reg) and src.width == 4:
                regs[instr.operands[0].index] = regs.get(src.index)
            else:
                regs[instr.operands[0].index] = None
        elif m == "push":
            op = instr.operands[0]
            if isinstance(op, Imm):
                pushed.append(op.value)
            elif isinstance(op, Reg) and op.width == 4:
                pushed.append(regs.get(op.index))
            else:
                pushed.append(None)
        elif m == "pop":
            if pushed:
                pushed.pop()
            if isinstance(instr.operands[0], Reg):
                regs[instr.operands[0].index] = None
        else:
            # Anything else invalidates register knowledge conservatively.
            for op in instr.operands:
                if isinstance(op, Reg):
                    regs[op.index] = None
    return pushed


def _read_cstring(image: BinaryImage, addr: int) -> bytes | None:
    section = image.section_at(addr)
    if section is None:
        return None
    data = section.data
    off = addr - section.base
    end = data.find(b"\x00", off)
    if end < 0:
        return None
    return data[off:end]


class _StaticTranslator(FunctionTranslator):
    """Translator variant with static variadic-prototype recovery."""

    def __init__(self, *args, current_mblock=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._current_mblock = None

    def _translate_block(self, addr: int) -> None:
        self._current_mblock = self.rfunc.blocks[addr]
        super()._translate_block(addr)

    def _translate_import(self, instr: Instruction, name: str) -> None:
        from ..emu.libc import parse_format
        sig = EXTERNAL_DB.get(name)
        if sig is None:
            raise SecondWriteError(f"unknown external {name!r}")
        if not sig.vararg:
            super()._translate_import(instr, name)
            return
        pushed = _constant_pushes(self._current_mblock, instr,
                                  self.cfg.image)
        fmt_index = sig.format_arg if sig.format_arg is not None else 0
        # cdecl: the last pushes are the first arguments.
        args_on_stack = list(reversed(pushed))
        fmt_addr = args_on_stack[fmt_index] \
            if fmt_index < len(args_on_stack) else None
        fmt = _read_cstring(self.cfg.image, fmt_addr) \
            if fmt_addr is not None else None
        if fmt is None:
            raise SecondWriteError(
                f"non-constant format string for {name} at "
                f"{instr.addr:#x}")
        nargs = sig.nargs + len(parse_format(fmt))
        esp = self._rread_name("esp")
        args = [self.b.load(esp if i == 0
                            else self.b.add(esp, Const(4 * i)), 4)
                for i in range(nargs)]
        self._rwrite_name("eax", self.b.call_external(name, args))


# ---------------------------------------------------------------------------
# Conservative stack splitting
# ---------------------------------------------------------------------------


@dataclass
class SplitReport:
    #: functions whose frame collapsed to one symbol
    collapsed: list[str] = field(default_factory=list)
    #: functions split into fine-grained symbols
    split: list[str] = field(default_factory=list)


def _frame_is_complex(func: Function, offsets: dict) -> bool:
    """Any derived (non-constant) pointer arithmetic over stack refs?"""
    for instr in func.instructions():
        if isinstance(instr, BinOp) and instr.opcode in ("add", "sub"):
            lhs_known = instr.lhs in offsets
            rhs_known = instr.rhs in offsets
            if lhs_known and not isinstance(instr.rhs, Const) \
                    and instr not in offsets:
                return True
            if rhs_known and not isinstance(instr.lhs, Const) \
                    and instr not in offsets:
                return True
        if isinstance(instr, Phi) and instr not in offsets:
            if any(op in offsets for op in instr.ops):
                return True
    return False


def split_frames_statically(module: Module,
                            stack_splitting: bool = True) -> SplitReport:
    """Replace each function's frame with allocas: fine-grained when the
    frame is statically simple, one symbol otherwise."""
    from ..core.layout import FrameLayout, FrameVariable
    from ..core.instrument import (FunctionInstrumentation,
                                   ModuleInstrumentation)
    from ..core.replace import replace_base_pointers
    from ..core.runtime import TracingRuntime
    from ..core.signatures import SignaturePlan

    report = SplitReport()
    mi = ModuleInstrumentation()
    layouts: dict[str, FrameLayout] = {}
    plan = SignaturePlan()
    runtime = TracingRuntime()

    # First pass: per-function static layouts and argument counts.
    ref_id = 0
    for name, func in module.functions.items():
        if not is_lifted_function(func):
            continue
        refs = classify_stack_refs(func)
        offsets = func.meta["sp0_offsets"]
        fi = FunctionInstrumentation(func)
        frame_offs = sorted({off for off in refs.values() if off < 0})
        arg_offs = [off for off in refs.values() if off >= 4]
        layout = FrameLayout(name)
        complex_frame = _frame_is_complex(func, offsets) \
            or not stack_splitting
        if frame_offs:
            if complex_frame:
                report.collapsed.append(name)
                var = FrameVariable(frame_offs[0], 0)
                layout.variables = [var]
            else:
                report.split.append(name)
                bounds = frame_offs + [0]
                layout.variables = [
                    FrameVariable(lo, hi)
                    for lo, hi in zip(bounds, bounds[1:], strict=False)
                ]
        for value, off in refs.items():
            fi.refs[ref_id] = (value, off)
            if off < 0:
                home = None
                for var in layout.variables:
                    if var.start <= off < var.end or \
                            (var is layout.variables[-1]
                             and off >= var.start):
                        home = var
                        break
                if home is None:
                    home = layout.variables[0]
                home.ref_ids.add(ref_id)
                layout.ref_to_var[ref_id] = home
            ref_id += 1
        layouts[name] = layout
        mi.functions[name] = fi
        plan.stack_args[name] = max(
            ((off - 4) // 4 + 1 for off in arg_offs), default=0)

    # Call-site argument counts follow the callee's static signature.
    from ..ir.values import Call
    callsite_id = 0
    for name, fi in mi.functions.items():
        func = module.functions[name]
        for instr in func.instructions():
            if isinstance(instr, Call) and \
                    instr.callee.name in plan.stack_args:
                fi.callsites[callsite_id] = instr
                plan.callsite_args[callsite_id] = \
                    plan.stack_args[instr.callee.name]
                callsite_id += 1

    replace_base_pointers(module, mi, layouts, plan, runtime)
    for func in module.functions.values():
        eliminate_dead_code(func)
    drop_sp_threading(module)
    for func in module.functions.values():
        eliminate_dead_code(func)
    shrink_signatures(module)
    return report


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass
class SecondWriteResult:
    module: Module
    recovered: BinaryImage
    report: SplitReport


def secondwrite_lift(image: BinaryImage,
                     stack_splitting: bool = True) -> tuple[Module,
                                                            SplitReport]:
    cfg = static_cfg(image)
    functions = recover_functions(cfg)
    if cfg.entry not in functions:
        raise SecondWriteError("entry function not recovered")

    module = Module("secondwrite")
    module.metadata = {"origin": "secondwrite", **image.metadata}
    from ..ir.module import GlobalVar
    from ..lifting.translator import (EMUSTACK_BASE, EMUSTACK_NAME,
                                      EMUSTACK_SIZE)
    for section in image.data_sections:
        module.add_global(GlobalVar(
            f"orig{section.name.replace('.', '_')}", len(section.data),
            section.data, align=4, fixed_addr=section.base,
            writable=section.writable))
    module.add_global(GlobalVar(EMUSTACK_NAME, EMUSTACK_SIZE, b"",
                                align=16, fixed_addr=EMUSTACK_BASE))
    entries = set(functions)
    for entry, rfunc in functions.items():
        translator = _StaticTranslator(rfunc, cfg, module, entries)
        module.add_function(translator.translate())
        module.address_table[entry] = rfunc.name

    from ..ir.builder import Builder
    from ..ir.values import GlobalRef
    start = Function("_start", [])
    module.add_function(start)
    module.entry_name = "_start"
    b = Builder(start)
    b.position(start.add_block("entry"))
    top = b.add(GlobalRef(EMUSTACK_NAME), Const(EMUSTACK_SIZE - 64))
    b.call(functions[cfg.entry].name,
           [top] + [Const(0)] * len(REG_ORDER),
           nresults=len(REG_ORDER))
    b.ret([Const(0)])

    # Static refinements.
    apply_register_classification(module, classify_statically(module))
    from ..core.driver import _canonicalize
    _canonicalize(module)
    report = split_frames_statically(module, stack_splitting)
    return module, report


def secondwrite_recompile(image: BinaryImage,
                          stack_splitting: bool = True,
                          optimize: bool = True) -> SecondWriteResult:
    """End-to-end static recompilation. Raises SecondWriteError on the
    binaries the static approach cannot handle."""
    module, report = secondwrite_lift(image, stack_splitting)
    if optimize:
        optimize_module(module, OptOptions(level=2, rounds=2))
    recovered = recompile_ir(
        module, LowerOptions(frame_pointer=False),
        metadata={**image.metadata, "pipeline": "secondwrite"})
    return SecondWriteResult(module, recovered, report)
