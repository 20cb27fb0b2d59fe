"""Machine-code to IR translation (the RevGen/BinRec analogue).

Every lifted function takes the virtual register file explicitly —
``(sp, eax, ecx, edx, ebx, ebp, esi, edi)`` — and returns the seven
general registers (``sp`` is reconstructed by the caller, since ``ret``
always pops exactly the return address in this ABI).  Inside a function
the virtual registers and the four status flags live in ``vcpu.*``
allocas.  While it translates a block, the translator keeps each slot's
current value: a block loads a slot only on its first read, and only if
it has not written the slot yet, and stores each slot it wrote once,
just before its terminator (Macaw likewise hands one register state to
a block's terminator).  Tail-call stubs and the trap block are emitted
in the middle of a block and load the slots they read directly.  The
§4.1 register observation (:func:`repro.core.regsave.classify_registers`)
runs mem2reg on the slots before its first run, which is the paper's
"we turn virtual CPU registers into SSA-values before instrumentation"
applied one stage early.  The static register classification reads the
alloca form, whose per-block first loads and last stores are exactly
what it asks of each slot, so it runs before the promotion.

The original program's stack lives in a dedicated **emulated stack**
global; all push/pop/call/ret effects are translated into explicit loads
and stores against it (paper §2.1, Figure 1).  Original data sections are
pinned at their original addresses so absolute-address accesses keep
working unchanged.
"""

from __future__ import annotations

from .. import obs
from ..binary.image import BinaryImage
from ..emu.tracer import TraceSet
from ..errors import LiftError
from ..ir.builder import Builder
from ..ir.module import Block, Function, GlobalVar, Module
from ..ir.values import Const, GlobalRef, Value
from ..isa.instructions import Imm, ImportRef, Instruction, Mem
from ..isa.registers import GPR32, Reg
from .cfg import RecoveredCFG, recover_cfg
from .function_recovery import RecoveredFunction, recover_functions

#: Virtual registers threaded through lifted signatures (esp excluded
#: from results; see module docstring).
REG_ORDER = ("eax", "ecx", "edx", "ebx", "ebp", "esi", "edi")
FLAG_ORDER = ("zf", "sf", "cf", "of")

EMUSTACK_NAME = "__emustack"
EMUSTACK_BASE = 0x0B200000
EMUSTACK_SIZE = 0x00200000

def _external_db():
    """Signature database shared with the refinement constraint DB.

    Imported lazily: repro.core's package __init__ pulls in the driver,
    which imports this module (a cycle at import time otherwise).
    """
    from ..core.extfuncs import EXTERNAL_DB
    return EXTERNAL_DB


class FunctionTranslator:
    """Translates one recovered machine function to an IR function."""

    def __init__(self, rfunc: RecoveredFunction, cfg: RecoveredCFG,
                 module: Module, entries: set[int]):
        self.rfunc = rfunc
        self.cfg = cfg
        self.module = module
        self.entries = entries
        self.func = Function(rfunc.name,
                             ["sp", *REG_ORDER], nresults=len(REG_ORDER))
        self.func.orig_entry = rfunc.entry
        self.b = Builder(self.func)
        #: The ``vcpu.*`` alloca of each register and flag.
        self.slots: dict[str, Value] = {}
        #: The block being translated: each slot's current value, and
        #: the slots it wrote, in the order of their first write.
        self._values: dict[str, Value] = {}
        self._written: dict[str, None] = {}
        self.ir_blocks: dict[int, Block] = {}
        self._trap: Block | None = None
        self._tail_stubs: dict[int, Block] = {}

    # ------------------------------------------------------------ plumbing

    def translate(self) -> Function:
        entry_ir = self.func.add_block("entry")
        self.b.position(entry_ir)
        for name in ("esp", *REG_ORDER, *FLAG_ORDER):
            self.slots[name] = self.b.alloca(4, 4, f"vcpu.{name}")
        self.b.store(self.slots["esp"], self.func.params[0], 4)
        for i, name in enumerate(REG_ORDER):
            self.b.store(self.slots[name], self.func.params[1 + i], 4)

        for addr in sorted(self.rfunc.blocks):
            self.ir_blocks[addr] = self.func.add_block(f"b{addr:x}")
        self.b.position(entry_ir)
        self.b.br(self.ir_blocks[self.rfunc.entry])

        for addr in sorted(self.rfunc.blocks):
            self._translate_block(addr)
        return self.func

    def _trap_block(self) -> Block:
        if self._trap is None:
            self._trap = self.func.add_block("trap")
            saved = self.b.block
            self.b.position(self._trap)
            self.b.unreachable("untraced path")
            self.b.position(saved)
        return self._trap

    def _target_block(self, addr: int) -> Block:
        """IR block for a branch target; tail calls get call+ret stubs."""
        if addr in self.ir_blocks:
            return self.ir_blocks[addr]
        if addr in self.entries:
            return self._tail_stub(addr)
        return self._trap_block()

    def _tail_stub(self, target: int) -> Block:
        stub = self._tail_stubs.get(target)
        if stub is not None:
            return stub
        stub = self.func.add_block(f"tail_{target:x}")
        self._tail_stubs[target] = stub
        saved = self.b.block
        self.b.position(stub)
        # Tail call becomes a regular call followed by a return: esp
        # already points at the original caller's return address.  The
        # stub is its own block, so it loads the registers itself.
        args = [self.b.load(self.slots[name], 4)
                for name in ("esp", *REG_ORDER)]
        call = self.b.call(f"fn_{target:08x}", args,
                           nresults=len(REG_ORDER))
        results = [self.b.result(call, i) for i in range(len(REG_ORDER))]
        self.b.ret(results)
        self.b.position(saved)
        return stub

    # -------------------------------------------------------- register file

    def _rread_name(self, name: str) -> Value:
        """The current value of register or flag ``name`` in the block
        being translated; the first read loads it, unless the block
        has written it."""
        value = self._values.get(name)
        if value is None:
            value = self._values[name] = self.b.load(self.slots[name], 4)
        return value

    def _rwrite_name(self, name: str, value: Value) -> None:
        """Make ``value`` the current value of ``name``; the block stores
        it before its terminator (:meth:`_translate_block`)."""
        self._values[name] = value
        self._written[name] = None

    _fread = _rread_name
    _fwrite = _rwrite_name

    def _rread(self, reg: Reg) -> Value:
        full = self._rread_name(GPR32[reg.index])
        if reg.width == 4:
            return full
        if reg.width == 2:
            return self.b.unary("zext16", full)
        if reg.high8:
            return self.b.unary("zext8", self.b.binop("shr", full,
                                                      Const(8)))
        return self.b.unary("zext8", full)

    def _rwrite(self, reg: Reg, value: Value) -> None:
        name = GPR32[reg.index]
        if reg.width == 4:
            self._rwrite_name(name, value)
            return
        # Partial write: merge into the untouched upper bits.  This is
        # the instruction shape behind the paper's "false derive"
        # discussion (§4.2.3).
        full = self._rread_name(name)
        if reg.width == 2:
            merged = self.b.binop(
                "or", self.b.binop("and", full, Const(0xFFFF0000)),
                self.b.unary("zext16", value))
        elif reg.high8:
            merged = self.b.binop(
                "or", self.b.binop("and", full, Const(0xFFFF00FF)),
                self.b.binop("shl", self.b.unary("zext8", value),
                             Const(8)))
        else:
            merged = self.b.binop(
                "or", self.b.binop("and", full, Const(0xFFFFFF00)),
                self.b.unary("zext8", value))
        self._rwrite_name(name, merged)

    # ------------------------------------------------------------ operands

    def _mem_addr(self, op: Mem) -> Value:
        """Translate an addressing mode into IR arithmetic.

        The displacement is applied to the base *before* the index:
        ``base + disp`` is the direct stack reference (the paper's
        ``-44(%ebp,%eax,8)`` has base pointer ``ebp - 44``), and the
        dynamic index is a derivation from it.  Applying the index first
        would glue every indexed access in a frame to the stack
        pointer's own variable.
        """
        disp = op.disp if isinstance(op.disp, int) else 0
        addr: Value | None = None
        if op.base is not None:
            addr = self._rread(op.base)
            if disp:
                addr = self.b.add(addr, Const(disp))
                disp = 0
        if op.index is not None:
            index = self._rread(op.index)
            if op.scale != 1:
                index = self.b.mul(index, Const(op.scale))
            addr = index if addr is None else self.b.add(addr, index)
        if addr is None:
            return Const(disp)
        if disp:
            addr = self.b.add(addr, Const(disp))
        return addr

    def _read_op(self, op) -> Value:
        if isinstance(op, Reg):
            return self._rread(op)
        if isinstance(op, Imm):
            return Const(op.value)
        if isinstance(op, Mem):
            return self.b.load(self._mem_addr(op), op.size)
        raise LiftError(f"cannot read operand {op!r}")

    def _write_op(self, op, value: Value) -> None:
        if isinstance(op, Reg):
            self._rwrite(op, value)
        elif isinstance(op, Mem):
            self.b.store(self._mem_addr(op), value, op.size)
        else:
            raise LiftError(f"cannot write operand {op!r}")

    @staticmethod
    def _width_of(op) -> int:
        if isinstance(op, Reg):
            return op.width
        if isinstance(op, Mem):
            return op.size
        return 4

    # --------------------------------------------------------------- flags

    def _set_flags_logic(self, result: Value) -> None:
        self._fwrite("zf", self.b.icmp("eq", result, Const(0)))
        self._fwrite("sf", self.b.icmp("slt", result, Const(0)))
        self._fwrite("cf", Const(0))
        self._fwrite("of", Const(0))

    def _set_flags_add(self, a: Value, bv: Value, result: Value) -> None:
        self._fwrite("zf", self.b.icmp("eq", result, Const(0)))
        self._fwrite("sf", self.b.icmp("slt", result, Const(0)))
        self._fwrite("cf", self.b.icmp("ult", result, a))
        overflow = self.b.binop(
            "and", self.b.binop("xor", a, result),
            self.b.binop("xor", bv, result))
        self._fwrite("of", self.b.binop("shr", overflow, Const(31)))

    def _set_flags_sub(self, a: Value, bv: Value, result: Value) -> None:
        self._fwrite("zf", self.b.icmp("eq", result, Const(0)))
        self._fwrite("sf", self.b.icmp("slt", result, Const(0)))
        self._fwrite("cf", self.b.icmp("ult", a, bv))
        overflow = self.b.binop(
            "and", self.b.binop("xor", a, bv),
            self.b.binop("xor", a, result))
        self._fwrite("of", self.b.binop("shr", overflow, Const(31)))

    def _cond_value(self, cc: str) -> Value:
        b = self.b
        one = Const(1)
        if cc == "e":
            return self._fread("zf")
        if cc == "ne":
            return b.binop("xor", self._fread("zf"), one)
        if cc == "l":
            return b.binop("xor", self._fread("sf"), self._fread("of"))
        if cc == "ge":
            return b.binop("xor", b.binop("xor", self._fread("sf"),
                                          self._fread("of")), one)
        if cc == "le":
            return b.binop("or", self._fread("zf"),
                           b.binop("xor", self._fread("sf"),
                                   self._fread("of")))
        if cc == "g":
            le = b.binop("or", self._fread("zf"),
                         b.binop("xor", self._fread("sf"),
                                 self._fread("of")))
            return b.binop("xor", le, one)
        if cc == "b":
            return self._fread("cf")
        if cc == "ae":
            return b.binop("xor", self._fread("cf"), one)
        if cc == "be":
            return b.binop("or", self._fread("cf"), self._fread("zf"))
        if cc == "a":
            be = b.binop("or", self._fread("cf"), self._fread("zf"))
            return b.binop("xor", be, one)
        if cc == "s":
            return self._fread("sf")
        if cc == "ns":
            return b.binop("xor", self._fread("sf"), one)
        raise LiftError(f"unknown condition {cc!r}")

    # -------------------------------------------------------------- blocks

    def _translate_block(self, addr: int) -> None:
        mblock = self.rfunc.blocks[addr]
        block = self.ir_blocks[addr]
        self.b.position(block)
        self._values = {}
        self._written = {}
        for instr in mblock.instrs[:-1]:
            self._translate_plain(instr)
        self._translate_terminator(mblock)
        # One store per written slot, of its last value, just before
        # the terminator.
        terminator = block.instrs.pop()
        for name in self._written:
            self.b.store(self.slots[name], self._values[name], 4)
        block.append(terminator)

    def _translate_terminator(self, mblock) -> None:
        instr = mblock.terminator
        m = instr.mnemonic
        next_addr = instr.addr + instr.size
        if m == "jmp":
            self._translate_jmp(mblock, instr)
        elif m == "jcc":
            taken_addr = instr.operands[0].value \
                if isinstance(instr.operands[0], Imm) else None
            if taken_addr is None:
                raise LiftError("indirect conditional jump")
            cond = self._cond_value(instr.cc)
            taken_traced = taken_addr in mblock.succs
            fall_traced = next_addr in mblock.succs
            taken_block = self._target_block(taken_addr) if taken_traced \
                else self._trap_block()
            fall_block = self._target_block(next_addr) if fall_traced \
                else self._trap_block()
            self.b.condbr(cond, taken_block, fall_block)
        elif m == "call":
            self._translate_call(mblock, instr, next_addr)
        elif m == "ret":
            results = [self._rread_name(r) for r in REG_ORDER]
            self.b.ret(results)
        elif m == "hlt":
            self.b.call_external("exit", [self._rread_name("eax")])
            self.b.unreachable("after exit")
        else:
            # The block ended at a leader boundary: plain fallthrough.
            self._translate_plain(instr)
            if mblock.succs:
                self.b.br(self._target_block(mblock.succs[0]))
            else:
                self.b.unreachable("fallthrough into untraced code")

    def _translate_jmp(self, mblock, instr: Instruction) -> None:
        op = instr.operands[0]
        if isinstance(op, Imm):
            self.b.br(self._target_block(op.value))
            return
        # Indirect jump: dispatch over traced targets.
        value = self._read_op(op)
        targets = sorted(self.cfg.jump_targets.get(instr.addr,
                                                   set(mblock.succs)))
        cases = [(t, self._target_block(t)) for t in targets]
        self.b.switch(value, cases, self._trap_block())

    def _translate_call(self, mblock, instr: Instruction,
                        next_addr: int) -> None:
        op = instr.operands[0]
        if isinstance(op, ImportRef):
            self._translate_import(instr, op.name)
        else:
            esp = self._rread_name("esp")
            esp1 = self.b.sub(esp, Const(4))
            retaddr_store = self.b.store(esp1, Const(next_addr), 4)
            # Tagged so symbolization can drop the (never-read) return
            # address slot when the emulated stack is removed.
            self.func.meta.setdefault("retaddr_stores",
                                      []).append(retaddr_store)
            self._rwrite_name("esp", esp1)
            args = [esp1] + [self._rread_name(r) for r in REG_ORDER]
            if isinstance(op, Imm):
                call = self.b.call(f"fn_{op.value:08x}", args,
                                   nresults=len(REG_ORDER))
            else:
                call = self.b.call_indirect(self._read_op(op), args,
                                            nresults=len(REG_ORDER))
            for i, name in enumerate(REG_ORDER):
                self._rwrite_name(name, self.b.result(call, i))
            self._rwrite_name("esp", self.b.add(esp1, Const(4)))
        # Continue at the return site, if it was ever reached.
        if mblock.succs:
            self.b.br(self._target_block(mblock.succs[0]))
        else:
            self.b.unreachable("call never returned in traces")

    def _translate_import(self, instr: Instruction, name: str) -> None:
        sig = _external_db().get(name)
        if sig is None:
            raise LiftError(f"call to unknown external {name!r}")
        esp = self._rread_name("esp")
        if sig.vararg:
            # BinRec-style stack switching until the varargs refinement
            # gives the site the prototype traced at this call (§5.2).
            result = self.b.call_external(name, [], sp=esp,
                                          call_addr=instr.addr)
        else:
            args = [self.b.load(self.b.add(esp, Const(4 * i)), 4)
                    if i else self.b.load(esp, 4)
                    for i in range(sig.nargs)]
            result = self.b.call_external(name, args)
        self._rwrite_name("eax", result)

    # -------------------------------------------------------- instructions

    def _translate_plain(self, instr: Instruction) -> None:
        m = instr.mnemonic
        handler = getattr(self, f"_lift_{m}", None)
        if handler is None:
            raise LiftError(f"cannot lift {instr!r}")
        handler(instr)

    def _lift_nop(self, instr: Instruction) -> None:
        pass

    def _lift_mov(self, instr: Instruction) -> None:
        dst, src = instr.operands
        self._write_op(dst, self._read_op(src))

    def _lift_movzx(self, instr: Instruction) -> None:
        dst, src = instr.operands
        self._write_op(dst, self._read_op(src))  # loads zero-extend

    def _lift_movsx(self, instr: Instruction) -> None:
        dst, src = instr.operands
        width = self._width_of(src)
        value = self._read_op(src)
        op = "sext8" if width == 1 else "sext16"
        self._write_op(dst, self.b.unary(op, value))

    def _lift_lea(self, instr: Instruction) -> None:
        dst, src = instr.operands
        if not isinstance(src, Mem):
            raise LiftError(f"lea without memory operand: {instr!r}")
        self._write_op(dst, self._mem_addr(src))

    def _lift_push(self, instr: Instruction) -> None:
        value = self._read_op(instr.operands[0])
        esp1 = self.b.sub(self._rread_name("esp"), Const(4))
        self.b.store(esp1, value, 4)
        self._rwrite_name("esp", esp1)

    def _lift_pop(self, instr: Instruction) -> None:
        esp = self._rread_name("esp")
        value = self.b.load(esp, 4)
        self._write_op(instr.operands[0], value)
        self._rwrite_name("esp", self.b.add(self._rread_name("esp"),
                                            Const(4)))

    def _arith(self, instr: Instruction, ir_op: str, flags: str) -> None:
        dst, src = instr.operands
        if self._width_of(dst) != 4:
            raise LiftError(f"sub-width arithmetic unsupported: {instr!r}")
        a = self._read_op(dst)
        bv = self._read_op(src)
        result = self.b.binop(ir_op, a, bv)
        if flags == "add":
            self._set_flags_add(a, bv, result)
        elif flags == "sub":
            self._set_flags_sub(a, bv, result)
        else:
            self._set_flags_logic(result)
        self._write_op(dst, result)

    def _lift_add(self, i):
        self._arith(i, "add", "add")

    def _lift_sub(self, i):
        self._arith(i, "sub", "sub")

    def _lift_and(self, i):
        self._arith(i, "and", "logic")

    def _lift_or(self, i):
        self._arith(i, "or", "logic")

    def _lift_xor(self, i):
        self._arith(i, "xor", "logic")

    def _lift_neg(self, instr: Instruction) -> None:
        dst = instr.operands[0]
        a = self._read_op(dst)
        result = self.b.unary("neg", a)
        self._set_flags_sub(Const(0), a, result)
        self._write_op(dst, result)

    def _lift_not(self, instr: Instruction) -> None:
        dst = instr.operands[0]
        self._write_op(dst, self.b.unary("not", self._read_op(dst)))

    def _lift_imul(self, instr: Instruction) -> None:
        dst, src = instr.operands
        a = self._read_op(dst)
        bv = self._read_op(src)
        result = self.b.mul(a, bv)
        # cf/of model 32-bit overflow only approximately; compiled code
        # never branches on them after imul.
        self._fwrite("zf", self.b.icmp("eq", result, Const(0)))
        self._fwrite("sf", self.b.icmp("slt", result, Const(0)))
        self._fwrite("cf", Const(0))
        self._fwrite("of", Const(0))
        self._write_op(dst, result)

    def _lift_cdq(self, instr: Instruction) -> None:
        eax = self._rread_name("eax")
        self._rwrite_name("edx", self.b.binop("sar", eax, Const(31)))

    def _lift_idiv(self, instr: Instruction) -> None:
        # Compiled code always precedes idiv with cdq, so edx:eax is the
        # sign extension of eax and 32-bit signed division suffices.
        divisor = self._read_op(instr.operands[0])
        eax = self._rread_name("eax")
        self._rwrite_name("eax", self.b.binop("div", eax, divisor))
        self._rwrite_name("edx", self.b.binop("rem", eax, divisor))

    def _shift(self, instr: Instruction, ir_op: str) -> None:
        dst, count_op = instr.operands
        a = self._read_op(dst)
        count = self._read_op(count_op)
        if isinstance(count, Const):
            count = Const(count.value & 31)
        else:
            count = self.b.binop("and", count, Const(31))
        result = self.b.binop(ir_op, a, count)
        self._fwrite("zf", self.b.icmp("eq", result, Const(0)))
        self._fwrite("sf", self.b.icmp("slt", result, Const(0)))
        self._write_op(dst, result)

    def _lift_shl(self, i):
        self._shift(i, "shl")

    def _lift_shr(self, i):
        self._shift(i, "shr")

    def _lift_sar(self, i):
        self._shift(i, "sar")

    def _lift_inc(self, instr: Instruction) -> None:
        dst = instr.operands[0]
        a = self._read_op(dst)
        result = self.b.add(a, Const(1))
        carry = self._fread("cf")
        self._set_flags_add(a, Const(1), result)
        self._fwrite("cf", carry)  # inc preserves CF
        self._write_op(dst, result)

    def _lift_dec(self, instr: Instruction) -> None:
        dst = instr.operands[0]
        a = self._read_op(dst)
        result = self.b.sub(a, Const(1))
        carry = self._fread("cf")
        self._set_flags_sub(a, Const(1), result)
        self._fwrite("cf", carry)
        self._write_op(dst, result)

    def _lift_cmp(self, instr: Instruction) -> None:
        a = self._read_op(instr.operands[0])
        bv = self._read_op(instr.operands[1])
        self._set_flags_sub(a, bv, self.b.sub(a, bv))

    def _lift_test(self, instr: Instruction) -> None:
        a = self._read_op(instr.operands[0])
        bv = self._read_op(instr.operands[1])
        self._set_flags_logic(self.b.binop("and", a, bv))

    def _lift_setcc(self, instr: Instruction) -> None:
        self._write_op(instr.operands[0], self._cond_value(instr.cc))

    def _lift_leave(self, instr: Instruction) -> None:
        ebp = self._rread_name("ebp")
        self._rwrite_name("esp", ebp)
        self._rwrite_name("ebp", self.b.load(ebp, 4))
        self._rwrite_name("esp", self.b.add(ebp, Const(4)))


def lift_traces(traces: TraceSet, name: str = "lifted") -> Module:
    """Lift a merged trace set into an IR module (the BinRec phase).

    Only traced code is lifted; an untraced branch direction goes to a
    block that traps (``unreachable "untraced path"``).
    """
    image = traces.image
    cfg = recover_cfg(traces)
    functions = recover_functions(cfg)

    module = Module(name)
    module.metadata = {"origin": "lifted", **image.metadata}

    # Original data sections stay at their original addresses.
    for section in image.data_sections:
        module.add_global(GlobalVar(
            f"orig{section.name.replace('.', '_')}", len(section.data),
            section.data, align=4, fixed_addr=section.base,
            writable=section.writable))
    module.add_global(GlobalVar(
        EMUSTACK_NAME, EMUSTACK_SIZE, b"", align=16,
        fixed_addr=EMUSTACK_BASE))

    entries = set(functions)
    ledgered = obs.ledger() is not None
    for entry, rfunc in functions.items():
        translator = FunctionTranslator(rfunc, cfg, module, entries)
        func = translator.translate()
        module.add_function(func)
        module.address_table[entry] = rfunc.name
        if ledgered:
            obs.event("lift.function", function=rfunc.name,
                      entry=entry, blocks=len(func.blocks))

    # Wrapper entry: set up the emulated stack and call the original
    # entry function.
    start = Function("_start", [])
    module.add_function(start)
    module.entry_name = "_start"
    b = Builder(start)
    b.position(start.add_block("entry"))
    top = b.add(GlobalRef(EMUSTACK_NAME), Const(EMUSTACK_SIZE - 64))
    args: list[Value] = [top] + [Const(0)] * len(REG_ORDER)
    b.call(functions[cfg.entry].name, args, nresults=len(REG_ORDER))
    b.ret([Const(0)])
    return module


def lift_binary(image: BinaryImage,
                inputs: list[list[int | bytes]],
                name: str = "lifted") -> Module:
    """Trace ``image`` on ``inputs`` and lift the merged traces."""
    from ..emu.tracer import trace_binary
    return lift_traces(trace_binary(image, inputs), name)
