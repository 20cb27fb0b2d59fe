"""The emulator's execution engine: instruction semantics, compiled
once per basic block.

Each instruction's semantics is written here, once, as a template that
turns the instruction into a closure over the machine.  A block is
decoded and compiled on first entry and cached as a tuple of those
closures, one per instruction, plus the block's static cycle cost and
its instruction addresses:

* each closure is specialized at block-build time on the operand shapes
  (register index, immediate, addressing mode), so executing it does no
  ``isinstance`` dispatch and no register-view indirection; it reads
  the registers as ``m.regs``, the machine's register list itself;
* the hottest shapes of a long trace — ``mov r32,[base+disp]``,
  ``mov [base+disp],r32`` and ``imul r32,imm``, together about 30% of
  its instructions — compile to one closure each, with the address
  arithmetic and, for the moves, the memory's word path (``m.page_of``
  and a ``struct`` unpack or pack, see :mod:`repro.emu.memory`) inline;
  ``push`` and ``pop`` take the stack word's path inline, and any other
  4-byte ``[base+disp]`` operand is read or written by one closure with
  the same inline path;
* the block's static cost (the sum the cost model assigns each
  instruction) is computed once; dynamic extras (taken branches, import
  dispatch) are added by the terminator closures;
* closures capture only the instruction, never machine state (the
  machine arrives as their argument), so one :class:`BlockCache` is
  safely shared by every :class:`~repro.emu.machine.Machine` bound to
  the same image and cost model (the tracer runs one machine per input
  and reuses the cache across all of them).

An instruction whose operand shape no template covers compiles to a
closure that raises :class:`~repro.errors.EmulationError` when it runs.
"""

from __future__ import annotations

import weakref
from typing import Callable

from ..errors import EmulationError
from ..isa.disassembler import Disassembler, shared_disassembler
from ..obs import count as _obs_count
from ..isa.instructions import Imm, ImportRef, Instruction, Mem
from ..isa.registers import Reg
from .costs import CostModel
from .cpu import CONDITIONS, signed32
from .libc import StackArgs, vararg_counter
from .memory import PAGE_MASK, PAGE_SHIFT, WORD_END, pack_word, unpack_word

MASK32 = 0xFFFFFFFF

#: Sentinel return address pushed by the loader: returning from the
#: entry function halts the machine with eax as the exit code (the same
#: convenience a real crt0 provides).
EXIT_SENTINEL = 0xFFFF0000

EAX_INDEX = 0
EDX_INDEX = 2
ESP_INDEX = 4
EBP_INDEX = 5


# ---------------------------------------------------------------------------
# Operand access closures
# ---------------------------------------------------------------------------


def _addr_closure(op: Mem):
    """Address computation for a memory operand, or None if the operand
    still carries an unresolved symbolic displacement."""
    if not isinstance(op.disp, int):
        return None
    disp = op.disp
    base = op.base.index if op.base is not None else None
    index = op.index.index if op.index is not None else None
    scale = op.scale
    if base is not None and index is not None:
        return lambda m: (m.regs[base] + m.regs[index] * scale
                          + disp) & MASK32
    if base is not None:
        if disp == 0:
            return lambda m: m.regs[base]
        return lambda m: (m.regs[base] + disp) & MASK32
    if index is not None:
        return lambda m: (m.regs[index] * scale + disp) & MASK32
    const = disp & MASK32
    return lambda m: const


def _base_word(op) -> tuple[int, int] | None:
    """``(base register index, displacement)`` of a 4-byte
    ``[base+disp]`` memory operand, the shape the word templates below
    inline; None for any other operand."""
    if isinstance(op, Mem) and op.size == 4 and op.base is not None \
            and op.index is None and isinstance(op.disp, int):
        return op.base.index, op.disp
    return None


# The word templates inline the memory's word path (see
# :mod:`repro.emu.memory`): a 4-byte access within one mapped page is a
# page lookup and a ``struct`` unpack or pack, and only an access off
# that path calls ``m.mem.read`` / ``m.mem.write``.


def _read_closure(op):
    """Value read for an operand, or None if unspecializable."""
    if isinstance(op, Reg):
        i = op.index
        if op.width == 4:
            return lambda m: m.regs[i]
        if op.width == 2:
            return lambda m: m.regs[i] & 0xFFFF
        if op.high8:
            return lambda m: (m.regs[i] >> 8) & 0xFF
        return lambda m: m.regs[i] & 0xFF
    if isinstance(op, Imm):
        const = op.value & MASK32
        return lambda m: const
    if isinstance(op, Mem):
        word = _base_word(op)
        if word is not None:
            b, disp = word

            def rd(m):
                addr = (m.regs[b] + disp) & MASK32
                off = addr & PAGE_MASK
                page = m.page_of(addr >> PAGE_SHIFT) \
                    if off <= WORD_END else None
                return m.mem.read(addr, 4) if page is None \
                    else unpack_word(page, off)[0]
            return rd
        addr = _addr_closure(op)
        if addr is None:
            return None
        size = op.size
        return lambda m: m.mem.read(addr(m), size)
    return None


def _write_closure(op):
    """Value write for an operand (call with (m, value)), or None."""
    if isinstance(op, Reg):
        i = op.index
        if op.width == 4:
            def wr(m, v, i=i):
                m.regs[i] = v & MASK32
            return wr
        if op.width == 2:
            def wr(m, v, i=i):
                regs = m.regs
                regs[i] = (regs[i] & 0xFFFF0000) | (v & 0xFFFF)
            return wr
        if op.high8:
            def wr(m, v, i=i):
                regs = m.regs
                regs[i] = (regs[i] & 0xFFFF00FF) | ((v & 0xFF) << 8)
            return wr

        def wr(m, v, i=i):
            regs = m.regs
            regs[i] = (regs[i] & 0xFFFFFF00) | (v & 0xFF)
        return wr
    if isinstance(op, Mem):
        word = _base_word(op)
        if word is not None:
            b, disp = word

            def wr(m, v):
                addr = (m.regs[b] + disp) & MASK32
                off = addr & PAGE_MASK
                page = m.page_of(addr >> PAGE_SHIFT) \
                    if off <= WORD_END else None
                if page is None:
                    m.mem.write(addr, 4, v)
                else:
                    pack_word(page, off, v & MASK32)
            return wr
        addr = _addr_closure(op)
        if addr is None:
            return None
        size = op.size
        return lambda m, v: m.mem.write(addr(m), size, v)
    return None


# ---------------------------------------------------------------------------
# Instruction templates
# ---------------------------------------------------------------------------


def _compile_mov(instr: Instruction):
    dst, src = instr.operands
    rd = _read_closure(src)
    if rd is None:
        return None
    # Flatten the hottest shapes: 32-bit register destinations, and word
    # stores of a register to ``[base+disp]``.
    if isinstance(dst, Reg) and dst.width == 4:
        d = dst.index
        if isinstance(src, Reg) and src.width == 4:
            s = src.index

            def op(m):
                m.regs[d] = m.regs[s]
            return op
        if isinstance(src, Imm):
            const = src.value & MASK32

            def op(m):
                m.regs[d] = const
            return op
        word = _base_word(src)
        if word is not None:
            b, disp = word

            def op(m):
                regs = m.regs
                addr = (regs[b] + disp) & MASK32
                off = addr & PAGE_MASK
                page = m.page_of(addr >> PAGE_SHIFT) \
                    if off <= WORD_END else None
                regs[d] = m.mem.read(addr, 4) if page is None \
                    else unpack_word(page, off)[0]
            return op

        def op(m):
            m.regs[d] = rd(m)
        return op
    word = _base_word(dst)
    if word is not None and isinstance(src, Reg) and src.width == 4:
        b, disp = word
        s = src.index

        def op(m):
            regs = m.regs
            addr = (regs[b] + disp) & MASK32
            off = addr & PAGE_MASK
            page = m.page_of(addr >> PAGE_SHIFT) \
                if off <= WORD_END else None
            if page is None:
                m.mem.write(addr, 4, regs[s])
            else:
                pack_word(page, off, regs[s])
        return op
    wr = _write_closure(dst)
    if wr is None:
        return None

    def op(m):
        wr(m, rd(m))
    return op


def _compile_movsx(instr: Instruction):
    dst, src = instr.operands
    rd = _read_closure(src)
    wr = _write_closure(dst)
    if rd is None or wr is None:
        return None
    width = src.width if isinstance(src, Reg) else \
        src.size if isinstance(src, Mem) else 4
    sign_bit = 1 << (8 * width - 1)
    ext = MASK32 ^ ((1 << (8 * width)) - 1)

    def op(m):
        v = rd(m)
        if v & sign_bit:
            v |= ext
        wr(m, v)
    return op


def _compile_lea(instr: Instruction):
    dst, src = instr.operands
    if not isinstance(src, Mem):
        return None
    addr = _addr_closure(src)
    wr = _write_closure(dst)
    if addr is None or wr is None:
        return None

    def op(m):
        wr(m, addr(m))
    return op


def _compile_push(instr: Instruction):
    src = instr.operands[0]
    rd = _read_closure(src)
    if rd is None:
        return None

    def op(m):
        value = rd(m)
        regs = m.regs
        esp = (regs[ESP_INDEX] - 4) & MASK32
        regs[ESP_INDEX] = esp
        off = esp & PAGE_MASK
        page = m.page_of(esp >> PAGE_SHIFT) if off <= WORD_END else None
        if page is None:
            m.mem.write(esp, 4, value)
        else:
            pack_word(page, off, value & MASK32)
    return op


def _compile_pop(instr: Instruction):
    wr = _write_closure(instr.operands[0])
    if wr is None:
        return None

    # A memory destination's address is taken before esp moves.
    def op(m):
        regs = m.regs
        esp = regs[ESP_INDEX]
        off = esp & PAGE_MASK
        page = m.page_of(esp >> PAGE_SHIFT) if off <= WORD_END else None
        wr(m, m.mem.read(esp, 4) if page is None
           else unpack_word(page, off)[0])
        regs[ESP_INDEX] = (esp + 4) & MASK32
    return op


def _compile_arith(instr: Instruction):
    mnem = instr.mnemonic
    dst, src = instr.operands
    rs = _read_closure(src)
    if rs is None:
        return None
    reg4 = isinstance(dst, Reg) and dst.width == 4
    if reg4:
        d = dst.index
        if mnem == "add":
            def op(m):
                cpu = m.cpu
                regs = m.regs
                a = regs[d]
                b = rs(m)
                r = a + b
                fl = cpu.flags
                fl.zf = (r & MASK32) == 0
                fl.sf = bool(r & 0x80000000)
                fl.cf = r > MASK32
                fl.of = bool((~(a ^ b) & (a ^ r)) & 0x80000000)
                regs[d] = r & MASK32
            return op
        if mnem == "sub":
            def op(m):
                cpu = m.cpu
                regs = m.regs
                a = regs[d]
                b = rs(m)
                r = a - b
                fl = cpu.flags
                fl.zf = (r & MASK32) == 0
                fl.sf = bool(r & 0x80000000)
                fl.cf = a < b
                fl.of = bool(((a ^ b) & (a ^ r)) & 0x80000000)
                regs[d] = r & MASK32
            return op
        # and / or / xor
        if mnem == "and":
            combine = lambda a, b: a & b  # noqa: E731
        elif mnem == "or":
            combine = lambda a, b: a | b  # noqa: E731
        else:
            combine = lambda a, b: a ^ b  # noqa: E731

        def op(m):
            cpu = m.cpu
            regs = m.regs
            r = combine(regs[d], rs(m)) & MASK32
            fl = cpu.flags
            fl.zf = r == 0
            fl.sf = bool(r & 0x80000000)
            fl.cf = False
            fl.of = False
            regs[d] = r
        return op
    rd = _read_closure(dst)
    wr = _write_closure(dst)
    if rd is None or wr is None:
        return None
    if mnem == "add":
        def op(m):
            cpu = m.cpu
            a = rd(m)
            b = rs(m)
            r = a + b
            cpu.flags.set_add(a, b, r)
            wr(m, r & MASK32)
        return op
    if mnem == "sub":
        def op(m):
            cpu = m.cpu
            a = rd(m)
            b = rs(m)
            r = a - b
            cpu.flags.set_sub(a, b, r)
            wr(m, r & MASK32)
        return op
    if mnem == "and":
        combine = lambda a, b: a & b  # noqa: E731
    elif mnem == "or":
        combine = lambda a, b: a | b  # noqa: E731
    else:
        combine = lambda a, b: a ^ b  # noqa: E731

    def op(m):
        r = combine(rd(m), rs(m)) & MASK32
        m.cpu.flags.set_logic(r)
        wr(m, r)
    return op


def _compile_cmp(instr: Instruction):
    ra = _read_closure(instr.operands[0])
    rb = _read_closure(instr.operands[1])
    if ra is None or rb is None:
        return None

    def op(m):
        a = ra(m)
        b = rb(m)
        r = a - b
        fl = m.cpu.flags
        fl.zf = (r & MASK32) == 0
        fl.sf = bool(r & 0x80000000)
        fl.cf = a < b
        fl.of = bool(((a ^ b) & (a ^ r)) & 0x80000000)
    return op


def _compile_test(instr: Instruction):
    ra = _read_closure(instr.operands[0])
    rb = _read_closure(instr.operands[1])
    if ra is None or rb is None:
        return None

    def op(m):
        r = ra(m) & rb(m)
        fl = m.cpu.flags
        fl.zf = r == 0
        fl.sf = bool(r & 0x80000000)
        fl.cf = False
        fl.of = False
    return op


def _compile_incdec(instr: Instruction):
    dec = instr.mnemonic == "dec"
    dst = instr.operands[0]
    if isinstance(dst, Reg) and dst.width == 4:
        d = dst.index

        def op(m):
            cpu = m.cpu
            regs = m.regs
            a = regs[d]
            r = a - 1 if dec else a + 1
            fl = cpu.flags
            fl.zf = (r & MASK32) == 0
            fl.sf = bool(r & 0x80000000)
            # CF is preserved, as on x86.
            fl.of = bool(((a ^ 1) & (a ^ r)) & 0x80000000) if dec else \
                bool((~(a ^ 1) & (a ^ r)) & 0x80000000)
            regs[d] = r & MASK32
        return op
    rd = _read_closure(dst)
    wr = _write_closure(dst)
    if rd is None or wr is None:
        return None

    def op(m):
        cpu = m.cpu
        a = rd(m)
        r = a - 1 if dec else a + 1
        carry = cpu.flags.cf
        if dec:
            cpu.flags.set_sub(a, 1, r)
        else:
            cpu.flags.set_add(a, 1, r)
        cpu.flags.cf = carry
        wr(m, r & MASK32)
    return op


def _compile_shift(instr: Instruction):
    mnem = instr.mnemonic
    dst, count_op = instr.operands
    rd = _read_closure(dst)
    wr = _write_closure(dst)
    rc = _read_closure(count_op)
    if rd is None or wr is None or rc is None:
        return None

    def op(m):
        count = rc(m) & 31
        a = rd(m)
        if mnem == "shl":
            r = (a << count) & MASK32
        elif mnem == "shr":
            r = (a & MASK32) >> count
        else:  # sar
            sa = a - 0x100000000 if a & 0x80000000 else a
            r = (sa >> count) & MASK32
        if count:
            fl = m.cpu.flags
            fl.zf = r == 0
            fl.sf = bool(r & 0x80000000)
        wr(m, r)
    return op


def _compile_negnot(instr: Instruction):
    neg = instr.mnemonic == "neg"
    dst = instr.operands[0]
    rd = _read_closure(dst)
    wr = _write_closure(dst)
    if rd is None or wr is None:
        return None

    def op(m):
        a = rd(m)
        if neg:
            r = (-a) & MASK32
            m.cpu.flags.set_sub(0, a, r)
        else:
            r = (~a) & MASK32
        wr(m, r)
    return op


def _compile_imul(instr: Instruction):
    dst, src = instr.operands
    if isinstance(dst, Reg) and dst.width == 4 and isinstance(src, Imm):
        d = dst.index
        k = signed32(src.value)

        def op(m):
            regs = m.regs
            a = regs[d]
            r = (a - 0x100000000 if a & 0x80000000 else a) * k
            low = r & MASK32
            truncated = low - 0x100000000 if low & 0x80000000 else low
            fl = m.cpu.flags
            fl.cf = fl.of = truncated != r
            fl.zf = truncated == 0
            fl.sf = truncated < 0
            regs[d] = low
        return op
    rd = _read_closure(dst)
    wr = _write_closure(dst)
    rs = _read_closure(src)
    if rd is None or wr is None or rs is None:
        return None

    def op(m):
        r = signed32(rd(m)) * signed32(rs(m))
        truncated = signed32(r)
        fl = m.cpu.flags
        fl.cf = fl.of = truncated != r
        fl.zf = truncated == 0
        fl.sf = truncated < 0
        wr(m, r & MASK32)
    return op


def _compile_cdq(instr: Instruction):
    def op(m):
        regs = m.regs
        regs[EDX_INDEX] = MASK32 if regs[EAX_INDEX] & 0x80000000 else 0
    return op


def _compile_idiv(instr: Instruction):
    rd = _read_closure(instr.operands[0])
    if rd is None:
        return None

    def op(m):
        divisor = signed32(rd(m))
        if divisor == 0:
            raise EmulationError("integer division by zero")
        regs = m.regs
        dividend = (regs[EDX_INDEX] << 32) | regs[EAX_INDEX]
        if dividend >= 1 << 63:
            dividend -= 1 << 64
        # Integer division, truncated toward zero as x86 does: a float
        # quotient rounds once edx:eax exceeds 2**53.
        quotient = abs(dividend) // abs(divisor)
        if (dividend < 0) != (divisor < 0):
            quotient = -quotient
        if not -0x80000000 <= quotient <= 0x7FFFFFFF:
            raise EmulationError("idiv quotient overflow")
        regs[EAX_INDEX] = quotient & MASK32
        regs[EDX_INDEX] = (dividend - quotient * divisor) & MASK32
    return op


def _compile_setcc(instr: Instruction):
    wr = _write_closure(instr.operands[0])
    if wr is None:
        return None
    cond = CONDITIONS[instr.cc]

    def op(m):
        wr(m, 1 if cond(m.cpu.flags) else 0)
    return op


def _compile_leave(instr: Instruction):
    def op(m):
        regs = m.regs
        ebp = regs[EBP_INDEX]
        regs[ESP_INDEX] = ebp
        regs[EBP_INDEX] = m.mem.read(ebp, 4)
        regs[ESP_INDEX] = (ebp + 4) & MASK32
    return op


def _compile_nop(instr: Instruction):
    def op(m):
        pass
    return op


# -- terminators ------------------------------------------------------------


def _compile_jmp(instr: Instruction, src: int, costs: CostModel):
    taken = costs.branch_taken
    target_op = instr.operands[0]
    if isinstance(target_op, Imm):
        target = target_op.value & MASK32
        edge = (src, target, "jump")

        def op(m):
            ts = m.trace_sink
            if ts is not None:
                ts.transfer(edge)
            m.cycles += taken
            m.cpu.eip = target
        return op
    rd = _read_closure(target_op)
    if rd is None:
        return None

    def op(m):
        target = rd(m)
        ts = m.trace_sink
        if ts is not None:
            ts.transfer((src, target, "jump"))
        m.cycles += taken
        m.cpu.eip = target
    return op


def _compile_jcc(instr: Instruction, src: int, next_eip: int,
                 costs: CostModel):
    target_op = instr.operands[0]
    if not isinstance(target_op, Imm):
        return None
    target = target_op.value & MASK32
    cond = CONDITIONS[instr.cc]
    taken = costs.branch_taken
    jump = (src, target, "jump")
    fallthrough = (src, next_eip, "fallthrough")

    def op(m):
        cpu = m.cpu
        ts = m.trace_sink
        if cond(cpu.flags):
            if ts is not None:
                ts.transfer(jump)
            m.cycles += taken
            cpu.eip = target
        else:
            if ts is not None:
                ts.transfer(fallthrough)
            cpu.eip = next_eip
    return op


def _compile_call(instr: Instruction, src: int, next_eip: int,
                  costs: CostModel):
    target_op = instr.operands[0]
    if isinstance(target_op, ImportRef):
        name = target_op.name
        import_cost = costs.import_call
        count = vararg_counter(name)
        edge = (src, next_eip, "import")

        def op(m):
            m.cycles += import_cost
            esp = m.regs[ESP_INDEX]
            ts = m.trace_sink
            if ts is not None:
                ts.transfer(edge)
                if count is not None:
                    ts.varargs(src, count(m.mem, esp))
            result = m.libc.call(name, StackArgs(m.mem, esp))
            m.regs[0] = result & MASK32
            m.cpu.eip = next_eip
        return op
    if isinstance(target_op, Imm):
        target = target_op.value & MASK32
        edge = (src, target, "call")

        def op(m):
            regs = m.regs
            esp = (regs[ESP_INDEX] - 4) & MASK32
            regs[ESP_INDEX] = esp
            m.mem.write(esp, 4, next_eip)
            ts = m.trace_sink
            if ts is not None:
                ts.transfer(edge)
            m.cpu.eip = target
        return op
    rd = _read_closure(target_op)
    if rd is None:
        return None

    def op(m):
        target = rd(m)
        regs = m.regs
        esp = (regs[ESP_INDEX] - 4) & MASK32
        regs[ESP_INDEX] = esp
        m.mem.write(esp, 4, next_eip)
        ts = m.trace_sink
        if ts is not None:
            ts.transfer((src, target, "call"))
        m.cpu.eip = target
    return op


def _compile_ret(instr: Instruction, src: int):
    def op(m):
        regs = m.regs
        esp = regs[ESP_INDEX]
        target = m.mem.read(esp, 4)
        regs[ESP_INDEX] = (esp + 4) & MASK32
        if target == EXIT_SENTINEL:
            m._halted = regs[0]
            return
        ts = m.trace_sink
        if ts is not None:
            ts.transfer((src, target, "ret"))
        m.cpu.eip = target
    return op


def _compile_hlt(instr: Instruction):
    def op(m):
        m._halted = m.regs[0]
    return op


def _compile(instr: Instruction, next_eip: int, costs: CostModel):
    """Specialize one instruction, or return None when no template
    covers its mnemonic and operand shapes."""
    mnem = instr.mnemonic
    src = instr.addr
    if mnem in ("mov", "movzx"):
        return _compile_mov(instr)
    if mnem == "movsx":
        return _compile_movsx(instr)
    if mnem == "lea":
        return _compile_lea(instr)
    if mnem == "push":
        return _compile_push(instr)
    if mnem == "pop":
        return _compile_pop(instr)
    if mnem in ("add", "sub", "and", "or", "xor"):
        return _compile_arith(instr)
    if mnem == "cmp":
        return _compile_cmp(instr)
    if mnem == "test":
        return _compile_test(instr)
    if mnem in ("inc", "dec"):
        return _compile_incdec(instr)
    if mnem in ("shl", "shr", "sar"):
        return _compile_shift(instr)
    if mnem in ("neg", "not"):
        return _compile_negnot(instr)
    if mnem == "imul":
        return _compile_imul(instr)
    if mnem == "cdq":
        return _compile_cdq(instr)
    if mnem == "idiv":
        return _compile_idiv(instr)
    if mnem == "setcc":
        return _compile_setcc(instr)
    if mnem == "leave":
        return _compile_leave(instr)
    if mnem == "nop":
        return _compile_nop(instr)
    if mnem == "jmp":
        return _compile_jmp(instr, src, costs)
    if mnem == "jcc":
        return _compile_jcc(instr, src, next_eip, costs)
    if mnem == "call":
        return _compile_call(instr, src, next_eip, costs)
    if mnem == "ret":
        return _compile_ret(instr, src)
    if mnem == "hlt":
        return _compile_hlt(instr)
    return None


def _unimplemented(instr: Instruction):
    def op(m):
        raise EmulationError(f"unimplemented {instr!r}")
    return op


# ---------------------------------------------------------------------------
# Block cache
# ---------------------------------------------------------------------------


class SuperBlock:
    """One decoded, pre-compiled basic block."""

    __slots__ = ("addr", "addrs", "code", "cost", "count")

    def __init__(self, addr: int, addrs: tuple[int, ...],
                 code: tuple[Callable, ...], cost: int):
        self.addr = addr
        self.addrs = addrs   # executed-instruction addresses, in order
        self.code = code     # one closure per instruction, terminator last
        self.cost = cost     # static cycle cost of the whole block
        self.count = len(code)

    def __repr__(self) -> str:
        return f"<superblock {self.addr:#x}: {self.count} instrs>"


class BlockCache:
    """Compiled basic blocks for one image under one cost model.

    Shareable across any number of machines bound to the same image: the
    closures capture instruction constants only and receive the machine
    as an argument.
    """

    def __init__(self, disasm: Disassembler, costs: CostModel):
        self.disasm = disasm
        self.costs = costs
        self._blocks: dict[int, SuperBlock] = {}

    def block_at(self, addr: int) -> SuperBlock:
        block = self._blocks.get(addr)
        if block is None:
            block = self._build(addr)
            self._blocks[addr] = block
        return block

    def _build(self, addr: int) -> SuperBlock:
        _obs_count("emu.block_cache.compiled_blocks")
        instrs = self.disasm.basic_block(addr)
        costs = self.costs
        code = []
        cost = 0
        for instr in instrs:
            compiled = _compile(instr, instr.addr + instr.size, costs)
            code.append(compiled if compiled is not None
                        else _unimplemented(instr))
            cost += costs.instruction_cost(instr)
        return SuperBlock(addr, tuple(i.addr for i in instrs),
                          tuple(code), cost)


#: id(image) -> {cost model -> BlockCache}.  Keyed by identity (images are
#: unhashable dataclasses) with a finalizer that drops the entry when the
#: image is collected, so caches don't pin every binary ever executed.
_SHARED: dict[int, dict[CostModel, "BlockCache"]] = {}


def _drop_shared_entry(key: int) -> None:
    """Finalizer for a collected image: evict its compiled blocks."""
    per_image = _SHARED.pop(key, None)
    if per_image:
        dropped = sum(len(c._blocks) for c in per_image.values())
        _obs_count("emu.block_cache.evictions", dropped)


def shared_block_cache(image, costs: CostModel) -> BlockCache:
    """The process-wide block cache for ``image`` under ``costs``.

    Every machine bound to the same image object reuses one cache, so a
    binary is decoded and compiled once per process no matter how many
    runs (tracing inputs, cycle measurements, output comparisons) touch
    it.
    """
    key = id(image)
    per_image = _SHARED.get(key)
    if per_image is None:
        per_image = {}
        _SHARED[key] = per_image
        weakref.finalize(image, _drop_shared_entry, key)
    cache = per_image.get(costs)
    if cache is None:
        cache = BlockCache(shared_disassembler(image), costs)
        per_image[costs] = cache
    return cache
