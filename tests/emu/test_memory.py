"""Sparse memory: little-endian access, page boundaries, strings."""

import pytest
from hypothesis import given, strategies as st

from repro.binary.image import Section, BinaryImage
from repro.emu.memory import PAGE_SIZE, Memory
from repro.errors import EmulationError


def test_zero_initialized():
    mem = Memory()
    assert mem.read(0x12345, 4) == 0
    assert mem.read_bytes(0x999, 16) == b"\x00" * 16


def test_little_endian_round_trip():
    mem = Memory()
    mem.write(0x100, 4, 0x11223344)
    assert mem.read(0x100, 4) == 0x11223344
    assert mem.read(0x100, 1) == 0x44
    assert mem.read(0x103, 1) == 0x11
    assert mem.read(0x100, 2) == 0x3344


def test_write_truncates_to_size():
    mem = Memory()
    mem.write(0x10, 1, 0x1FF)
    assert mem.read(0x10, 1) == 0xFF
    assert mem.read(0x11, 1) == 0


def test_cross_page_access():
    mem = Memory()
    addr = PAGE_SIZE - 2
    mem.write(addr, 4, 0xAABBCCDD)
    assert mem.read(addr, 4) == 0xAABBCCDD
    assert mem.read(PAGE_SIZE, 1) == 0xBB


def test_cross_page_bytes():
    mem = Memory()
    blob = bytes(range(100))
    mem.write_bytes(PAGE_SIZE - 50, blob)
    assert mem.read_bytes(PAGE_SIZE - 50, 100) == blob


def test_out_of_range_rejected():
    mem = Memory()
    with pytest.raises(EmulationError):
        mem.read(0x100000000 - 1, 4)
    with pytest.raises(EmulationError):
        mem.write(-1, 4, 0)


def test_cstring():
    mem = Memory()
    mem.write_bytes(0x400, b"hello\x00world")
    assert mem.read_cstring(0x400) == b"hello"


def test_unterminated_cstring_rejected():
    mem = Memory()
    mem.write_bytes(0x400, b"\x01" * 16)
    with pytest.raises(EmulationError):
        mem.read_cstring(0x400, limit=8)


def test_load_image_places_sections():
    image = BinaryImage(
        text=Section(".text", 0x1000, b"\xAB\xCD"),
        data_sections=[Section(".data", 0x2000, b"xyz", writable=True)])
    mem = Memory()
    mem.load_image(image)
    assert mem.read(0x1000, 2) == 0xCDAB
    assert mem.read_bytes(0x2000, 3) == b"xyz"


@given(st.integers(min_value=0, max_value=0xFFFFF000),
       st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.sampled_from([1, 2, 4]))
def test_write_read_property(addr, value, size):
    mem = Memory()
    mem.write(addr, size, value)
    assert mem.read(addr, size) == value & ((1 << (8 * size)) - 1)


# -- the engines' inline word paths -----------------------------------------
#
# The IR interpreter's 4-byte load and store closures and the emulator's
# word templates read a mapped page's word themselves and call
# ``Memory.read``/``write`` only off that path; at and across a page end,
# on an unmapped page and at the top of the address space they must give
# what ``Memory`` gives: the same value, the same pages, the same error.
# ``_ENGINES`` runs every closure that holds a copy of that path, and the
# general paths beside them (a constant address; in a shadow run, a store
# of a value that carries no shadow).

_PAGE = 0x30000000
#: Bytes every run starts with: the last 8 bytes of ``_PAGE``'s page, and
#: 12 bytes across the end of the page two above it (both pages mapped).
_PREMAP = ((_PAGE + PAGE_SIZE - 8, bytes(range(1, 9))),
           (_PAGE + 3 * PAGE_SIZE - 6, bytes(range(0x11, 0x1D))))
_VALUE = 0xA1B2C3D4

_ADDRESSES = {
    "offset-4092": _PAGE + 4092,
    "offset-4093": _PAGE + 4093,
    "offset-4094": _PAGE + 4094,
    "offset-4095": _PAGE + 4095,
    "across-mapped-pages": _PAGE + 3 * PAGE_SIZE - 2,
    "unmapped-page": _PAGE + 8 * PAGE_SIZE + 16,
    "top-word": 0xFFFFFFFC,
    "top-plus-1": 0xFFFFFFFD,
    "top-plus-3": 0xFFFFFFFF,
}


def _premapped(mem):
    for addr, data in _PREMAP:
        mem.write_bytes(addr, data)
    return mem


class _HookPlugin:
    """A shadow plugin whose load and store hooks are live, so the shadow
    run's closures (word path, then hook) are the ones that run."""

    def __init__(self):
        self.cells = {}

    def call_enter(self, func, frame_id, args, arg_shadows):
        return [f"{func.name}.{p.name}" for p in func.params]

    def call_exit(self, func, frame_id, ret_values, ret_shadows):
        return None

    def on_use(self, frame_id, shadow):
        pass

    def load_hook(self, instr):
        return self.cells.get

    def store_hooks(self, instr):
        def keep(frame_id, addr, shadow):
            self.cells[addr] = shadow
        return keep, self.cells.pop

    def on_callext(self, frame_id, instr, arg_values, arg_shadows):
        pass

    def on_indirect_call(self, callee):
        pass


def _ir_engine(address, stored, shadow):
    """A one-instruction ``main(p)`` whose access's address, and whose
    stored value, is the parameter or a constant."""
    from repro.ir import Builder, Const, Function, Interpreter, Module

    def setup(op, addr):
        m = Module()
        f = Function("main", ["p"])
        m.add_function(f)
        m.entry_name = "main"
        b = Builder(f)
        b.position(f.add_block("entry"))
        p = f.params[0]
        # The parameter is the address when the address is a value, and
        # the stored value otherwise.
        arg = addr if address == "param" else _VALUE
        if op == "load":
            b.ret([b.load(p if address == "param" else Const(addr))])
        else:
            b.store(p if address == "param" else Const(addr),
                    p if stored == "param" else Const(_VALUE))
            b.ret([Const(0)])
        interp = Interpreter(m, shadow=_HookPlugin() if shadow else None)
        _premapped(interp.mem)
        value = arg if stored == "param" else _VALUE
        return interp.mem, lambda: interp.run([arg]).exit_code, value
    return setup


def _emu_engine(load, store):
    """``load(addr)`` reads the word at ``addr`` into eax; ``store(addr)``
    writes ``_VALUE``, which eax holds, there."""
    from repro.emu.machine import Machine
    from repro.isa import (
        AsmFunction, AsmProgram, EAX, Imm, assemble, ins)

    def setup(op, addr):
        access = load(addr) if op == "load" else store(addr)
        prog = [ins("mov", EAX, Imm(_VALUE if op == "store" else 0)),
                *access, ins("hlt")]
        machine = Machine(assemble(AsmProgram(
            functions=[AsmFunction("_start", prog)])), [])
        _premapped(machine.mem)
        return machine.mem, lambda: machine.run().exit_code, _VALUE
    return setup


def _emu_shapes():
    from repro.isa import EAX, EBX, ESP, Imm, Mem, ins

    def at(addr):
        return ins("mov", EBX, Imm(addr))
    word = Mem(base=EBX)
    return {
        # mov r32,[base+disp] and mov [base+disp],r32.
        "emu-mov": _emu_engine(
            lambda a: [at(a), ins("mov", EAX, word)],
            lambda a: [at(a), ins("mov", word, EAX)]),
        # Any other [base+disp] operand: the operand read and write.
        "emu-operand": _emu_engine(
            lambda a: [at(a), ins("add", EAX, word)],
            lambda a: [at(a), ins("mov", word, Imm(_VALUE))]),
        # The stack word of push and pop.
        "emu-push-pop": _emu_engine(
            lambda a: [ins("mov", ESP, Imm(a)), ins("pop", EAX)],
            lambda a: [ins("mov", ESP, Imm((a + 4) & 0xFFFFFFFF)),
                       ins("push", EAX)]),
        # push [base+disp] and pop [base+disp], through a mapped stack.
        "emu-push-pop-memory": _emu_engine(
            lambda a: [at(a), ins("push", word), ins("pop", EAX)],
            lambda a: [ins("push", EAX), at(a), ins("pop", word)]),
    }


_ENGINES = {
    "ir-slot-address": _ir_engine("param", "constant", shadow=False),
    "ir-slot-address-and-value": _ir_engine("param", "param",
                                            shadow=False),
    "ir-constant-address": _ir_engine("constant", "constant",
                                      shadow=False),
    "ir-shadow-carrier": _ir_engine("param", "param", shadow=True),
    "ir-shadow-plain-value": _ir_engine("param", "constant", shadow=True),
    "ir-shadow-constant-address": _ir_engine("constant", "param",
                                             shadow=True),
    **_emu_shapes(),
}


def _outcome(op, run):
    try:
        value = run()
    except EmulationError as exc:
        return ("error", str(exc))
    return ("value", value) if op == "load" else ("stored",)


@pytest.mark.parametrize("where", list(_ADDRESSES))
@pytest.mark.parametrize("op", ["load", "store"])
@pytest.mark.parametrize("engine", list(_ENGINES))
def test_engine_word_paths_match_memory(engine, op, where):
    addr = _ADDRESSES[where]
    mem, run, value = _ENGINES[engine](op, addr)
    ref = _premapped(Memory())
    got = _outcome(op, run)
    expected = _outcome(op, lambda: ref.read(addr, 4) if op == "load"
                        else ref.write(addr, 4, value))
    assert got == expected
    pages = {a >> 12 for a, _ in _PREMAP} | {addr >> 12, (addr >> 12) + 1}
    for index in sorted(pages):
        mine, theirs = mem.page_of(index), ref.page_of(index)
        assert (mine is None) == (theirs is None), hex(index)
        assert mine == theirs, hex(index)
