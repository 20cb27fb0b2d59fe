"""IR containers: blocks, functions, modules, values."""

import pytest

from repro.errors import IRError
from repro.ir import (
    BinOp,
    Builder,
    Const,
    Function,
    GlobalVar,
    Module,
    Phi,
    Ret,
)


def test_const_normalization():
    assert Const(-1).value == 0xFFFFFFFF
    assert Const(-1).signed == -1
    assert Const(5) == Const(5)


def test_block_terminator_discipline():
    f = Function("f", [])
    b = f.add_block("entry")
    with pytest.raises(IRError):
        _ = b.terminator
    b.append(Ret([Const(0)]))
    assert b.is_terminated
    with pytest.raises(IRError):
        b.append(Ret([Const(1)]))


def test_function_renumber():
    f = Function("f", ["x"])
    builder = Builder(f)
    builder.position(f.add_block("entry"))
    a = builder.add(f.params[0], Const(1))
    builder.store(a, Const(0))
    b = builder.add(a, Const(2))
    builder.ret([b])
    f.renumber()
    assert a.name == "0" and b.name == "1"


def test_predecessors():
    f = Function("f", [])
    builder = Builder(f)
    e = f.add_block("entry")
    t = f.add_block("t")
    builder.position(e)
    builder.condbr(Const(1), t, t)
    builder.position(t)
    builder.ret([Const(0)])
    preds = f.predecessors()
    # A condbr with both edges to the same block contributes one entry
    # per edge.
    assert preds[t] == [e, e]
    assert preds[e] == []


def test_module_duplicate_names_rejected():
    m = Module()
    m.add_function(Function("f", []))
    with pytest.raises(IRError):
        m.add_function(Function("f", []))
    m.add_global(GlobalVar("g", 4))
    with pytest.raises(IRError):
        m.add_global(GlobalVar("g", 4))


def test_global_init_bytes_padding():
    g = GlobalVar("g", 8, b"ab")
    assert g.init_bytes() == b"ab\x00\x00\x00\x00\x00\x00"
    assert g.init_bytes(pad=False) == b"ab"
    with pytest.raises(IRError):
        GlobalVar("g", 1, b"toolong").init_bytes()


def test_global_word_initializer():
    g = GlobalVar("g", 8, [1, 2])
    assert g.init_bytes() == b"\x01\x00\x00\x00\x02\x00\x00\x00"


def test_phi_incoming_management():
    f = Function("f", [])
    a = f.add_block("a")
    b = f.add_block("b")
    phi = Phi([(a, Const(1)), (b, Const(2))])
    assert phi.value_for(a) == Const(1)
    phi.remove_incoming(a)
    assert phi.blocks == [b]
    with pytest.raises(KeyError):
        phi.value_for(a)


def test_operand_rewriting():
    x = BinOp("add", Const(1), Const(2))
    y = BinOp("mul", x, x)
    y.replace_operand(x, Const(3))
    assert y.ops == [Const(3), Const(3)]
