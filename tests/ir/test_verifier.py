"""IR verifier catches malformed structures."""

import pytest

from repro.errors import IRError
from repro.ir import (
    Builder,
    Const,
    Function,
    GlobalRef,
    Module,
    Phi,
    Ret,
    verify_function,
    verify_module,
)


def valid_function():
    f = Function("f", ["x"])
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.ret([f.params[0]])
    return f


def test_valid_function_passes():
    verify_function(valid_function())


def test_missing_terminator_rejected():
    f = Function("f", [])
    f.add_block("entry")
    with pytest.raises(IRError):
        verify_function(f)


def test_foreign_value_rejected():
    f = valid_function()
    other = Function("g", ["y"])
    f.entry.instrs[-1].ops = [other.params[0]]
    with pytest.raises(IRError):
        verify_function(f)


def test_ret_arity_checked():
    f = Function("f", [])
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.ret([Const(0), Const(1)])
    with pytest.raises(IRError):
        verify_function(f)


def test_phi_preds_must_match():
    f = Function("f", [])
    b = Builder(f)
    e = f.add_block("entry")
    t = f.add_block("t")
    u = f.add_block("u")
    b.position(e)
    b.br(t)
    b.position(t)
    phi = Phi([(u, Const(1))])  # wrong: pred is entry, not u
    phi.block = t
    t.instrs.insert(0, phi)
    b.ret([phi])
    with pytest.raises(IRError):
        verify_function(f)


def test_phi_below_non_phi_rejected():
    f = Function("f", ["x"])
    b = Builder(f)
    e = f.add_block("entry")
    t = f.add_block("t")
    b.position(e)
    b.br(t)
    b.position(t)
    add = b.add(f.params[0], Const(1))
    b.ret([add])
    phi = Phi([(e, Const(1))])
    phi.block = t
    t.instrs.insert(1, phi)  # after the add: not a leading run
    with pytest.raises(IRError, match="phi below non-phi"):
        verify_function(f)


def test_phi_sandwiched_between_later_phis_rejected():
    # Regression: [phi, op, phi, phi] — a position-vs-phi-count check
    # lets the first out-of-place phi slip through because the later
    # phis pad the count.
    f = Function("f", ["x"])
    b = Builder(f)
    e = f.add_block("entry")
    t = f.add_block("t")
    b.position(e)
    b.br(t)
    b.position(t)
    add = b.add(f.params[0], Const(1))
    b.ret([add])
    phis = [Phi([(e, Const(n))]) for n in range(3)]
    for phi in phis:
        phi.block = t
    t.instrs.insert(0, phis[0])
    t.instrs.insert(2, phis[1])  # below the add
    t.instrs.insert(3, phis[2])
    with pytest.raises(IRError, match="phi below non-phi"):
        verify_function(f)


def test_leading_phi_run_accepted():
    f = Function("f", ["x"])
    b = Builder(f)
    e = f.add_block("entry")
    t = f.add_block("t")
    b.position(e)
    b.br(t)
    b.position(t)
    b.ret([f.params[0]])
    phis = [Phi([(e, Const(n))]) for n in range(2)]
    for i, phi in enumerate(phis):
        phi.block = t
        t.instrs.insert(i, phi)
    verify_function(f)


def test_terminator_mid_block_rejected():
    f = Function("f", [])
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.ret([])
    b.block.instrs.append(Ret([]))  # second terminator behind the first
    with pytest.raises(IRError, match="terminator mid-block"):
        verify_function(f)


def test_module_checks_call_arity():
    m = Module()
    callee = Function("callee", ["a", "b"])
    b = Builder(callee)
    b.position(callee.add_block("entry"))
    b.ret([Const(0)])
    m.add_function(callee)

    caller = Function("caller", [])
    b = Builder(caller)
    b.position(caller.add_block("entry"))
    call = b.call("callee", [Const(1)])  # too few args
    b.ret([call])
    m.add_function(caller)
    m.entry_name = "caller"
    with pytest.raises(IRError):
        verify_module(m)


def test_module_checks_unknown_global():
    m = Module()
    f = Function("f", [])
    b = Builder(f)
    b.position(f.add_block("entry"))
    v = b.load(GlobalRef("nope"))
    b.ret([v])
    m.add_function(f)
    m.entry_name = "f"
    with pytest.raises(IRError):
        verify_module(m)


def test_result_index_bounds():
    m = Module()
    callee = Function("c", [])
    b = Builder(callee)
    b.position(callee.add_block("entry"))
    b.ret([Const(0), Const(1)])
    callee.nresults = 2
    m.add_function(callee)

    caller = Function("f", [])
    b = Builder(caller)
    b.position(caller.add_block("entry"))
    call = b.call("c", [], nresults=2)
    bad = b.result(call, 5)
    b.ret([bad])
    m.add_function(caller)
    with pytest.raises(IRError):
        verify_module(m)
