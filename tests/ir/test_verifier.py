"""IR verifier catches malformed structures."""

import pytest

from repro.errors import IRError
from repro.ir import (
    Builder,
    Const,
    FuncRef,
    Function,
    GlobalRef,
    Module,
    Phi,
    Ret,
    Value,
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
    with pytest.raises(IRError, match="f/entry: missing terminator"):
        verify_function(f)


def test_foreign_value_rejected():
    f = valid_function()
    other = Function("g", ["y"])
    f.entry.instrs[-1].ops = [other.params[0]]
    with pytest.raises(IRError, match="f/entry: foreign parameter %y"):
        verify_function(f)


def test_ret_arity_checked():
    f = Function("f", [])
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.ret([Const(0), Const(1)])
    with pytest.raises(IRError, match="f: ret carries 2 values, "
                                      "function declares 1"):
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
    b.position(u)  # u must be well formed, or it fails first
    b.ret([Const(0)])
    with pytest.raises(IRError, match=r"f/t: phi incoming blocks disagree "
                                      r"with predecessors \(\['entry', "
                                      r"'u'\]\)"):
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
    with pytest.raises(IRError, match="caller: call to callee passes 1 "
                                      "args, callee takes 2"):
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
    with pytest.raises(IRError, match="f/entry: unknown global nope"):
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
    with pytest.raises(IRError, match="f: result index 5 out of range "
                                      "for 2-result call"):
        verify_module(m)


# One malformed function per remaining verifier message.  Each builder
# returns ``(function, module or None)``.


def _no_blocks():
    return Function("f", []), None


def _successor_outside():
    f = Function("f", [])
    elsewhere = Function("g", []).add_block("other")
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.br(elsewhere)
    return f, None


def _result_of_non_call():
    f = Function("f", ["x"])
    b = Builder(f)
    b.position(f.add_block("entry"))
    add = b.add(f.params[0], Const(1))
    b.ret([b.result(add, 0)])
    return f, None


def _module_with_callee(nresults: int = 1) -> Module:
    m = Module()
    callee = Function("callee", [], nresults=nresults)
    b = Builder(callee)
    b.position(callee.add_block("entry"))
    b.ret([Const(0)] * nresults)
    m.add_function(callee)
    return m


def _caller(m: Module, callee: str, nresults: int = 1):
    f = Function("f", [])
    b = Builder(f)
    b.position(f.add_block("entry"))
    call = b.call(callee, [], nresults=nresults)
    b.ret([b.result(call, 0) if nresults > 1 else call])
    m.add_function(f)
    return f, m


def _call_unknown_function():
    return _caller(_module_with_callee(), "nope")


def _call_wrong_result_count():
    return _caller(_module_with_callee(), "callee", nresults=2)


def _unknown_function_ref():
    m = _module_with_callee()
    f = Function("f", [])
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.ret([FuncRef("nope")])
    m.add_function(f)
    return f, m


def _instruction_from_other_function():
    g = Function("g", ["y"])
    b = Builder(g)
    b.position(g.add_block("entry"))
    foreign = b.add(g.params[0], Const(1))
    b.ret([foreign])
    f = Function("f", [])
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.ret([foreign])
    return f, None


def _bad_operand():
    f = Function("f", [])
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.ret([Value()])
    return f, None


@pytest.mark.parametrize("build, message", [
    (_no_blocks, "f: function has no blocks"),
    (_successor_outside, "f/entry: successor other not in function"),
    (_result_of_non_call, "f: result of non-call"),
    (_call_unknown_function, "f: call to unknown function nope"),
    (_call_wrong_result_count,
     "f: call to callee expects 2 results, callee returns 1"),
    (_unknown_function_ref, "f/entry: unknown function ref nope"),
    (_instruction_from_other_function,
     "f/entry: use of instruction not in function"),
    (_bad_operand, "f/entry: bad operand"),
], ids=["no-blocks", "successor-outside", "result-of-non-call",
        "call-unknown-function", "call-result-count",
        "unknown-function-ref", "foreign-instruction", "bad-operand"])
def test_each_malformation_raises_its_message(build, message):
    func, module = build()
    with pytest.raises(IRError, match=message):
        verify_function(func, module)
