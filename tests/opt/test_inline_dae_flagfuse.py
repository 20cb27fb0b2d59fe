"""Inlining, dead-argument elimination, and flag-pattern fusion."""

from repro.ir import (
    Builder,
    Call,
    Const,
    Function,
    ICmp,
    Module,
    Result,
    run_module,
    verify_module,
)
from repro.ir.printer import function_to_text
from repro.opt import (
    eliminate_dead_results,
    fuse_flags,
    inline_functions,
    shrink_signatures,
)


def module_with_callee(nresults=1):
    m = Module()
    callee = Function("callee", ["a", "b"])
    callee.nresults = nresults
    b = Builder(callee)
    b.position(callee.add_block("entry"))
    s = b.add(callee.params[0], callee.params[1])
    if nresults == 1:
        b.ret([s])
    else:
        b.ret([s, b.binop("mul", callee.params[0], callee.params[1])])
    m.add_function(callee)
    return m, callee


def test_inline_single_result():
    m, callee = module_with_callee()
    main = Function("main", [])
    mb = Builder(main)
    mb.position(main.add_block("entry"))
    call = mb.call("callee", [Const(2), Const(3)])
    mb.ret([call])
    m.add_function(main)
    m.entry_name = "main"
    assert inline_functions(m, max_callee_size=100)
    verify_module(m)
    assert not any(isinstance(i, Call)
                   for i in m.functions["main"].instructions())
    assert run_module(m).exit_code == 5


def test_inline_multi_result():
    m, callee = module_with_callee(nresults=2)
    main = Function("main", [])
    mb = Builder(main)
    mb.position(main.add_block("entry"))
    call = mb.call("callee", [Const(2), Const(3)], nresults=2)
    r0 = mb.result(call, 0)
    r1 = mb.result(call, 1)
    mb.ret([mb.add(r0, r1)])
    m.add_function(main)
    m.entry_name = "main"
    inline_functions(m, max_callee_size=100)
    verify_module(m)
    assert run_module(m).exit_code == 11


def test_inline_branching_callee_creates_phi():
    m = Module()
    callee = Function("pick", ["c"])
    b = Builder(callee)
    entry = callee.add_block("entry")
    t = callee.add_block("t")
    e = callee.add_block("e")
    b.position(entry)
    b.condbr(callee.params[0], t, e)
    b.position(t)
    b.ret([Const(10)])
    b.position(e)
    b.ret([Const(20)])
    m.add_function(callee)
    main = Function("main", [])
    mb = Builder(main)
    mb.position(main.add_block("entry"))
    call = mb.call("pick", [Const(1)])
    mb.ret([call])
    m.add_function(main)
    m.entry_name = "main"
    inline_functions(m, max_callee_size=100)
    verify_module(m)
    assert run_module(m).exit_code == 10


def test_recursive_callee_not_inlined():
    m = Module()
    rec = Function("rec", ["n"])
    b = Builder(rec)
    b.position(rec.add_block("entry"))
    call = b.call("rec", [rec.params[0]])
    b.ret([call])
    m.add_function(rec)
    main = Function("main", [])
    mb = Builder(main)
    mb.position(main.add_block("entry"))
    mb.ret([mb.call("rec", [Const(1)])])
    m.add_function(main)
    m.entry_name = "main"
    inline_functions(m, max_callee_size=100)
    assert any(isinstance(i, Call)
               for i in m.functions["main"].instructions())


def test_dead_params_dropped():
    m = Module()
    callee = Function("f", ["used", "unused"])
    b = Builder(callee)
    b.position(callee.add_block("entry"))
    b.ret([callee.params[0]])
    m.add_function(callee)
    main = Function("main", [])
    mb = Builder(main)
    mb.position(main.add_block("entry"))
    mb.ret([mb.call("f", [Const(3), Const(99)])])
    m.add_function(main)
    m.entry_name = "main"
    assert shrink_signatures(m)
    assert len(m.functions["f"].params) == 1
    verify_module(m)
    assert run_module(m).exit_code == 3


def test_dead_results_dropped_through_recursion():
    # f returns (useful, junk); junk only flows through f's own rets.
    m = Module()
    f = Function("f", ["n"])
    f.nresults = 2
    b = Builder(f)
    entry = f.add_block("entry")
    base = f.add_block("base")
    rec = f.add_block("rec")
    b.position(entry)
    cond = b.icmp("sle", f.params[0], Const(0))
    b.condbr(cond, base, rec)
    b.position(base)
    b.ret([Const(0), Const(7)])
    b.position(rec)
    call = b.call("f", [b.sub(f.params[0], Const(1))], nresults=2)
    r0 = b.result(call, 0)
    r1 = b.result(call, 1)
    b.ret([b.add(r0, f.params[0]), r1])
    m.add_function(f)
    main = Function("main", [])
    mb = Builder(main)
    mb.position(main.add_block("entry"))
    call = mb.call("f", [Const(4)], nresults=2)
    r0 = mb.result(call, 0)
    mb.ret([r0])
    m.add_function(main)
    m.entry_name = "main"
    assert shrink_signatures(m)
    assert m.functions["f"].nresults == 1
    verify_module(m)
    assert run_module(m).exit_code == 10


def test_entry_function_protected():
    m = Module()
    main = Function("main", ["argc"])
    b = Builder(main)
    b.position(main.add_block("entry"))
    b.ret([Const(0)])
    m.add_function(main)
    m.entry_name = "main"
    shrink_signatures(m)
    assert len(main.params) == 1  # untouched


def assert_fused_to_fixpoint(f):
    """A second fusion call finds nothing and leaves the text as is."""
    text = function_to_text(f)
    assert not fuse_flags(f)
    assert function_to_text(f) == text


def test_flag_fusion_slt_tree():
    # The lifter's signed-less-than tree must fold to a single icmp.
    m = Module()
    f = Function("main", ["a"])
    m.add_function(f)
    m.entry_name = "main"
    b = Builder(f)
    b.position(f.add_block("entry"))
    a = f.params[0]
    res = b.add(a, Const(-10))             # a - 10
    sf = b.icmp("slt", res, Const(0))
    x1 = b.binop("xor", a, Const(10))
    x2 = b.binop("xor", a, res)
    of = b.binop("shr", b.binop("and", x1, x2), Const(31))
    pred = b.binop("xor", sf, of)
    b.ret([pred])
    from repro.ir import Interpreter
    baseline = [Interpreter(m).run(args=[v & 0xFFFFFFFF]).exit_code
                for v in (-5, 5, 10, 15, 2**31 - 1, -2**31)]
    assert fuse_flags(f)
    assert_fused_to_fixpoint(f)
    from repro.opt import eliminate_dead_code
    eliminate_dead_code(f)
    icmps = [i for i in f.instructions() if isinstance(i, ICmp)]
    assert len(icmps) == 1 and icmps[0].pred == "slt"
    after = [Interpreter(m).run(args=[v & 0xFFFFFFFF]).exit_code
             for v in (-5, 5, 10, 15, 2**31 - 1, -2**31)]
    assert after == baseline


def test_flag_fusion_inversion_and_combination():
    m = Module()
    f = Function("main", ["a", "b"])
    m.add_function(f)
    m.entry_name = "main"
    b = Builder(f)
    b.position(f.add_block("entry"))
    eq = b.icmp("eq", f.params[0], f.params[1])
    ne = b.binop("xor", eq, Const(1))
    lt = b.icmp("ult", f.params[0], f.params[1])
    le = b.binop("or", lt, eq)
    b.ret([b.binop("and", ne, le)])
    fuse_flags(f)
    assert_fused_to_fixpoint(f)
    preds = sorted(i.pred for i in f.instructions()
                   if isinstance(i, ICmp))
    assert "ult" in preds  # and(ule, ne) -> ult
    from repro.ir import Interpreter
    assert Interpreter(m).run(args=[1, 2]).exit_code == 1
    assert Interpreter(m).run(args=[2, 2]).exit_code == 0
    assert Interpreter(m).run(args=[3, 2]).exit_code == 0


def test_flag_fusion_zext_of_bool():
    m = Module()
    f = Function("main", ["a"])
    m.add_function(f)
    m.entry_name = "main"
    b = Builder(f)
    b.position(f.add_block("entry"))
    c = b.icmp("ne", f.params[0], Const(0))
    z = b.unary("zext8", c)
    c2 = b.icmp("eq", z, Const(0))
    b.ret([c2])
    fuse_flags(f)
    assert_fused_to_fixpoint(f)
    from repro.ir import Interpreter
    assert Interpreter(m).run(args=[0]).exit_code == 1
    assert Interpreter(m).run(args=[5]).exit_code == 0


def test_renumbered_results_invalidate_the_caller():
    # Result 0 of f is dead; the caller's Results 1 and 2 are renumbered
    # in place and none is deleted.
    from repro.opt import analysis

    m = Module()
    f = Function("f", ["n"])
    f.nresults = 3
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.ret([Const(1), f.params[0], Const(2)])
    m.add_function(f)
    main = Function("main", [])
    mb = Builder(main)
    mb.position(main.add_block("entry"))
    call = mb.call("f", [Const(4)], nresults=3)
    mb.ret([mb.add(mb.result(call, 1), mb.result(call, 2))])
    m.add_function(main)
    m.entry_name = "main"
    before = analysis.current_epoch(main)
    assert eliminate_dead_results(m)
    assert analysis.current_epoch(main) != before
    assert [r.index for r in main.instructions()
            if isinstance(r, Result)] == [0, 1]
    verify_module(m)
    assert run_module(m).exit_code == 6
