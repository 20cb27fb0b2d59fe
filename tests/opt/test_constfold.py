"""Constant folding and algebraic simplification."""

from repro.ir import BinOp, Builder, Const, Function, run_module, \
    Module
from repro.ir.printer import function_to_text
from repro.opt import fold_constants


def build(make_body):
    m = Module()
    f = Function("main", ["x"])
    m.add_function(f)
    m.entry_name = "main"
    b = Builder(f)
    b.position(f.add_block("entry"))
    make_body(b, f)
    return m, f


def instrs(f):
    return [i for i in f.instructions()]


def test_folds_constant_tree():
    m, f = build(lambda b, f: b.ret(
        [b.add(b.binop("mul", Const(6), Const(7)), Const(0))]))
    fold_constants(f)
    assert len(instrs(f)) == 1  # just the ret
    assert f.entry.instrs[0].ops == [Const(42)]


def test_identity_simplifications():
    def body(b, f):
        x = f.params[0]
        v = b.add(x, Const(0))
        w = b.binop("mul", v, Const(1))
        z = b.binop("xor", w, w)
        b.ret([z])
    m, f = build(body)
    fold_constants(f)
    assert f.entry.instrs[-1].ops == [Const(0)]


def test_sub_canonicalized_to_add():
    def body(b, f):
        v = b.sub(f.params[0], Const(5))
        b.ret([v])
    m, f = build(body)
    fold_constants(f)
    op = f.entry.instrs[0]
    assert op.opcode == "add" and op.rhs == Const((-5) & 0xFFFFFFFF)


def test_add_chain_reassociation():
    def body(b, f):
        v = b.add(f.params[0], Const(3))
        w = b.add(v, Const(4))
        u = b.sub(w, Const(2))
        b.ret([u])
    m, f = build(body)
    fold_constants(f)
    final = f.entry.instrs[-1].ops[0]
    assert isinstance(final, BinOp)
    assert final.opcode == "add" and final.rhs == Const(5)
    assert final.lhs is f.params[0]


def test_icmp_folding():
    m, f = build(lambda b, f: b.ret([b.icmp("slt", Const(-1), Const(1))]))
    fold_constants(f)
    assert f.entry.instrs[0].ops == [Const(1)]


def test_icmp_same_operand():
    def body(b, f):
        v = b.icmp("sle", f.params[0], f.params[0])
        b.ret([v])
    m, f = build(body)
    fold_constants(f)
    assert f.entry.instrs[0].ops == [Const(1)]


def test_unary_folding():
    m, f = build(lambda b, f: b.ret([b.unary("sext8", Const(0xFF))]))
    fold_constants(f)
    assert f.entry.instrs[0].ops == [Const(0xFFFFFFFF)]


def test_division_by_zero_not_folded():
    def body(b, f):
        v = b.binop("div", Const(1), Const(0))
        b.ret([v])
    m, f = build(body)
    fold_constants(f)
    assert any(isinstance(i, BinOp) for i in instrs(f))  # kept


def test_semantics_preserved_on_random_exprs():
    import random
    rng = random.Random(7)
    for _ in range(25):
        ops = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr"]
        consts = [rng.randrange(-100, 100) for _ in range(4)]

        def body(b, f):
            v = Const(consts[0])
            for c in consts[1:]:
                v = b.binop(rng.choice(ops), v, Const(c))
            b.ret([v])
        m, f = build(body)
        before = run_module(m).exit_code
        fold_constants(f)
        after = run_module(m).exit_code
        assert before == after
        # One call reaches the fixed point: a second finds nothing.
        text = function_to_text(f)
        assert not fold_constants(f)
        assert function_to_text(f) == text
