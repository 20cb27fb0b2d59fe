"""DCE (incl. phi webs) and CFG simplification."""

from repro.ir import (
    Builder,
    Const,
    Function,
    Module,
    Phi,
    run_module,
    verify_function,
)
from repro.ir.printer import function_to_text
from repro.opt import eliminate_dead_code, simplify_cfg


def build():
    m = Module()
    f = Function("main", ["x"])
    m.add_function(f)
    m.entry_name = "main"
    return m, f, Builder(f)


def simplify_to_fixpoint(f):
    """Simplify ``f``; a second call must find nothing to change."""
    changed = simplify_cfg(f)
    text = function_to_text(f)
    assert not simplify_cfg(f)
    assert function_to_text(f) == text
    return changed


def test_unused_pure_instructions_removed():
    m, f, b = build()
    b.position(f.add_block("entry"))
    b.add(Const(1), Const(2))       # dead
    b.mul(f.params[0], Const(3))    # dead
    b.ret([Const(0)])
    assert eliminate_dead_code(f)
    assert len(list(f.instructions())) == 1


def test_stores_and_calls_are_roots():
    m, f, b = build()
    b.position(f.add_block("entry"))
    slot = b.alloca(4)
    v = b.add(Const(1), Const(2))
    b.store(slot, v)
    call = b.call_external("rand", [])
    b.ret([Const(0)])
    eliminate_dead_code(f)
    names = [i.opcode for i in f.instructions()]
    assert "store" in names and "callext" in names and "add" in names


def test_dead_phi_cycle_removed():
    m, f, b = build()
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    done = f.add_block("done")
    b.position(entry)
    b.br(loop)
    b.position(loop)
    # A live counter and a dead phi web.
    live = b.phi([])
    dead = b.phi([])
    live.add_incoming(entry, Const(0))
    dead.add_incoming(entry, Const(0))
    nxt = b.add(live, Const(1))
    dead_next = b.add(dead, Const(7))
    live.add_incoming(loop, nxt)
    dead.add_incoming(loop, dead_next)
    cond = b.icmp("slt", nxt, Const(3))
    b.condbr(cond, loop, done)
    b.position(done)
    b.ret([live])
    assert eliminate_dead_code(f)
    phis = [i for i in f.instructions() if isinstance(i, Phi)]
    assert len(phis) == 1
    assert run_module(m).exit_code == 2


def test_constant_branch_folded():
    m, f, b = build()
    entry = f.add_block("entry")
    t = f.add_block("t")
    e = f.add_block("e")
    b.position(entry)
    b.condbr(Const(1), t, e)
    b.position(t)
    b.ret([Const(1)])
    b.position(e)
    b.ret([Const(2)])
    assert simplify_to_fixpoint(f)
    assert len(f.blocks) == 1  # folded + merged + unreachable removed
    assert run_module(m).exit_code == 1


def test_block_chain_merging():
    m, f, b = build()
    entry = f.add_block("entry")
    mid = f.add_block("mid")
    end = f.add_block("end")
    b.position(entry)
    b.br(mid)
    b.position(mid)
    v = b.add(f.params[0], Const(1))
    b.br(end)
    b.position(end)
    b.ret([v])
    simplify_to_fixpoint(f)
    assert len(f.blocks) == 1
    verify_function(f)


def test_single_value_phi_simplified():
    m, f, b = build()
    entry = f.add_block("entry")
    a = f.add_block("a")
    c = f.add_block("c")
    join = f.add_block("join")
    b.position(entry)
    cond = b.icmp("eq", f.params[0], Const(0))
    b.condbr(cond, a, c)
    b.position(a)
    b.br(join)
    b.position(c)
    b.br(join)
    b.position(join)
    phi = b.phi([(a, Const(5)), (c, Const(5))])
    b.ret([phi])
    simplify_to_fixpoint(f)
    assert not any(isinstance(i, Phi) for i in f.instructions())
    assert run_module(m).exit_code == 5


def test_switch_constant_folded():
    m, f, b = build()
    entry = f.add_block("entry")
    c1 = f.add_block("c1")
    dflt = f.add_block("dflt")
    b.position(entry)
    b.switch(Const(3), [(3, c1)], dflt)
    b.position(c1)
    b.ret([Const(30)])
    b.position(dflt)
    b.ret([Const(0)])
    simplify_to_fixpoint(f)
    assert run_module(m).exit_code == 30
    assert len(f.blocks) == 1
