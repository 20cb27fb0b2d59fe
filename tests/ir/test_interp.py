"""IR interpreter semantics."""

import pytest

from repro.errors import InterpError
from repro.ir import (
    Builder,
    Const,
    Function,
    GlobalRef,
    GlobalVar,
    Interpreter,
    Module,
    run_module,
)


def simple_module():
    m = Module()
    f = Function("main", [])
    m.add_function(f)
    m.entry_name = "main"
    return m, f, Builder(f)


def test_arithmetic_and_exit_code():
    m, f, b = simple_module()
    b.position(f.add_block("entry"))
    v = b.binop("mul", Const(6), Const(7))
    b.ret([v])
    assert run_module(m).exit_code == 42


def test_signed_division_truncates_toward_zero():
    m, f, b = simple_module()
    b.position(f.add_block("entry"))
    q = b.binop("div", Const(-7), Const(2))
    r = b.binop("rem", Const(-7), Const(2))
    s = b.binop("mul", q, r)  # (-3) * (-1) = 3
    b.ret([s])
    assert run_module(m).exit_code == 3


def test_division_by_zero_raises():
    m, f, b = simple_module()
    b.position(f.add_block("entry"))
    q = b.binop("div", Const(1), Const(0))
    b.ret([q])
    with pytest.raises(InterpError):
        run_module(m)


def test_loop_with_phi():
    m, f, b = simple_module()
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    done = f.add_block("done")
    b.position(entry)
    b.br(loop)
    b.position(loop)
    phi = b.phi([])
    total = b.phi([])
    phi.add_incoming(entry, Const(0))
    total.add_incoming(entry, Const(0))
    nxt = b.add(phi, Const(1))
    ntotal = b.add(total, phi)
    phi.add_incoming(loop, nxt)
    total.add_incoming(loop, ntotal)
    cond = b.icmp("slt", nxt, Const(5))
    b.condbr(cond, loop, done)
    b.position(done)
    b.ret([total])  # 0+1+2+3 = ... phi values before increment
    assert run_module(m).exit_code == 0 + 1 + 2 + 3


def test_memory_and_globals():
    m, f, b = simple_module()
    m.add_global(GlobalVar("g", 8, b"\x2a\x00\x00\x00"))
    b.position(f.add_block("entry"))
    v = b.load(GlobalRef("g"))
    b.store(b.add(GlobalRef("g"), Const(4)), v)
    v2 = b.load(b.add(GlobalRef("g"), Const(4)))
    b.ret([v2])
    assert run_module(m).exit_code == 42


def test_fixed_address_global():
    m, f, b = simple_module()
    m.add_global(GlobalVar("pinned", 4, b"\x07\x00\x00\x00",
                           fixed_addr=0x5000))
    b.position(f.add_block("entry"))
    v = b.load(Const(0x5000))
    b.ret([v])
    assert run_module(m).exit_code == 7


def test_alloca_frames_do_not_overlap_across_calls():
    m = Module()
    leaf = Function("leaf", [])
    b = Builder(leaf)
    b.position(leaf.add_block("entry"))
    slot = b.alloca(4)
    b.store(slot, Const(99))
    b.ret([Const(0)])
    m.add_function(leaf)

    main = Function("main", [])
    b = Builder(main)
    b.position(main.add_block("entry"))
    slot = b.alloca(4)
    b.store(slot, Const(7))
    b.call("leaf", [])
    v = b.load(slot)
    b.ret([v])
    m.add_function(main)
    m.entry_name = "main"
    assert run_module(m).exit_code == 7


def test_multi_result_calls():
    m = Module()
    pair = Function("pair", ["x"])
    pair.nresults = 2
    b = Builder(pair)
    b.position(pair.add_block("entry"))
    b.ret([b.add(pair.params[0], Const(1)),
           b.add(pair.params[0], Const(2))])
    m.add_function(pair)

    main = Function("main", [])
    b = Builder(main)
    b.position(main.add_block("entry"))
    call = b.call("pair", [Const(10)], nresults=2)
    r0 = b.result(call, 0)
    r1 = b.result(call, 1)
    b.ret([b.binop("mul", r0, r1)])
    m.add_function(main)
    m.entry_name = "main"
    assert run_module(m).exit_code == 11 * 12


def test_indirect_call_through_address_table():
    m = Module()
    target = Function("target", [])
    b = Builder(target)
    b.position(target.add_block("entry"))
    b.ret([Const(5)])
    target.orig_entry = 0x1234
    m.add_function(target)
    m.address_table[0x1234] = "target"

    main = Function("main", [])
    b = Builder(main)
    b.position(main.add_block("entry"))
    call = b.call_indirect(Const(0x1234), [])
    b.ret([call])
    m.add_function(main)
    m.entry_name = "main"
    assert run_module(m).exit_code == 5


def test_indirect_call_unknown_address_raises():
    m, f, b = simple_module()
    b.position(f.add_block("entry"))
    call = b.call_indirect(Const(0xDEAD), [])
    b.ret([call])
    with pytest.raises(InterpError):
        run_module(m)


def test_unreachable_raises():
    m, f, b = simple_module()
    b.position(f.add_block("entry"))
    b.unreachable("test")
    with pytest.raises(InterpError):
        run_module(m)


def test_switch_dispatch():
    m, f, b = simple_module()
    entry = f.add_block("entry")
    c1 = f.add_block("c1")
    c2 = f.add_block("c2")
    dflt = f.add_block("dflt")
    b.position(entry)
    b.switch(Const(7), [(5, c1), (7, c2)], dflt)
    for block, code in ((c1, 1), (c2, 2), (dflt, 0)):
        b.position(block)
        b.ret([Const(code)])
    assert run_module(m).exit_code == 2


def test_external_call_and_exit():
    m, f, b = simple_module()
    m.add_global(GlobalVar("fmt", 4, b"%d\x00"))
    b.position(f.add_block("entry"))
    b.call_external("printf", [GlobalRef("fmt"), Const(11)])
    b.call_external("exit", [Const(4)])
    b.ret([Const(0)])
    result = run_module(m)
    assert result.stdout == b"11" and result.exit_code == 4


def test_step_budget():
    m, f, b = simple_module()
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    b.position(entry)
    b.br(loop)
    b.position(loop)
    b.br(loop)
    with pytest.raises(InterpError):
        Interpreter(m, max_steps=500).run()


def test_unary_extensions():
    m, f, b = simple_module()
    b.position(f.add_block("entry"))
    v = b.unary("sext8", Const(0x80))
    w = b.unary("zext8", v)
    b.ret([b.binop("sub", b.unary("not", w), v)])
    # not(0x80)=0xFFFFFF7F ; sext8(0x80)=0xFFFFFF80; diff = -1 mod 2^32
    assert run_module(m).exit_code == 0xFFFFFFFF
