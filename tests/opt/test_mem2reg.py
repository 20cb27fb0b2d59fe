"""Alloca promotion to SSA."""

from hypothesis import given, seed, settings, strategies as st

from repro.ir import (
    Alloca,
    Builder,
    Const,
    Function,
    Load,
    Module,
    Phi,
    Store,
    function_to_text,
    run_module,
    verify_function,
)
from repro.opt import promotable_allocas, promote_allocas
from tests.opt.mem2reg_reference import reference_promote_allocas


def build():
    m = Module()
    f = Function("main", ["n"])
    m.add_function(f)
    m.entry_name = "main"
    return m, f, Builder(f)


def test_scalar_promotion_removes_memory_ops():
    m, f, b = build()
    b.position(f.add_block("entry"))
    slot = b.alloca(4)
    b.store(slot, Const(41))
    v = b.load(slot)
    b.ret([b.add(v, Const(1))])
    assert promote_allocas(f)
    verify_function(f)
    kinds = [type(i) for i in f.instructions()]
    assert Alloca not in kinds and Load not in kinds and Store not in kinds
    assert run_module(m).exit_code == 42


def test_loop_promotion_inserts_phi():
    m, f, b = build()
    entry = f.add_block("entry")
    head = f.add_block("head")
    body = f.add_block("body")
    done = f.add_block("done")
    b.position(entry)
    i_slot = b.alloca(4, name="i")
    b.store(i_slot, Const(0))
    b.br(head)
    b.position(head)
    iv = b.load(i_slot)
    c = b.icmp("slt", iv, Const(4))
    b.condbr(c, body, done)
    b.position(body)
    b.store(i_slot, b.add(b.load(i_slot), Const(1)))
    b.br(head)
    b.position(done)
    b.ret([b.load(i_slot)])
    assert promote_allocas(f)
    verify_function(f)
    assert any(isinstance(i, Phi) for i in f.instructions())
    assert run_module(m).exit_code == 4


def test_escaping_alloca_not_promoted():
    m, f, b = build()
    b.position(f.add_block("entry"))
    slot = b.alloca(4)
    b.store(slot, Const(1))
    b.call_external("free", [slot])  # address escapes
    b.ret([b.load(slot)])
    assert slot not in promotable_allocas(f)


def test_mixed_sizes_not_promoted_when_wider_load():
    m, f, b = build()
    b.position(f.add_block("entry"))
    slot = b.alloca(4)
    b.store(slot, Const(0xAB), 1)
    v = b.load(slot, 4)  # wider than the store
    b.ret([v])
    assert slot not in promotable_allocas(f)


def test_narrow_load_of_wide_store_promoted_with_ext():
    m, f, b = build()
    b.position(f.add_block("entry"))
    slot = b.alloca(4)
    b.store(slot, Const(0x1234), 4)
    v = b.load(slot, 1)
    b.ret([v])
    before = run_module(m).exit_code
    assert promote_allocas(f)
    verify_function(f)
    assert run_module(m).exit_code == before == 0x34


def test_load_before_store_yields_zero():
    m, f, b = build()
    b.position(f.add_block("entry"))
    slot = b.alloca(4)
    v = b.load(slot)
    b.store(slot, Const(5))
    b.ret([v])
    promote_allocas(f)
    assert run_module(m).exit_code == 0


def test_diamond_control_flow_phi_values():
    m, f, b = build()
    entry = f.add_block("entry")
    then = f.add_block("then")
    els = f.add_block("else")
    join = f.add_block("join")
    b.position(entry)
    slot = b.alloca(4)
    cond = b.icmp("sgt", f.params[0], Const(0))
    b.condbr(cond, then, els)
    b.position(then)
    b.store(slot, Const(10))
    b.br(join)
    b.position(els)
    b.store(slot, Const(20))
    b.br(join)
    b.position(join)
    b.ret([b.load(slot)])
    promote_allocas(f)
    verify_function(f)
    from repro.ir import Interpreter
    assert Interpreter(m).run(args=[1]).exit_code == 10
    assert Interpreter(m).run(args=[0]).exit_code == 20


# -- the shipped pass against the algorithm it replaced ----------------------

#: One instruction of a block: (kind, alloca index, width, operand seed).
#: A "use" reads an earlier value of the block, so a load's value is
#: read by later code, stored to another alloca or branched on.
_STEP = st.tuples(st.sampled_from(("load", "load", "store", "store", "use")),
                  st.integers(0, 3), st.sampled_from((1, 2, 4, 4, 4)),
                  st.integers(0, 7))
#: The CFG shapes a function chains, with their number of blocks: a
#: diamond and a loop whose join and header hold a phi of their own, a
#: ``condbr`` whose two edges reach one block, and an unreachable block
#: that branches into the code after it.
_SHAPES = {"block": 1, "diamond": 4, "loop": 3, "dup": 3, "dead": 2}


@st.composite
def _functions(draw):
    allocas = draw(st.integers(1, 3))
    escape = draw(st.booleans())
    shapes = draw(st.lists(st.sampled_from(sorted(_SHAPES)), min_size=1,
                           max_size=4))
    steps = st.lists(_STEP, max_size=5)
    return allocas, escape, [(shape, [draw(steps)
                                      for _ in range(_SHAPES[shape])])
                             for shape in shapes]


def _build_function(allocas, escape, shapes) -> Function:
    """``entry`` holds the allocas (the escaping one passes its address
    to a call); each shape then follows the last one's tail block."""
    f = Function("f", ["n", "c"])
    b = Builder(f)
    b.position(f.add_block("entry"))
    slots = [b.alloca(4, 4, f"v{n}") for n in range(allocas)]
    if escape:
        slots.append(b.alloca(4, 4, "escapes"))
        b.call_external("free", [slots[-1]])
    n, c = f.params

    def fill(block, steps):
        b.position(block)
        values = [n]
        for kind, which, width, pick in steps:
            slot = slots[which % len(slots)]
            if kind == "load":
                values.append(b.load(slot, width))
            elif kind == "store":
                b.store(slot, values[pick % len(values)], width)
            else:
                values.append(b.add(values[pick % len(values)], Const(1)))
        return values[-1]

    tail = f.entry
    for i, (shape, blocks) in enumerate(shapes):
        before = tail
        bbs = [f.add_block(f"s{i}_{k}") for k in range(len(blocks))]
        if shape == "dead":
            dead, join = bbs
            b.position(before)
            b.br(join)
            value = fill(dead, blocks[0])
            b.br(join)
            b.position(join)
            b.phi([(before, n), (dead, value)])
            fill(join, blocks[1])
            tail = join
            continue
        b.position(before)
        b.br(bbs[0])
        last = [fill(bb, steps) for bb, steps in zip(bbs, blocks,
                                                       strict=True)]
        if shape == "diamond":
            head, then, els, tail = bbs
            b.position(head)
            b.condbr(last[0], then, els)
            for arm in (then, els):
                b.position(arm)
                b.br(tail)
            # A phi that was there before promotion, first in its block.
            tail.instrs.insert(0, Phi([(then, last[1]), (els, last[2])]))
            tail.instrs[0].block = tail
        elif shape == "loop":
            header, body, tail = bbs
            b.position(header)
            b.condbr(last[0], body, tail)
            b.position(body)
            b.br(header)
            header.instrs.insert(0, Phi([(before, n), (body, last[1])]))
            header.instrs[0].block = header
        elif shape == "dup":
            head, mid, tail = bbs
            b.position(head)
            b.condbr(c, tail, mid)
            b.position(mid)
            b.condbr(last[1], tail, tail)
        else:
            tail = bbs[0]
    b.position(tail)
    b.ret([Const(0)])
    return f


@seed(37)
@settings(max_examples=300, deadline=None)
@given(_functions())
def test_promotion_prints_what_the_replaced_algorithm_printed(spec):
    shipped, reference = _build_function(*spec), _build_function(*spec)
    assert promote_allocas(shipped) == reference_promote_allocas(reference)
    assert function_to_text(shipped) == function_to_text(reference)
