"""Compiled (table-dispatch) IR engine: results, step counts and
shadow-plugin events on fixed modules, and cache invalidation.  The
expected values are the ones the tree-walking interpreter, which this
engine replaced, computed for the same modules."""

import pytest

from repro.errors import InterpError
from repro.ir import (
    Builder,
    Const,
    Function,
    GlobalRef,
    GlobalVar,
    Interpreter,
    Intrinsic,
    Module,
)


def simple_module():
    m = Module()
    f = Function("main", [])
    m.add_function(f)
    m.entry_name = "main"
    return m, f, Builder(f)


def loop_module():
    """sum(i*i for i in 1..9) via a phi loop plus a helper call."""
    m = Module()
    square = Function("square", ["x"])
    m.add_function(square)
    bs = Builder(square)
    bs.position(square.add_block("entry"))
    bs.ret([bs.binop("mul", square.params[0], square.params[0])])

    f = Function("main", [])
    m.add_function(f)
    m.entry_name = "main"
    b = Builder(f)
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    done = f.add_block("done")
    b.position(entry)
    b.br(loop)
    b.position(loop)
    i = b.phi([(entry, Const(1))])
    acc = b.phi([(entry, Const(0))])
    sq = b.call("square", [i])
    acc2 = b.binop("add", acc, sq)
    i2 = b.binop("add", i, Const(1))
    i.add_incoming(loop, i2)
    acc.add_incoming(loop, acc2)
    cond = b.icmp("slt", i2, Const(10))
    b.condbr(cond, loop, done)
    b.position(done)
    b.ret([acc2])
    return m


def test_compiled_and_reference_agree_on_loop():
    assert Interpreter(loop_module()).run().exit_code == \
        sum(i * i for i in range(1, 10)) == 285


def test_compiled_memory_and_globals_parity():
    m, f, b = simple_module()
    m.add_global(GlobalVar("buf", 16))
    b.position(f.add_block("entry"))
    addr = b.binop("add", GlobalRef("buf"), Const(4))
    b.store(addr, Const(0xDEADBEEF))
    low = b.load(addr, size=2)
    high = b.load(b.binop("add", addr, Const(2)), size=2)
    b.ret([b.binop("sub", high, low)])
    assert Interpreter(m).run().exit_code == (0xDEAD - 0xBEEF) & 0xFFFFFFFF


def test_step_budget_enforced_compiled():
    m, f, b = simple_module()
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    b.position(entry)
    b.br(loop)
    b.position(loop)
    b.br(loop)
    with pytest.raises(InterpError):
        Interpreter(m, max_steps=500).run()


def test_step_counts_match_reference():
    # The entry's br and the exit's ret, plus nine loop iterations of
    # five steps in main and two in ``square``; phis are not steps.
    assert Interpreter(loop_module()).run().steps == 65


class ProbeLog:
    """Compiles each probe into a closure logging its operand values."""

    def __init__(self):
        self.compiled = []
        self.seen = []

    def compile(self, instr, evs):
        self.compiled.append(instr)
        return lambda frame: self.seen.append(
            [ev(frame.values) for ev in evs])


def test_mutation_invalidates_compiled_blocks():
    m, f, b = simple_module()
    b.position(f.add_block("entry"))
    b.ret([Const(1)])
    probes = ProbeLog()
    interp = Interpreter(m, probes=probes)
    assert interp.call_function(m.entry_function, []) == [1]
    assert probes.seen == []
    # Splice a probe in front (bumps the function version) and re-run
    # through the same interpreter: the cached block must be rebuilt,
    # compiling the new probe.
    probe = Intrinsic("wyt.test", [Const(42)])
    f.entry.insert(0, probe)
    assert interp.call_function(m.entry_function, []) == [1]
    assert probes.compiled == [probe]
    assert probes.seen == [[42]]


class ShadowRecorder:
    """Logs every plugin event; parameters, loads and call results get
    named shadows, so uses of them reach ``on_use``."""

    def __init__(self):
        self.events = []

    def call_enter(self, func, frame_id, args, arg_shadows):
        self.events.append(("enter", func.name, tuple(args)))
        return [f"{func.name}.{p.name}" for p in func.params]

    def call_exit(self, func, frame_id, ret_values, ret_shadows):
        self.events.append(("exit", func.name, tuple(ret_values)))
        return [f"{func.name}.ret"] * len(ret_values)

    def on_use(self, frame_id, shadow):
        self.events.append(("use", shadow))

    def load_hook(self, instr):
        def shadow_of(addr):
            self.events.append(("load", addr))
            return f"load@{addr:#x}"
        return shadow_of

    def store_hooks(self, instr):
        def on_shadow(frame_id, addr, shadow):
            self.events.append(("store", addr, shadow))

        def on_plain(addr, shadow):
            self.events.append(("store", addr, shadow))
        return on_shadow, on_plain

    def on_callext(self, frame_id, instr, arg_values, arg_shadows):
        self.events.append(("callext", instr.ext_name,
                            tuple(arg_values)))

    def on_indirect_call(self, callee):
        self.events.append(("indirect", callee.name))


def test_shadow_plugin_parity():
    rec = ShadowRecorder()
    result = Interpreter(loop_module(), shadow=rec).run()
    assert result.exit_code == sum(i * i for i in range(1, 10))
    # ``square``'s one segment reads its parameter twice (``mul x, x``)
    # and reports it once, before the ``ret``.  In ``main`` the segment
    # after the call reads the call result (``add acc, sq``); the loop
    # phis only ever carry constants and arithmetic results, whose
    # shadows are None.
    per_call = [e for i in range(1, 10) for e in (
        ("enter", "square", (i,)), ("use", "square.x"),
        ("exit", "square", (i * i,)), ("use", "square.ret"))]
    assert rec.events == [("enter", "main", ()), *per_call,
                          ("exit", "main", (285,))]


def test_shadow_plugin_skips_operands_that_carry_no_shadow():
    m, f, b = simple_module()
    callee = Function("f", ["p"])
    m.add_function(callee)
    bc = Builder(callee)
    bc.position(callee.add_block("entry"))
    a = bc.binop("add", callee.params[0], Const(1))
    c = bc.binop("mul", Const(3), a)
    bc.ret([c])
    b.position(f.add_block("entry"))
    b.ret([b.call("f", [Const(4)])])
    rec = ShadowRecorder()
    assert Interpreter(m, shadow=rec).run().exit_code == 15
    # ``mul 3, a`` reads a constant and an arithmetic result: it adds
    # nothing to the segment's report, which names ``p`` alone.
    assert rec.events == [
        ("enter", "main", ()), ("enter", "f", (4,)), ("use", "f.p"),
        ("exit", "f", (15,)), ("exit", "main", (15,))]


def test_dead_compare_still_reports_its_uses():
    # ``f``'s compares feed nothing, so a shadow run does not compute
    # them.  The compare of ``q`` is its only use and is still reported;
    # the compare of ``p`` shares one report with the live add's use of
    # ``p`` in the same segment; the compare of an arithmetic result has
    # nothing to report.  In ``main`` each call result's use is reported
    # before the next call.
    m, f, b = simple_module()
    callee = Function("f", ["p", "q"])
    m.add_function(callee)
    bc = Builder(callee)
    bc.position(callee.add_block("entry"))
    p, q = callee.params
    bc.icmp("eq", p, Const(0))
    bc.icmp("ult", q, Const(7))
    k = bc.binop("add", p, Const(1))
    bc.icmp("eq", k, Const(0))
    bc.ret([k])
    b.position(f.add_block("entry"))
    total = Const(0)
    for n in range(3):
        total = b.binop("add", total,
                        b.call("f", [Const(n), Const(2 * n)]))
    b.ret([total])
    rec = ShadowRecorder()
    result = Interpreter(m, shadow=rec).run()
    assert result.exit_code == 1 + 2 + 3
    per_call = [e for n in range(3) for e in (
        ("enter", "f", (n, 2 * n)), ("use", "f.p"), ("use", "f.q"),
        ("exit", "f", (n + 1,)), ("use", "f.ret"))]
    assert rec.events == [("enter", "main", ()), *per_call,
                          ("exit", "main", (6,))]
    # Dead or not, every instruction of an entered block is a step.
    assert result.steps == Interpreter(m).run().steps == 3 * 5 + 7


def test_use_before_exit_is_reported_and_one_after_is_not():
    # One block: a use of ``p``, a call to ``exit``, a use of ``q``.  The
    # segment that ends at the external call reports ``p`` before the
    # call ends the run; ``q``'s use never runs.
    m, f, b = simple_module()
    callee = Function("f", ["p", "q"])
    m.add_function(callee)
    bc = Builder(callee)
    bc.position(callee.add_block("entry"))
    before = bc.binop("add", callee.params[0], Const(1))
    bc.call_external("exit", [Const(5)])
    after = bc.binop("add", callee.params[1], Const(1))
    bc.ret([bc.binop("add", before, after)])
    b.position(f.add_block("entry"))
    b.ret([b.call("f", [Const(1), Const(2)])])
    rec = ShadowRecorder()
    result = Interpreter(m, shadow=rec).run()
    assert result.exit_code == 5
    assert rec.events == [
        ("enter", "main", ()), ("enter", "f", (1, 2)), ("use", "f.p"),
        ("callext", "exit", (5,))]


def test_uses_report_once_per_segment():
    # ``p`` is read twice before the call to ``g`` and once after it:
    # the first segment reports it once, the second once more, with the
    # call result it also reads.
    m, f, b = simple_module()
    g = Function("g", [])
    m.add_function(g)
    bg = Builder(g)
    bg.position(g.add_block("entry"))
    bg.ret([Const(0)])
    callee = Function("f", ["p"])
    m.add_function(callee)
    bc = Builder(callee)
    bc.position(callee.add_block("entry"))
    p = callee.params[0]
    x = bc.binop("add", p, Const(1))
    y = bc.binop("mul", p, x)
    r = bc.call("g", [])
    z = bc.binop("sub", p, r)
    bc.ret([bc.binop("add", y, z)])
    b.position(f.add_block("entry"))
    b.ret([b.call("f", [Const(3)])])
    rec = ShadowRecorder()
    assert Interpreter(m, shadow=rec).run().exit_code == 3 * 4 + 3
    assert rec.events == [
        ("enter", "main", ()), ("enter", "f", (3,)), ("use", "f.p"),
        ("enter", "g", ()), ("exit", "g", (0,)),
        ("use", "f.p"), ("use", "g.ret"),
        ("exit", "f", (15,)), ("exit", "main", (15,))]


def test_dead_division_by_zero_still_raises_in_a_shadow_run():
    m, f, b = simple_module()
    callee = Function("f", ["p"])
    m.add_function(callee)
    bc = Builder(callee)
    bc.position(callee.add_block("entry"))
    bc.binop("div", callee.params[0], Const(0))
    bc.ret([callee.params[0]])
    b.position(f.add_block("entry"))
    b.ret([b.call("f", [Const(7)])])
    with pytest.raises(InterpError, match="division by zero"):
        Interpreter(m, shadow=ShadowRecorder()).run()


def test_phi_swap_beside_a_dead_phi_stages_in_parallel():
    # ``a`` and ``b`` swap on every back edge; ``dead`` (read by nothing,
    # but carrying ``f.p``'s shadow) sits between them, so the shadow
    # run stages ``a`` and ``b`` apart from it.
    m, f, b = simple_module()
    callee = Function("f", ["p"])
    m.add_function(callee)
    bc = Builder(callee)
    entry = callee.add_block("entry")
    loop = callee.add_block("loop")
    done = callee.add_block("done")
    bc.position(entry)
    bc.br(loop)
    bc.position(loop)
    a = bc.phi([(entry, Const(1))])
    dead = bc.phi([(entry, callee.params[0])])
    b_ = bc.phi([(entry, Const(2))])
    i = bc.phi([(entry, Const(0))])
    a.add_incoming(loop, b_)
    dead.add_incoming(loop, a)
    b_.add_incoming(loop, a)
    i2 = bc.binop("add", i, Const(1))
    i.add_incoming(loop, i2)
    bc.condbr(bc.icmp("slt", i2, Const(4)), loop, done)
    bc.position(done)
    bc.ret([bc.binop("add", bc.binop("mul", a, Const(10)), b_)])
    b.position(f.add_block("entry"))
    b.ret([b.call("f", [Const(9)])])
    # Three back edges: (1, 2) -> (2, 1) -> (1, 2) -> (2, 1).
    assert Interpreter(m).run().exit_code == 21
    assert Interpreter(m, shadow=ShadowRecorder()).run().exit_code == 21


class MemoryShadow:
    """Keeps each stored word's shadow by address, as the §4.1 plugin
    does, and counts the calls its load hook takes."""

    def __init__(self):
        self.cells = {}
        self.uses = []
        self.word_loads = 0

    def call_enter(self, func, frame_id, args, arg_shadows):
        return [f"{func.name}.{p.name}" for p in func.params]

    def call_exit(self, func, frame_id, ret_values, ret_shadows):
        return None

    def on_use(self, frame_id, shadow):
        self.uses.append(shadow)

    def load_hook(self, instr):
        if instr.size != 4:
            return None

        def shadow_of(addr):
            self.word_loads += 1
            return self.cells.get(addr)
        return shadow_of

    def store_hooks(self, instr):
        def keep(frame_id, addr, shadow):
            self.cells[addr] = shadow
        return keep, self.cells.pop

    def on_callext(self, frame_id, instr, arg_values, arg_shadows):
        pass

    def on_indirect_call(self, callee):
        pass


def memory_shadow_module():
    """``f(p)`` spills ``p`` to a global, reloads it as a word and as a
    byte, overwrites it with a constant and reloads it once more; each
    reload feeds an add."""
    m, f, b = simple_module()
    m.add_global(GlobalVar("cell", 4))
    cell = GlobalRef("cell")
    callee = Function("f", ["p"])
    m.add_function(callee)
    bc = Builder(callee)
    bc.position(callee.add_block("entry"))
    bc.store(cell, callee.params[0])
    spilled = bc.binop("add", bc.load(cell), Const(1))
    low_byte = bc.binop("add", bc.load(cell, size=1), Const(2))
    bc.store(cell, Const(7))
    overwritten = bc.binop("add", bc.load(cell), Const(3))
    bc.ret([bc.binop("add", bc.binop("add", spilled, low_byte),
                     overwritten)])
    b.position(f.add_block("entry"))
    b.ret([b.call("f", [Const(5)])])
    return m


def test_memory_hooks_carry_a_spilled_shadow_through_a_word_load():
    plugin = MemoryShadow()
    result = Interpreter(memory_shadow_module(), shadow=plugin).run()
    assert result.exit_code == (5 + 1) + (5 + 2) + (7 + 3)
    # ``f``'s one segment reads all three reloads, and only the word
    # reload of the spilled parameter carries a shadow: the byte load
    # carries none, and the constant store cleared the cell, so the last
    # word load sees None.  The segment reports that shadow once.
    assert plugin.uses == ["f.p"]
    assert plugin.cells == {}
    # The two word loads called their hook once each; the byte load's
    # hook is None, so it made no plugin call.
    assert plugin.word_loads == 2
