"""Compiled (table-dispatch) IR engine: parity with the reference
engine, cache invalidation, and the opt-out switches."""

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
    expected = sum(i * i for i in range(1, 10))
    m = loop_module()
    assert Interpreter(m, compiled=True).run().exit_code == expected
    assert Interpreter(m, compiled=False).run().exit_code == expected


def test_compiled_memory_and_globals_parity():
    results = []
    for compiled in (True, False):
        m, f, b = simple_module()
        m.add_global(GlobalVar("buf", 16))
        b.position(f.add_block("entry"))
        addr = b.binop("add", GlobalRef("buf"), Const(4))
        b.store(addr, Const(0xDEADBEEF))
        low = b.load(addr, size=2)
        high = b.load(b.binop("add", addr, Const(2)), size=2)
        b.ret([b.binop("sub", high, low)])
        results.append(Interpreter(m, compiled=compiled).run().exit_code)
    assert results[0] == results[1] == (0xDEAD - 0xBEEF) & 0xFFFFFFFF


def test_env_flag_disables_compiled_engine(monkeypatch):
    m = loop_module()
    monkeypatch.setenv("REPRO_IR_COMPILED", "0")
    assert Interpreter(m).compiled is False
    monkeypatch.setenv("REPRO_IR_COMPILED", "1")
    assert Interpreter(m).compiled is True
    # Explicit argument beats the environment.
    monkeypatch.setenv("REPRO_IR_COMPILED", "0")
    assert Interpreter(m, compiled=True).compiled is True


def test_step_budget_enforced_compiled():
    m, f, b = simple_module()
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    b.position(entry)
    b.br(loop)
    b.position(loop)
    b.br(loop)
    with pytest.raises(InterpError):
        Interpreter(m, max_steps=500, compiled=True).run()


def test_step_counts_match_reference():
    m = loop_module()
    compiled = Interpreter(m, compiled=True).run()
    reference = Interpreter(m, compiled=False).run()
    assert compiled.steps == reference.steps


def test_mutation_invalidates_compiled_blocks():
    m, f, b = simple_module()
    b.position(f.add_block("entry"))
    b.ret([Const(1)])
    seen = []
    interp = Interpreter(m, compiled=True,
                         intrinsic_handler=lambda fr, i, a: seen.append(a))
    assert interp.call_function(m.entry_function, []) == [1]
    assert seen == []
    # Splice a probe in front (bumps the function version) and re-run
    # through the same interpreter: the cached block must be rebuilt.
    entry = f.entry
    entry.insert(0, __import__("repro.ir.values", fromlist=["Intrinsic"])
                 .Intrinsic("wyt.test", [Const(42)]))
    assert interp.call_function(m.entry_function, []) == [1]
    assert seen == [[42]]


def test_shadow_plugin_parity():
    class Recorder:
        def __init__(self):
            self.events = []

        def call_enter(self, func, frame_id, args, arg_shadows):
            self.events.append(("enter", func.name, tuple(args)))
            return None

        def call_exit(self, func, frame_id, ret_values, ret_shadows):
            self.events.append(("exit", func.name, tuple(ret_values)))
            return None

        def on_instr(self, frame_id, instr, operand_shadows, result):
            self.events.append(("instr", instr.opcode, result))
            return None

        def on_store(self, frame_id, instr, addr, value, value_shadow):
            self.events.append(("store", addr, value))

        def on_load(self, frame_id, instr, addr, value):
            self.events.append(("load", addr, value))
            return None

        def on_callext(self, frame_id, instr, arg_values, arg_shadows):
            self.events.append(("callext", instr.ext_name,
                                tuple(arg_values)))

        def on_indirect_call(self, callee):
            self.events.append(("indirect", callee.name))

    logs = []
    for compiled in (True, False):
        m = loop_module()
        rec = Recorder()
        result = Interpreter(m, shadow=rec, compiled=compiled).run()
        assert result.exit_code == sum(i * i for i in range(1, 10))
        logs.append(rec.events)
    assert logs[0] == logs[1]
