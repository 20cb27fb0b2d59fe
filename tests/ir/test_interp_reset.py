"""One interpreter per replay stage: a run after :meth:`Interpreter.reset`
matches a fresh interpreter's run, and compiled blocks are shared."""

import pytest

from repro import obs
from repro.binary.image import HEAP_BASE
from repro.ir import (
    Builder,
    Const,
    Function,
    GlobalRef,
    GlobalVar,
    Interpreter,
    Module,
)

#: The first value of libc's ``rand`` from its initial state.
FIRST_RAND = ((1103515245 + 12345) & 0x7FFFFFFF) >> 16 & 0x7FFF


def leaky_module():
    """``main`` reads one input, adds it to a global, allocates, draws a
    random number and calls a probed helper, then prints what it saw:
    each of these leaves state behind that a later run must not see."""
    m = Module()
    m.add_global(GlobalVar("counter", 4, init=[7]))
    m.add_global(GlobalVar("fmt", 16, init=b"%d %x %d %d\n\x00"))

    helper = Function("helper", ["x"])
    m.add_function(helper)
    bh = Builder(helper)
    bh.position(helper.add_block("entry"))
    bh.intrinsic("wyt.probe", [helper.params[0]])
    bh.ret([bh.binop("add", helper.params[0], Const(1))])

    f = Function("main", [])
    m.add_function(f)
    m.entry_name = "main"
    b = Builder(f)
    b.position(f.add_block("entry"))
    n = b.call_external("read_int", [])
    old = b.load(GlobalRef("counter"))
    b.store(GlobalRef("counter"), b.binop("add", old, n))
    ptr = b.call_external("malloc", [Const(16)])
    rnd = b.call_external("rand", [])
    got = b.call("helper", [n])
    b.call_external("printf", [GlobalRef("fmt"), old, ptr, rnd, got])
    b.ret([b.binop("add", old, n)])
    return m


def probe_log(log):
    def handle(frame, instr, args):
        log.append((frame.function.name, frame.frame_id, args))
    return handle


@pytest.mark.parametrize("compiled", [True, False],
                         ids=["compiled", "reference"])
def test_reset_run_matches_a_fresh_interpreter(compiled):
    module = leaky_module()
    first_log, second_log, fresh_log = [], [], []
    interp = Interpreter(module, [3], intrinsic_handler=probe_log(first_log),
                         compiled=compiled)
    first = interp.run()
    interp.intrinsic_handler = probe_log(second_log)
    interp.reset([5])
    second = interp.run()
    fresh = Interpreter(module, [5], intrinsic_handler=probe_log(fresh_log),
                        compiled=compiled).run()

    assert (second.stdout, second.exit_code, second.steps) == \
        (fresh.stdout, fresh.exit_code, fresh.steps)
    assert second.steps == first.steps
    # Nothing leaks from the first run: the global's initializer, the
    # heap pointer, the input cursor and the rand state start over ...
    assert first.stdout == f"7 {HEAP_BASE:x} {FIRST_RAND} 4\n".encode()
    assert second.stdout == f"7 {HEAP_BASE:x} {FIRST_RAND} 6\n".encode()
    assert second.exit_code == 12
    # ... frame ids restart, and each run's probes reach the handler
    # installed for it.
    assert first_log == [("helper", 2, [3])]
    assert second_log == fresh_log == [("helper", 2, [5])]


def test_reset_clears_memory_written_by_the_previous_run():
    module = leaky_module()
    interp = Interpreter(module, [3])
    interp.run()
    scratch = 0x30000
    interp.mem.write(scratch, 4, 0xDEADBEEF)
    interp.reset([5])
    assert interp.mem.read(scratch, 4) == 0
    assert interp.mem.read(interp.global_addrs["counter"], 4) == 7
    assert interp.libc.stdout == b""
    assert interp.steps == 0


def test_leaving_the_stage_frees_compiled_blocks_and_pages():
    module = leaky_module()
    with Interpreter(module, [3]) as interp:
        interp.run()
        assert interp._code and interp.mem._pages
    assert not interp._code
    assert not interp.mem._pages


def test_reset_runs_share_compiled_blocks():
    module = leaky_module()
    compiles = []
    for k in (1, 3):
        rec = obs.enable(reset=True)
        try:
            interp = Interpreter(module)
            for n in range(k):
                interp.reset([n])
                interp.run()
            counters = dict(rec.registry.counters)
        finally:
            obs.disable()
        assert counters["ir.runs"] == k
        compiles.append(counters["ir.code_cache.compiles"])
    # Two functions of one block each, compiled once for every k.
    assert compiles == [2, 2]
