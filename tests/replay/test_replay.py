"""The replay engine: dedup, checked replay runs, one interpreter
(and, for the bounds runs, one tracing runtime) per stage, and the
ignored ``jobs`` argument."""

import copy

import pytest

from repro import obs
from repro.core import driver
from repro.core.driver import wytiwyg_lift, wytiwyg_recompile
from repro.core.runtime import TracingRuntime
from repro.emu import trace_binary
from repro.errors import SymbolizeError
from repro.ir.interp import Interpreter
from repro.ir.values import BinOp, CallExt, Const
from repro.isa import (
    AsmFunction,
    AsmProgram,
    DataItem,
    EAX,
    ECX,
    ESP,
    Imm,
    ImportRef,
    Label,
    assemble,
    ins,
)
from repro.lifting import lift_traces
from repro.replay import ReplayEngine
from tests.conftest import cached_image

#: Exit-code workload (no printf): the module has no variadic call
#: site.
EXIT_SOURCE = r"""
int mix(int a, int b) {
    int acc = a;
    for (int i = 0; i < b; i++) acc = acc * 31 + i;
    return acc;
}
int main() {
    int n = read_int();
    int seed = read_int();
    return mix(seed, n * 10) % 97;
}
"""

#: The same computation, printed: one variadic call site.
PRINTF_SOURCE = r"""
int mix(int a, int b) {
    int acc = a;
    for (int i = 0; i < b; i++) acc = acc * 31 + i;
    return acc;
}
int main() {
    int n = read_int();
    int seed = read_int();
    printf("mix=%d n=%d\n", mix(seed, n * 10) % 1000, n);
    return n % 7;
}
"""

INPUTS = [[5, 1], [6, 2], [7, 3], [8, 4], [5, 1], [6, 2]]
DISTINCT = 4


def _traced(source=EXIT_SOURCE, inputs=INPUTS):
    image = cached_image(source)
    traces = trace_binary(image.stripped(), inputs)
    return image, traces


# -- dedup + validation ----------------------------------------------------


def test_engine_dedups_traced_inputs():
    _image, traces = _traced()
    engine = ReplayEngine(traces)
    assert len(engine.unique) == 4
    assert engine.deduped == 2
    # Traced order, first occurrences.
    assert engine.unique == [0, 1, 2, 3]
    assert engine.unique_inputs == INPUTS[:4]


def test_validation_failure_names_diverging_input():
    _image, traces = _traced()
    module = lift_traces(traces)
    # Break the program: force exit(123); the traced exit codes are
    # mix(...) % 97 truncations that never equal 123.
    mutated = False
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, CallExt) and instr.ext_name == "exit":
                instr.ops = [Const(123)]
                instr.stack_args = False
                mutated = True
        func.invalidate()
    assert mutated
    with pytest.raises(SymbolizeError) as err:
        ReplayEngine(traces).validate(module, "broken stage")
    assert "broken stage" in str(err.value)
    assert "traced input #" in str(err.value)


def test_interpreter_error_is_counted_and_noted():
    _image, traces = _traced()
    module = lift_traces(traces)
    engine = ReplayEngine(traces)
    # Dangling operand: the exit call consumes an instruction that never
    # executes, so every replay dies with an interpreter error.
    dangling = BinOp("add", Const(1), Const(2))
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, CallExt) and instr.ext_name == "exit":
                instr.ops = [dangling]
                instr.stack_args = False
        func.invalidate()
    rec = obs.enable(reset=True)
    try:
        with pytest.raises(SymbolizeError) as err:
            engine.validate(module, "crashing stage")
        assert rec.registry.counters.get(
            "validate.interpreter_errors") == 1
        assert any("interpreter error" in n for n in engine.notes)
        assert "diverged" in str(err.value)
    finally:
        obs.disable()


# -- every replay run is a check ---------------------------------------------


@pytest.mark.parametrize("source, runs_per_input", [
    # Regsave observation, bounds, final sweep: the varargs rewrite
    # takes its counts from the trace and makes no run.
    (EXIT_SOURCE, 3),
    (PRINTF_SOURCE, 3),
], ids=["exit", "printf"])
def test_replay_runs_count_the_runs_made(source, runs_per_input):
    image, traces = _traced(source)
    rec = obs.enable(reset=True)
    try:
        result = wytiwyg_recompile(image, INPUTS, traces=traces,
                                   allow_fallback=False)
        counters = dict(rec.registry.counters)
    finally:
        obs.disable()
    assert not result.fallback
    assert counters["replay.runs"] == counters["ir.runs"] \
        == runs_per_input * DISTINCT


def _register_arg_image():
    """``scale`` takes its argument in ecx, which no MiniC personality
    does, so register classification finds a live argument register;
    the printf call is a variadic site and the exit call ends the run."""
    start = AsmFunction("_start", [
        ins("call", ImportRef("read_int")),
        ins("mov", ECX, EAX),
        ins("call", Label("scale")),
        ins("push", EAX),
        ins("push", Label("fmt")),
        ins("call", ImportRef("printf")),
        ins("add", ESP, Imm(8)),
        ins("push", Imm(0)),
        ins("call", ImportRef("exit")),
    ])
    scale = AsmFunction("scale", [
        ins("mov", EAX, ECX),
        ins("imul", EAX, Imm(10)),
        ins("ret"),
    ])
    return assemble(AsmProgram(functions=[start, scale],
                               data=[DataItem("fmt", b"%d\n\x00")],
                               imports=["read_int", "printf", "exit"]))


#: ``scale(0)`` prints 0 with or without its argument, so a fault that
#: zeroes the printed value first shows on traced input #1.
FAULT_INPUTS = [[0], [3], [4], [3]]


def _rewrite_ext_ops(module, name, rewrite):
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, CallExt) and instr.ext_name == name:
                instr.ops = rewrite(instr.ops)
                instr.stack_args = False
        func.invalidate()


def _drop_printf_arg(real):
    def recover_vararg_calls(module, traces):
        nsites = real(module, traces)
        _rewrite_ext_ops(module, "printf", lambda ops: ops[:-1])
        return nsites
    return recover_vararg_calls


def _drop_arg_register(real):
    def classify_registers(module, inputs, **kw):
        result = real(module, inputs, **kw)
        dropped = [regs for regs in result.args.values() if "ecx" in regs]
        assert dropped, "no function takes ecx"
        for regs in dropped:
            regs.discard("ecx")
        return result
    return classify_registers


def _exit_on_dangling_value(real):
    def instrument_module(module):
        mi = real(module)
        # The exit call consumes an instruction that never executes, so
        # every instrumented run dies with an interpreter error.
        dangling = BinOp("add", Const(1), Const(2))
        _rewrite_ext_ops(module, "exit", lambda ops: [dangling])
        return mi
    return instrument_module


@pytest.mark.parametrize("name, fault, stage, index, interp_errors", [
    # printf reading past its arguments is an interpreter error in the
    # first IR run, which checks lifting and the varargs rewrite.
    ("recover_vararg_calls", _drop_printf_arg, "lifting", 0, 1),
    ("classify_registers", _drop_arg_register, "register refinement",
     1, 0),
    ("instrument_module", _exit_on_dangling_value, "register refinement",
     0, 1),
], ids=["varargs", "regsave", "interp-error"])
def test_broken_stage_falls_back_naming_stage_and_input(
        monkeypatch, name, fault, stage, index, interp_errors):
    image = _register_arg_image()
    monkeypatch.setattr(driver, name, fault(getattr(driver, name)))
    rec = obs.enable(reset=True)
    try:
        result = wytiwyg_recompile(image, FAULT_INPUTS)
        errors = rec.registry.counters.get("validate.interpreter_errors", 0)
    finally:
        obs.disable()
    assert result.fallback
    note, = result.notes
    assert note.startswith(f"fallback to unsymbolized pipeline: {stage} "
                           f"broke functionality: traced input #{index} "
                           f"{FAULT_INPUTS[index]!r} diverged")
    assert errors == interp_errors


#: One printf site whose argument count depends on the input.
FORMAT_SOURCE = r"""
int main() {
    int k = read_int();
    char *fmt = k ? "%d %d %d\n" : "%d\n";
    printf(fmt, 1, 2, 3);
    return 0;
}
"""


def test_too_small_traced_count_names_lifting_and_first_input():
    # A site rewritten with fewer arguments than a traced call passed
    # fails the first IR run on the earliest input making such a call.
    inputs = [[0], [0], [1], [0]]
    traces = trace_binary(cached_image(FORMAT_SOURCE, opt_level="0")
                          .stripped(), inputs)
    (addr, count), = traces.vararg_counts.items()
    assert count == 4
    traces.vararg_counts[addr] = 2  # what input [0]'s format needs
    with pytest.raises(SymbolizeError) as err:
        wytiwyg_lift(traces)
    assert str(err.value).startswith(
        "lifting broke functionality: traced input #2 [1] diverged "
        "(EmulationError: external call read missing argument 2)")


# -- one interpreter per stage ------------------------------------------------


def test_stage_compiles_each_executed_block_once():
    """Every stage builds one interpreter and resets it per input, so
    the compiled blocks serve all of the stage's runs: k distinct
    inputs over the same paths compile as much as one."""
    image = cached_image(PRINTF_SOURCE)
    counts = {}
    for k in (1, 4):
        inputs = INPUTS[:k]
        traces = trace_binary(image.stripped(), inputs)
        rec = obs.enable(reset=True)
        try:
            result = wytiwyg_recompile(image, inputs, traces=traces,
                                       allow_fallback=False)
            counters = dict(rec.registry.counters)
        finally:
            obs.disable()
        assert not result.fallback
        assert counters["ir.runs"] == 3 * k
        counts[k] = counters["ir.code_cache.compiles"]
    assert counts[4] == counts[1] > 0


#: A local array walked up to the input's length, so each input leaves
#: a different extent in its bounds run's tracing runtime.
WALK_SOURCE = r"""
int walk(int n) {
    int buf[16];
    int i;
    int s = 0;
    for (i = 0; i < n; i++) buf[i] = i * 7;
    for (i = 0; i < n; i++) s += buf[i];
    return s;
}
int main() {
    int n = read_int();
    printf("%d\n", walk(n));
    return n;
}
"""


def test_bounds_runs_on_one_interpreter_match_fresh_ones(monkeypatch):
    # The stage's one runtime, bound to its one interpreter before each
    # input, equals one runtime bound to a fresh interpreter per input
    # in traced order, in first-touch order too.
    image = cached_image(WALK_SOURCE, opt_level="0")
    stages = []
    real = ReplayEngine.run_instrumented

    def snapshot(runtime):
        return copy.deepcopy(runtime.snapshot())

    def run_fresh(module, items, runtime):
        interp = Interpreter(module, items, probes=runtime)
        runtime.bind(interp)
        interp.run()
        return runtime

    def run_instrumented(self, module, stage, classification):
        expected = TracingRuntime()
        per_input = []
        for items in self.unique_inputs:
            run_fresh(module, items, expected)
            per_input.append(
                snapshot(run_fresh(module, items, TracingRuntime())))
        runtime = real(self, module, stage, classification)
        stages.append((snapshot(runtime), snapshot(expected), per_input))
        return runtime

    monkeypatch.setattr(ReplayEngine, "run_instrumented", run_instrumented)
    for inputs in ([[3], [9], [5]], [[5], [9], [3]]):
        stages.clear()
        wytiwyg_lift(trace_binary(image.stripped(), inputs))
        (shared, expected, per_input), = stages
        # The inputs leave different extents, so the reference is not
        # one run's state three times.
        assert per_input[0] != per_input[1]
        assert shared == expected
        assert list(shared["stack_vars"]) == list(expected["stack_vars"])
        assert list(shared["arg_accesses"]) == \
            list(expected["arg_accesses"])


# -- the ignored ``jobs`` argument --------------------------------------------


def _recompile(image, inputs, traces, **kw):
    result = wytiwyg_recompile(image, inputs, traces=traces,
                               allow_fallback=False, **kw)
    layouts = {
        name: [(v.name, v.start, v.end, v.align)
               for v in layout.variables]
        for name, layout in result.layouts.items()
    }
    return result, layouts


def test_jobs4_byte_identical_to_serial():
    """``jobs`` is accepted and ignored: ``jobs=4`` takes the one serial
    path, so it makes the same runs and compiles the same blocks."""
    image, traces = _traced()
    runs = {}
    for jobs in (1, 4):
        rec = obs.enable(reset=True)
        try:
            result, layouts = _recompile(image, INPUTS, traces, jobs=jobs)
            counters = dict(rec.registry.counters)
        finally:
            obs.disable()
        runs[jobs] = result, layouts, counters
    serial, serial_layouts, serial_counts = runs[1]
    par, par_layouts, par_counts = runs[4]
    assert par.recovered.to_json() == serial.recovered.to_json()
    assert par_layouts == serial_layouts
    assert par.fallback == serial.fallback == False
    for name in ("replay.runs", "ir.code_cache.compiles"):
        assert par_counts[name] == serial_counts[name] > 0
    if serial.accuracy is not None:
        assert par.accuracy.precision == serial.accuracy.precision
        assert par.accuracy.recall == serial.accuracy.recall


def test_analysis_cache_off_is_byte_identical(monkeypatch):
    from repro.opt import analysis

    image, traces = _traced()
    cached, cached_layouts = _recompile(image, INPUTS, traces)
    monkeypatch.setattr(analysis, "_CACHE_ENABLED", False)
    plain, plain_layouts = _recompile(image, INPUTS, traces)
    assert plain.recovered.to_json() == cached.recovered.to_json()
    assert plain_layouts == cached_layouts
