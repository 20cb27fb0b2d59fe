"""The replay engine: dedup, checked replay runs, merge determinism,
one interpreter per stage, and parallel/serial equivalence."""

import copy

import pytest

from repro import obs
from repro.core import driver
from repro.core.driver import wytiwyg_lift, wytiwyg_recompile
from repro.core.runtime import ArgAccess, StackVar, TracingRuntime
from repro.emu import trace_binary
from repro.errors import SymbolizeError
from repro.ir.interp import Interpreter
from repro.ir.printer import module_to_text
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
from repro.replay import ReplayEngine, module_fingerprint
from repro.replay.engine import _instrumented
from tests.conftest import KERNEL_SOURCE, cached_image

#: Exit-code workload (no printf): the module has no variadic call
#: site, so the varargs stage makes no run.
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


# -- TracingRuntime.merge -----------------------------------------------------


def _var(ref_id, **kw):
    return StackVar(ref_id=ref_id, func_name="f", sp0_offset=-8, **kw)


def test_merge_widens_bounds_commutatively():
    a = TracingRuntime()
    b = TracingRuntime()
    a.stack_vars[1] = _var(1, low=-4, high=4, align=4)
    b.stack_vars[1] = _var(1, low=-8, high=0, align=8)
    b.stack_vars[2] = _var(2, low=0, high=4)

    ab = TracingRuntime().merge(a).merge(b)
    ba = TracingRuntime().merge(b).merge(a)
    for merged in (ab, ba):
        assert (merged.stack_vars[1].low,
                merged.stack_vars[1].high) == (-8, 4)
        assert merged.stack_vars[1].align == 8
        assert (merged.stack_vars[2].low,
                merged.stack_vars[2].high) == (0, 4)


def test_merge_arg_access_does_not_fabricate_walked():
    # A merged span wider than one word must NOT set `walked` -- that
    # flag records *how* the area was accessed, not its extent.
    a = TracingRuntime()
    b = TracingRuntime()
    a.arg_accesses[7] = ArgAccess(callsite_id=7, low=0, high=4,
                                  callees={"f"})
    b.arg_accesses[7] = ArgAccess(callsite_id=7, low=4, high=8,
                                  callees={"g"})
    merged = TracingRuntime().merge(a).merge(b)
    access = merged.arg_accesses[7]
    assert (access.low, access.high) == (0, 8)
    assert access.callees == {"f", "g"}
    assert not access.walked

    b.arg_accesses[7].walked = True
    assert TracingRuntime().merge(a).merge(b).arg_accesses[7].walked


def test_merge_links_union_and_insertion_order():
    a = TracingRuntime()
    b = TracingRuntime()
    a.links.add(frozenset({1, 2}))
    b.links.add(frozenset({2, 3}))
    a.stack_vars[1] = _var(1)
    b.stack_vars[3] = _var(3)
    b.stack_vars[1] = _var(1)
    merged = TracingRuntime().merge(a).merge(b)
    assert merged.links == {frozenset({1, 2}), frozenset({2, 3})}
    # First-touch order is preserved: var 1 came from the first input.
    assert list(merged.stack_vars) == [1, 3]


# -- fingerprint --------------------------------------------------------------


def test_fingerprint_stable_and_mutation_sensitive():
    _image, traces = _traced()
    module = lift_traces(traces)
    fp1 = module_fingerprint(module)
    assert fp1 == module_fingerprint(module)

    func = next(iter(module.functions.values()))
    term = func.entry.instrs.pop()
    func.entry.append(term)  # version bumped, content identical
    assert module_fingerprint(module) == fp1

    func.entry.insert(0, BinOp("add", Const(1), Const(2)))
    assert module_fingerprint(module) != fp1


# -- dedup + validation ----------------------------------------------------


def test_engine_dedups_traced_inputs():
    _image, traces = _traced()
    engine = ReplayEngine(traces, jobs=1)
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
    for jobs in (1, 2):
        engine = ReplayEngine(traces, jobs=jobs)
        try:
            with pytest.raises(SymbolizeError) as err:
                engine.validate(module, "broken stage")
        finally:
            engine.close()
        assert "broken stage" in str(err.value)
        assert "traced input #" in str(err.value)


def test_interpreter_error_is_counted_and_noted():
    _image, traces = _traced()
    module = lift_traces(traces)
    engine = ReplayEngine(traces, jobs=1)
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


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("source, runs_per_input", [
    (EXIT_SOURCE, 3),    # regsave observation, bounds, final sweep
    (PRINTF_SOURCE, 4),  # plus the varargs observation
], ids=["exit", "printf"])
def test_replay_runs_count_the_runs_made(source, runs_per_input, jobs):
    image, traces = _traced(source)
    rec = obs.enable(reset=True)
    try:
        result = wytiwyg_recompile(image, INPUTS, traces=traces,
                                   allow_fallback=False, jobs=jobs)
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
#: zeroes the printed value first shows on traced input #1 — with
#: ``jobs=2`` too, where the bounds runs finish in any order.
FAULT_INPUTS = [[0], [3], [4], [3]]


def _rewrite_ext_ops(module, name, rewrite):
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, CallExt) and instr.ext_name == name:
                instr.ops = rewrite(instr.ops)
                instr.stack_args = False
        func.invalidate()


def _drop_printf_arg(real):
    def recover_vararg_calls(module, inputs, **kw):
        nsites = real(module, inputs, **kw)
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


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name, fault, stage, index, interp_errors", [
    # printf reading past its arguments is an interpreter error.
    ("recover_vararg_calls", _drop_printf_arg, "varargs refinement", 0, 1),
    ("classify_registers", _drop_arg_register, "register refinement",
     1, 0),
    ("instrument_module", _exit_on_dangling_value, "register refinement",
     0, 1),
], ids=["varargs", "regsave", "interp-error"])
def test_broken_stage_falls_back_naming_stage_and_input(
        monkeypatch, name, fault, stage, index, interp_errors, jobs):
    image = _register_arg_image()
    monkeypatch.setattr(driver, name, fault(getattr(driver, name)))
    rec = obs.enable(reset=True)
    try:
        result = wytiwyg_recompile(image, FAULT_INPUTS, jobs=jobs)
        errors = rec.registry.counters.get("validate.interpreter_errors", 0)
    finally:
        obs.disable()
    assert result.fallback
    note, = result.notes
    assert note.startswith(f"fallback to unsymbolized pipeline: {stage} "
                           f"broke functionality: traced input #{index} "
                           f"{FAULT_INPUTS[index]!r} diverged")
    assert errors == interp_errors


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
                                       allow_fallback=False, jobs=1)
            counters = dict(rec.registry.counters)
        finally:
            obs.disable()
        assert not result.fallback
        assert counters["ir.runs"] == 4 * k
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
    image = cached_image(WALK_SOURCE, opt_level="0")
    traces = trace_binary(image.stripped(), [[3], [9], [5]])
    pairs = []
    merged_pairs = []
    real = ReplayEngine.run_instrumented

    def snapshot(runtime):
        return copy.deepcopy(runtime.snapshot())

    def run_instrumented(self, module, stage):
        shared = Interpreter(module)
        expected = TracingRuntime()
        for items in self.unique_inputs:
            runtime, run = _instrumented(shared, items)
            run()
            fresh = TracingRuntime()
            interp = Interpreter(module, items,
                                 intrinsic_handler=fresh.handle)
            fresh.bind(interp)
            interp.run()
            pairs.append((snapshot(runtime), snapshot(fresh)))
            expected.merge(fresh)
        merged = real(self, module, stage)
        merged_pairs.append((snapshot(merged), snapshot(expected)))
        return merged

    monkeypatch.setattr(ReplayEngine, "run_instrumented", run_instrumented)
    wytiwyg_lift(traces, jobs=1)
    assert len(pairs) == 3
    for shared, fresh in pairs:
        assert shared == fresh
    # The inputs leave different extents, so a run that saw another
    # input's state (or sent its probes to another runtime) would show.
    assert pairs[0][0] != pairs[1][0]
    # The engine's merged runtime matches, in first-touch order too.
    (merged, expected), = merged_pairs
    assert merged == expected
    assert list(merged["stack_vars"]) == list(expected["stack_vars"])


# -- parallel/serial equivalence ----------------------------------------------


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
    image, traces = _traced()
    serial, serial_layouts = _recompile(image, INPUTS, traces, jobs=1)
    par, par_layouts = _recompile(image, INPUTS, traces, jobs=4)
    assert par.recovered.to_json() == serial.recovered.to_json()
    assert par_layouts == serial_layouts
    assert par.fallback == serial.fallback == False
    if serial.accuracy is not None:
        assert par.accuracy.precision == serial.accuracy.precision
        assert par.accuracy.recall == serial.accuracy.recall


def test_analysis_cache_off_is_byte_identical(monkeypatch):
    from repro.opt import analysis

    image, traces = _traced()
    cached, cached_layouts = _recompile(image, INPUTS, traces, jobs=1)
    monkeypatch.setattr(analysis, "_CACHE_ENABLED", False)
    plain, plain_layouts = _recompile(image, INPUTS, traces, jobs=1)
    assert plain.recovered.to_json() == cached.recovered.to_json()
    assert plain_layouts == cached_layouts


def test_run_instrumented_parallel_merges_deterministically():
    image = cached_image(KERNEL_SOURCE)
    m1, layouts1, _, _ = wytiwyg_lift(
        trace_binary(image.stripped(), [[], []]), jobs=1)
    m4, layouts4, _, _ = wytiwyg_lift(
        trace_binary(image.stripped(), [[], []]), jobs=4)
    assert module_to_text(m1) == module_to_text(m4)
    assert {n: [(v.start, v.end) for v in lo.variables]
            for n, lo in layouts1.items()} == \
           {n: [(v.start, v.end) for v in lo.variables]
            for n, lo in layouts4.items()}


# -- fork-pool reuse across stages --------------------------------------------


def test_pool_reused_across_sweeps_over_unchanged_module():
    """Consecutive parallel sweeps over the same module content share
    one set of forked workers instead of spawning a pool per stage."""
    _image, traces = _traced()
    module = lift_traces(traces)
    rec = obs.enable(reset=True)
    try:
        engine = ReplayEngine(traces, jobs=2)
        try:
            engine.run_instrumented(module, "lifting")
            engine.run_instrumented(module, "lifting")
            counters = rec.registry.counters
            assert counters.get("parallel.pool.spawns") == 1
            assert counters.get("parallel.pool.reuses", 0) >= 1
        finally:
            engine.close()
    finally:
        obs.disable()


def test_pool_respawns_when_module_mutates():
    _image, traces = _traced()
    module = lift_traces(traces)
    rec = obs.enable(reset=True)
    try:
        engine = ReplayEngine(traces, jobs=2)
        try:
            engine.run_instrumented(module, "lifting")
            func = next(iter(module.functions.values()))
            func.entry.insert(0, BinOp("add", Const(1), Const(2)))
            engine.run_instrumented(module, "lifting")
            assert rec.registry.counters.get(
                "parallel.pool.spawns") == 2
        finally:
            engine.close()
    finally:
        obs.disable()
