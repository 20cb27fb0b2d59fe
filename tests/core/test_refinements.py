"""The WYTIWYG refinements, stage by stage (paper §4-§5)."""

import pytest

from repro.cc import compile_source
from repro.emu import run_binary, trace_binary
from repro.ir import run_module, verify_module
from repro.ir.interp import Interpreter
from repro.ir.values import Alloca, Const, GlobalRef, Load, Store
from repro.isa import (
    AsmFunction,
    AsmProgram,
    DataItem,
    EAX,
    EBX,
    ECX,
    ESP,
    Imm,
    ImportRef,
    Label,
    Mem,
    assemble,
    ins,
    jcc,
)
from repro.lifting import lift_traces
from repro.core import (
    apply_register_classification,
    classify_registers,
    classify_stack_refs,
    compute_sp0_offsets,
    recover_vararg_calls,
)
from repro.core.driver import _canonicalize
from repro.core.regsave import RegSavePlugin, RegSaveResult
from repro.core.sp0fold import is_lifted_function
from tests.conftest import FEATURE_SOURCE, KERNEL_SOURCE, cached_image


def lifted(source=KERNEL_SOURCE, compiler="gcc12", opt="3",
           inputs=None):
    image = cached_image(source, compiler, opt)
    traces = trace_binary(image.stripped(), inputs or [[]])
    return image, traces, lift_traces(traces)


# -- varargs refinement (§5.2) -------------------------------------------------


def test_vararg_sites_become_explicit():
    from repro.ir.values import CallExt
    image, traces, module = lifted()
    before = [i for f in module.functions.values()
              for i in f.instructions()
              if isinstance(i, CallExt) and i.stack_args]
    assert before  # printf lifted with stack switching
    n = recover_vararg_calls(module, traces)
    assert n == len(before)
    after = [i for f in module.functions.values()
             for i in f.instructions()
             if isinstance(i, CallExt) and i.stack_args]
    assert not after
    verify_module(module)
    assert run_module(module).stdout == run_binary(image).stdout


def test_vararg_argument_count_from_format():
    src = r'''
int main() {
    printf("%d %d %d\n", 1, 2, 3);
    printf("none\n");
    return 0;
}
'''
    from repro.ir.values import CallExt
    image = compile_source(src, "gcc12", "0", "t")
    traces = trace_binary(image.stripped(), [[]])
    module = lift_traces(traces)
    recover_vararg_calls(module, traces)
    counts = sorted(len(i.args) for f in module.functions.values()
                    for i in f.instructions()
                    if isinstance(i, CallExt) and i.ext_name == "printf")
    assert counts == [1, 4]


# -- register save/argument classification (§4.1) -------------------------------


def test_registers_classified_and_signatures_shrink():
    image, traces, module = lifted()
    recover_vararg_calls(module, traces)
    result = classify_registers(module, traces.inputs)
    assert result.args  # every lifted function classified
    apply_register_classification(module, result)
    verify_module(module)
    lifted_funcs = [f for f in module.functions.values()
                    if f.name.startswith("fn_")]
    assert any(f.nresults < 7 for f in lifted_funcs)
    assert all(len(f.params) <= 8 for f in lifted_funcs)
    assert run_module(module).stdout == run_binary(image).stdout


def test_callee_saved_registers_not_args():
    # gcc44 keeps a frame pointer: ebp is saved/restored, never an arg.
    image, traces, module = lifted(compiler="gcc44")
    recover_vararg_calls(module, traces)
    result = classify_registers(module, traces.inputs)
    for name, args in result.args.items():
        assert "ebp" not in args, name


def test_stack_pointer_never_in_signatures():
    image, traces, module = lifted()
    recover_vararg_calls(module, traces)
    result = classify_registers(module, traces.inputs)
    for args in result.args.values():
        assert "esp" not in args


def _observe_unpromoted(module, inputs):
    """The §4.1 observation run directly over the alloca-form module."""
    plugin = RegSavePlugin()
    with Interpreter(module, shadow=plugin) as interp:
        for items in inputs:
            interp.reset(items)
            plugin.reset()
            interp.run()
    return plugin.resolve()


@pytest.mark.parametrize("source", [KERNEL_SOURCE, FEATURE_SOURCE],
                         ids=["kernel", "feature"])
@pytest.mark.parametrize("compiler, opt", [
    ("gcc12", "0"), ("gcc12", "3"), ("gcc44", "3"), ("clang16", "3")])
def test_promoted_observation_matches_alloca_form(source, compiler, opt):
    image, traces, module = lifted(source, compiler, opt)
    recover_vararg_calls(module, traces)
    reference = lift_traces(traces)
    recover_vararg_calls(reference, traces)
    assert any(isinstance(i, Alloca) for f in reference.functions.values()
               for i in f.instructions())
    assert classify_registers(module, traces.inputs) == \
        _observe_unpromoted(reference, traces.inputs)


def test_observation_leaves_lifted_functions_in_ssa():
    image, traces, module = lifted()
    recover_vararg_calls(module, traces)
    classify_registers(module, traces.inputs)
    verify_module(module)
    for func in module.functions.values():
        if is_lifted_function(func):
            assert not any(isinstance(i, Alloca)
                           for i in func.instructions()), func.name
    assert run_module(module).stdout == run_binary(image).stdout


def _exit_with_eax(*before):
    """``_start``: ``before``, then print eax and exit."""
    return AsmFunction("_start", [
        *before,
        ins("push", EAX),
        ins("push", Label("fmt")),
        ins("call", ImportRef("printf")),
        ins("add", ESP, Imm(8)),
        ins("push", Imm(0)),
        ins("call", ImportRef("exit")),
    ])


def asm_image(functions):
    """The image of ``functions`` with the ``fmt`` string
    :func:`_exit_with_eax` prints and the imports these tests call."""
    return assemble(AsmProgram(functions=functions,
                               data=[DataItem("fmt", b"%d\n\x00")],
                               imports=["read_int", "printf", "exit"]))


def _classify_asm(functions, inputs):
    image = asm_image(functions)
    traces = trace_binary(image, inputs)
    module = lift_traces(traces)
    recover_vararg_calls(module, traces)
    result = classify_registers(module, traces.inputs)
    return lambda name: result.args[f"fn_{image.symbols[name]:08x}"]


def test_dead_flag_computation_counts_as_a_use():
    # ``cmp`` sets flags from ecx that ``test`` overwrites unread: the
    # observation run does not compute those dead flags but still
    # reports their read of ecx, so ecx stays an argument.
    start = _exit_with_eax(ins("mov", ECX, Imm(3)), ins("call", Label("f")))
    f = AsmFunction("f", [
        ins("cmp", ECX, Imm(0)),
        ins("mov", EAX, Imm(5)),
        ins("test", EAX, EAX),
        ins("ret"),
    ])
    args_of = _classify_asm([start, f], [[]])
    assert args_of("f") == {"ecx"}


@pytest.mark.parametrize("inputs", [[[1], [0]], [[0], [1]]],
                         ids=["g-first", "h-first"])
def test_register_symbols_do_not_leak_between_runs(inputs):
    # ``h`` reads the slot where ``g`` saves ebx, uninitialised in its
    # own run: a symbol left there by an earlier input's run of ``g``
    # must not turn g's saved ebx into an argument.
    start = _exit_with_eax(
        ins("call", ImportRef("read_int")),
        ins("test", EAX, EAX),
        jcc("e", Label("_start.h")),
        ins("call", Label("g")),
        ins("jmp", Label("_start.done")),
        "_start.h",
        ins("call", Label("h")),
        "_start.done",
    )
    g = AsmFunction("g", [
        ins("sub", ESP, Imm(16)),
        ins("push", EBX),
        ins("mov", EBX, Imm(7)),
        ins("pop", EBX),
        ins("add", ESP, Imm(16)),
        ins("mov", EAX, Imm(1)),
        ins("ret"),
    ])
    h = AsmFunction("h", [
        ins("mov", EAX, Mem(ESP, disp=-20)),
        ins("add", EAX, Imm(1)),
        ins("ret"),
    ])
    args_of = _classify_asm([start, g, h], inputs)
    assert args_of("g") == set()


def _spill_and_reload(*between):
    """``f`` spills ecx into its frame, runs ``between``, then reloads
    that word into eax and computes with it."""
    start = _exit_with_eax(ins("mov", ECX, Imm(3)), ins("call", Label("f")))
    f = AsmFunction("f", [
        ins("mov", Mem(ESP, disp=-8), ECX),
        *between,
        ins("mov", EAX, Mem(ESP, disp=-8)),
        ins("add", EAX, Imm(1)),
        ins("ret"),
    ])
    return _classify_asm([start, f], [[]])("f")


def test_a_reloaded_register_symbol_is_a_use():
    assert _spill_and_reload() == {"ecx"}


def test_a_plain_store_clears_the_spilled_symbol():
    # The constant overwrites the spilled ecx, so the word reload carries
    # no symbol and the add uses none.
    assert _spill_and_reload(ins("mov", Mem(ESP, disp=-8), Imm(0))) \
        == set()


def test_a_computed_store_clears_the_spilled_symbol():
    # A computed value carries no shadow, and its word store takes the
    # same closure as a symbol's: it too overwrites the spilled ecx.
    assert _spill_and_reload(
        ins("mov", EBX, Imm(5)), ins("add", EBX, Imm(1)),
        ins("mov", Mem(ESP, disp=-8), EBX)) == set()


def test_regsave_memory_hooks_are_the_shadow_maps_methods():
    # A sub-word load gets no hook, so it costs no call; the others are
    # C-level methods of the plugin's memory shadow.
    plugin = RegSavePlugin()
    addr = GlobalRef("cell")
    assert plugin.load_hook(Load(addr, size=1)) is None
    assert plugin.load_hook(Load(addr, size=2)) is None
    assert plugin.load_hook(Load(addr)) == plugin._mem_shadow.get
    for size in (1, 2, 4):
        _on_shadow, on_plain = plugin.store_hooks(
            Store(addr, Const(0), size=size))
        assert on_plain == plugin._mem_shadow.pop


# -- sp0 folding (§4.1) ----------------------------------------------------------


def test_sp0_offsets_fold_after_canonicalization():
    image, traces, module = lifted()
    recover_vararg_calls(module, traces)
    apply_register_classification(
        module, classify_registers(module, traces.inputs))
    _canonicalize(module)
    for func in module.functions.values():
        if not func.name.startswith("fn_"):
            continue
        offsets = compute_sp0_offsets(func)
        refs = classify_stack_refs(func)
        assert offsets[func.params[0]] == 0
        # Every call site's stack pointer argument must be foldable.
        from repro.ir.values import Call
        for instr in func.instructions():
            if isinstance(instr, Call) and \
                    instr.callee.name.startswith("fn_"):
                assert instr.args[0] in offsets
        # Base pointers (refs) are a subset of offset-known values.
        assert set(refs) <= set(offsets)


def test_stack_refs_exclude_pure_chain_nodes():
    image, traces, module = lifted()
    recover_vararg_calls(module, traces)
    apply_register_classification(
        module, classify_registers(module, traces.inputs))
    _canonicalize(module)
    func = next(f for f in module.functions.values()
                if f.name.startswith("fn_"))
    refs = classify_stack_refs(func)
    offsets = func.meta["sp0_offsets"]
    # There must exist chain-only values (e.g. intermediate esp updates)
    # that are not classified as base pointers.
    assert len(offsets) >= len(refs)


def test_call_site_rewrite_invalidates_the_caller():
    # Both results survive, so no Result is replaced: only the call's
    # operands and the Results' indices change, in place.
    from repro.ir import Builder, Function, Module
    from repro.lifting.translator import REG_ORDER
    from repro.opt.analysis import current_epoch

    m = Module()
    g = Function("g", ["sp", *REG_ORDER], nresults=len(REG_ORDER))
    gb = Builder(g)
    gb.position(g.add_block("entry"))
    gb.ret(list(g.params[1:]))
    m.add_function(g)
    main = Function("main", [])
    b = Builder(main)
    b.position(main.add_block("entry"))
    call = b.call("g", [Const(0x1000)] + [Const(5)] * len(REG_ORDER),
                  nresults=len(REG_ORDER))
    b.ret([b.add(b.result(call, 0), b.result(call, 1))])
    m.add_function(main)
    m.entry_name = "main"
    before = current_epoch(main)
    apply_register_classification(m, RegSaveResult(
        args={"g": {"eax"}}, outputs={"g": {"eax", "ecx"}}))
    assert current_epoch(main) != before
    verify_module(m)
    assert run_module(m).exit_code == 5


def test_a_result_one_call_drops_can_be_the_next_calls_argument():
    # g keeps eax and edx and hands ecx back unchanged, so each call
    # drops its ecx result.  The first call's ecx result is the second
    # call's ecx argument: the second call's dropped result resolves
    # through it to the first call's own ecx argument.
    from repro.ir import Builder, Function, Module
    from repro.ir.printer import module_to_text
    from repro.lifting.translator import REG_ORDER

    m = Module()
    g = Function("g", ["sp", *REG_ORDER], nresults=len(REG_ORDER))
    gb = Builder(g)
    gb.position(g.add_block("entry"))
    eax, ecx = g.params[1], g.params[2]
    gb.ret([gb.add(eax, ecx), ecx, gb.mul(eax, Const(2)), *g.params[4:]])
    m.add_function(g)
    main = Function("main", [])
    b = Builder(main)
    b.position(main.add_block("entry"))
    sp = Const(0x1000)
    first = b.call("g", [sp, *map(Const, range(1, 8))],
                   nresults=len(REG_ORDER))
    eax1, ecx1, edx1 = (b.result(first, i) for i in range(3))
    second = b.call("g", [sp, eax1, ecx1, edx1, *map(Const, range(4, 8))],
                    nresults=len(REG_ORDER))
    eax2, ecx2, edx2 = (b.result(second, i) for i in range(3))
    b.ret([b.add(b.add(eax2, ecx2), edx2)])
    m.add_function(main)
    m.entry_name = "main"
    assert run_module(m).exit_code == 13
    apply_register_classification(m, RegSaveResult(
        args={"g": {"eax", "ecx"}}, outputs={"g": {"eax", "edx"}}))
    verify_module(m)
    assert run_module(m).exit_code == 13
    assert module_to_text(m) == """\
; module module

func @g(%sp, %eax, %ecx) -> 2 {
entry:
  %0 = add %eax, %ecx
  %1 = mul %eax, 2
  ret %0, %1
}

func @main() -> 1 {
entry:
  %0 = call @g(4096, 1, 2) -> 2
  %1 = result %0[0]
  %2 = result %0[1]
  %3 = call @g(4096, %1, 2) -> 2
  %4 = result %3[0]
  %5 = result %3[1]
  %6 = add %4, 2
  %7 = add %6, %5
  ret %7
}
"""


def test_the_signature_rewrite_rebuilds_only_the_operands_it_replaces():
    # In g, ``seven`` reads no parameter; in main, ``kept`` reads a
    # result the call keeps.  Both keep their operand list objects,
    # while the instructions that read a parameter or a dropped result
    # get new ones.
    from repro.ir import Builder, Function, Module
    from repro.lifting.translator import REG_ORDER

    m = Module()
    g = Function("g", ["sp", *REG_ORDER], nresults=len(REG_ORDER))
    gb = Builder(g)
    gb.position(g.add_block("entry"))
    seven = gb.add(Const(3), Const(4))
    total = gb.add(g.params[1], seven)
    gb.ret([total, *g.params[2:]])
    m.add_function(g)
    main = Function("main", [])
    b = Builder(main)
    b.position(main.add_block("entry"))
    call = b.call("g", [Const(0x1000), *map(Const, range(5, 12))],
                  nresults=len(REG_ORDER))
    kept = b.add(b.result(call, 0), Const(1))
    dropped = b.add(b.result(call, 1), Const(1))
    b.ret([b.add(kept, dropped)])
    m.add_function(main)
    m.entry_name = "main"
    assert run_module(m).exit_code == 20
    lists = {instr: instr.ops for instr in (seven, total, kept, dropped)}
    apply_register_classification(m, RegSaveResult(
        args={"g": {"eax"}}, outputs={"g": {"eax", "edx"}}))
    verify_module(m)
    assert run_module(m).exit_code == 20
    assert seven.ops is lists[seven]
    assert kept.ops is lists[kept]
    assert total.ops is not lists[total]
    assert total.ops == [g.params[1], seven]
    assert dropped.ops is not lists[dropped]
    assert dropped.ops == [Const(6), Const(1)]
