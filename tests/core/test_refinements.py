"""The WYTIWYG refinements, stage by stage (paper §4-§5)."""


from repro.cc import compile_source
from repro.emu import run_binary, trace_binary
from repro.ir import run_module, verify_module
from repro.lifting import lift_traces
from repro.core import (
    apply_register_classification,
    classify_registers,
    classify_stack_refs,
    compute_sp0_offsets,
    recover_vararg_calls,
)
from repro.core.driver import _canonicalize
from tests.conftest import KERNEL_SOURCE, cached_image


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
