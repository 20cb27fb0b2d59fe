"""The full WYTIWYG pipeline on small programs (paper §6.1-style)."""

import pytest

from repro.core import wytiwyg_recompile
from repro.emu import run_binary
from repro.lifting import EMUSTACK_NAME
from tests.conftest import FEATURE_SOURCE, FEATURE_STDOUT, \
    KERNEL_SOURCE, cached_image

CONFIGS = (("gcc12", "3"), ("gcc12", "0"), ("gcc44", "3"),
           ("clang16", "3"))


@pytest.mark.parametrize("compiler,opt", CONFIGS)
def test_feature_program_recompiles_correctly(compiler, opt):
    image = cached_image(FEATURE_SOURCE, compiler, opt)
    result = wytiwyg_recompile(image, [[]])
    assert not result.fallback
    recovered = run_binary(result.recovered)
    assert recovered.stdout == FEATURE_STDOUT
    assert recovered.exit_code == 0


def test_emulated_stack_removed_after_symbolization():
    image = cached_image(KERNEL_SOURCE)
    result = wytiwyg_recompile(image, [[]])
    assert EMUSTACK_NAME not in result.module.globals
    for func in result.module.functions.values():
        for param in func.params:
            assert param.name != "sp"


def test_symbolized_faster_than_unsymbolized():
    from repro.baselines import binrec_recompile
    image = cached_image(FEATURE_SOURCE)
    native = run_binary(image)
    nosym = run_binary(binrec_recompile(image.stripped(), [[]]))
    sym = run_binary(wytiwyg_recompile(image, [[]]).recovered)
    assert sym.cycles < nosym.cycles
    assert sym.stdout == nosym.stdout == native.stdout


def test_accuracy_report_produced():
    image = cached_image(KERNEL_SOURCE)
    result = wytiwyg_recompile(image, [[]])
    assert result.accuracy is not None
    assert result.accuracy.total_objects > 0
    assert result.accuracy.counts["matched"] > 0
    assert 0.0 <= result.accuracy.precision <= 1.0
    assert 0.0 <= result.accuracy.recall <= 1.0


def test_layouts_recover_known_array():
    # The kernel program has int arr[8] (32 bytes) in main (inlined into
    # the entry function at O3).
    image = cached_image(KERNEL_SOURCE)
    result = wytiwyg_recompile(image, [[]])
    sizes = {v.end - v.start
             for layout in result.layouts.values()
             for v in layout.variables}
    assert 32 in sizes


def test_untraced_path_traps_after_recompilation():
    from repro.cc import compile_source
    src = r'''
int main() {
    int x = read_int();
    if (x > 100) { printf("big\n"); return 1; }
    printf("small\n");
    return 0;
}
'''
    image = compile_source(src, "gcc12", "3", "t")
    result = wytiwyg_recompile(image, [[5]])
    ok = run_binary(result.recovered, [7])
    assert ok.stdout == b"small\n"
    trap = run_binary(result.recovered, [999])
    assert trap.exit_code in (198, 199)  # coverage failure, not garbage


def test_untraced_indirect_call_target_traps():
    from repro.cc import compile_source
    src = r'''
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int main() {
    int k = read_int();
    int (*ops[2])(int, int);
    ops[0] = add;
    ops[1] = sub;
    printf("%d\n", ops[k](10, 3));
    return 0;
}
'''
    image = compile_source(src, "gcc12", "3", "t")
    result = wytiwyg_recompile(image, [[0]])
    assert run_binary(result.recovered, [0]).stdout == b"13\n"
    # The call through ops[1] reaches a target no traced run called.
    assert run_binary(result.recovered, [1]).exit_code in (198, 199)


def test_incremental_relifting_fixes_coverage():
    from repro.cc import compile_source
    src = r'''
int main() {
    int x = read_int();
    if (x > 100) { printf("big\n"); return 1; }
    printf("small\n");
    return 0;
}
'''
    image = compile_source(src, "gcc12", "3", "t")
    result = wytiwyg_recompile(image, [[5], [999]])
    assert run_binary(result.recovered, [999]).stdout == b"big\n"
    assert run_binary(result.recovered, [7]).stdout == b"small\n"


def test_multiple_inputs_merge_bounds():
    from repro.cc import compile_source
    src = r'''
int main() {
    int buf[16];
    int n = read_int();
    int i;
    for (i = 0; i < n; i++) buf[i] = i;
    int s = 0;
    for (i = 0; i < n; i++) s += buf[i];
    printf("%d\n", s);
    return 0;
}
'''
    image = compile_source(src, "gcc12", "3", "t")
    # A short run alone under-covers the array; together with a longer
    # run the variable must reach its full observed extent.
    result = wytiwyg_recompile(image, [[3], [16]])
    sizes = {v.end - v.start
             for layout in result.layouts.values()
             for v in layout.variables}
    assert any(s >= 64 for s in sizes)
    assert run_binary(result.recovered, [10]).stdout == b"45\n"
