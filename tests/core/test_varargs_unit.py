"""Varargs recovery corner cases."""

from repro.cc import compile_source
from repro.core import recover_vararg_calls
from repro.emu import trace_binary
from repro.ir import run_module
from repro.ir.values import CallExt
from repro.lifting import lift_traces


def lift(src, inputs):
    image = compile_source(src, "gcc12", "0", "t")
    traces = trace_binary(image.stripped(), inputs)
    module = lift_traces(traces)
    return image, traces, module


def printf_arities(module):
    return sorted(len(i.args) for f in module.functions.values()
                  for i in f.instructions()
                  if isinstance(i, CallExt) and i.ext_name == "printf"
                  and not i.stack_args)


def test_same_site_max_args_across_runs():
    # One call site, two different format strings at runtime.
    src = r'''
int main() {
    int k = read_int();
    char *fmt = k ? "%d %d %d\n" : "%d\n";
    printf(fmt, 1, 2, 3);
    return 0;
}
'''
    image, traces, module = lift(src, [[0], [1]])
    recover_vararg_calls(module, traces)
    assert printf_arities(module) == [4]  # max over observed formats
    for items, expected in (([0], b"1\n"), ([1], b"1 2 3\n")):
        assert run_module(module, items).stdout == expected


def test_sprintf_format_position():
    src = r'''
int main() {
    char buf[32];
    sprintf(buf, "%d-%d", 4, 5);
    puts(buf);
    return 0;
}
'''
    image, traces, module = lift(src, [[]])
    recover_vararg_calls(module, traces)
    arities = [len(i.args) for f in module.functions.values()
               for i in f.instructions()
               if isinstance(i, CallExt) and i.ext_name == "sprintf"]
    assert arities == [4]
    assert run_module(module).stdout == b"4-5\n"


def test_percent_literal_not_an_argument():
    src = r'''
int main() { printf("100%% of %d\n", 7); return 0; }
'''
    image, traces, module = lift(src, [[]])
    recover_vararg_calls(module, traces)
    assert printf_arities(module) == [2]
    assert run_module(module).stdout == b"100% of 7\n"
