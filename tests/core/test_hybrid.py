"""Hybrid static+dynamic lifting (the paper's §7.2 future-work
direction, implemented as an extension)."""

import pytest

from repro.cc import compile_source
from repro.core import wytiwyg_recompile
from repro.emu import run_binary

BRANCHY = r'''
int score(int kind, int value) {
    if (kind == 0) return value * 2;
    if (kind == 1) return value + 100;
    return -value;
}
int main() {
    int kind = read_int();
    int value = read_int();
    printf("score=%d\n", score(kind, value));
    return 0;
}
'''


@pytest.fixture(scope="module")
def image():
    return compile_source(BRANCHY, "gcc12", "3", "hybrid")


def test_plain_mode_traps_on_untraced(image):
    result = wytiwyg_recompile(image, [[0, 7]])
    assert run_binary(result.recovered, [0, 7]).stdout == b"score=14\n"
    assert run_binary(result.recovered, [1, 7]).exit_code in (198, 199)


def test_hybrid_mode_covers_untraced_branches(image):
    result = wytiwyg_recompile(image, [[0, 7]], hybrid=True)
    assert not result.fallback
    assert any("hybrid" in note for note in result.notes)
    assert run_binary(result.recovered, [0, 7]).stdout == b"score=14\n"
    assert run_binary(result.recovered, [1, 7]).stdout == b"score=107\n"
    assert run_binary(result.recovered, [2, 5]).stdout == b"score=-5\n"


def test_hybrid_preserves_traced_behaviour_on_suite_kernel(image):
    # Hybrid mode must never regress the traced-input guarantee.
    native = run_binary(image, [0, 9])
    result = wytiwyg_recompile(image, [[0, 9]], hybrid=True)
    recovered = run_binary(result.recovered, [0, 9])
    assert recovered.stdout == native.stdout
    assert recovered.exit_code == native.exit_code


def test_hybrid_does_not_follow_indirect_control_flow():
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
    result = wytiwyg_recompile(image, [[0]], hybrid=True)
    assert run_binary(result.recovered, [0]).stdout == b"13\n"
    # The indirect-call target for k=1 was never traced; hybrid's static
    # growth stops at indirect control flow, so this still traps rather
    # than guessing.
    assert run_binary(result.recovered, [1]).exit_code in (198, 199)


def test_hybrid_on_larger_program():
    from tests.conftest import FEATURE_SOURCE, FEATURE_STDOUT
    image = compile_source(FEATURE_SOURCE, "gcc12", "3", "t")
    result = wytiwyg_recompile(image, [[]], hybrid=True)
    assert run_binary(result.recovered).stdout == FEATURE_STDOUT


def test_hybrid_tags_static_blocks_for_provenance(image):
    # Statically-extended code carries no dynamic evidence; the lifted
    # function records which blocks came from static extension so
    # static-analysis findings can report their provenance.
    from repro.emu import trace_binary
    from repro.core.driver import wytiwyg_lift
    from repro.lifting.cfg import recover_cfg

    traces = trace_binary(image.stripped(), [[0, 7]])
    cfg = recover_cfg(traces, static_extend=True)
    assert cfg.static_addrs, "extension added no code"

    module, _layouts, _notes, _report = wytiwyg_lift(traces,
                                                     hybrid=True)
    tagged = [f for f in module.functions.values()
              if f.meta.get("static_blocks")]
    assert tagged, "no lifted function recorded static blocks"
    for func in tagged:
        names = {b.name for b in func.blocks}
        assert set(func.meta["static_blocks"]) <= names


def test_plain_lift_has_no_static_blocks(image):
    from repro.emu import trace_binary
    from repro.core.driver import wytiwyg_lift

    traces = trace_binary(image.stripped(), [[0, 7]])
    module, _layouts, _notes, _report = wytiwyg_lift(traces)
    assert not any(f.meta.get("static_blocks")
                   for f in module.functions.values())


def _short_trace_cell(program: str, seed: int = 1):
    from tests.conftest import e2e_cells
    from repro.workloads import WORKLOADS
    cell, = [c for c in e2e_cells().build_cells("short-trace", seed)
             if c.program == program]
    return WORKLOADS[program].compile(cell.compiler, cell.opt), cell.runs


@pytest.mark.parametrize("program", ["astar", "h264ref"])
def test_statically_added_vararg_site_keeps_fixed_arity(program):
    # The traced runs never reach one printf site that hybrid lifting
    # adds by static extension: the trace holds no argument count for
    # it, so the rewrite gives it the database's fixed arity while the
    # traced sites get their traced counts.
    from repro.core.extfuncs import EXTERNAL_DB
    from repro.core.varargs import find_vararg_sites, recover_vararg_calls
    from repro.emu import trace_binary
    from repro.lifting import lift_traces

    image, runs = _short_trace_cell(program)
    traces = trace_binary(image, runs)
    module = lift_traces(traces, static_extend=True)
    sites = find_vararg_sites(module)
    static = [s for s in sites if s.call_addr not in traces.vararg_counts]
    assert len(static) == 1
    assert recover_vararg_calls(module, traces) == len(sites)
    for site in sites:
        want = traces.vararg_counts.get(site.call_addr,
                                        EXTERNAL_DB[site.ext_name].nargs)
        assert len(site.args) == want
