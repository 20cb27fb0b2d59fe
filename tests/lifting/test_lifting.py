"""Trace-based CFG recovery, function recovery, and translation."""

import pytest

from repro.cc import compile_source
from repro.emu import run_binary, trace_binary
from repro.ir import run_module, verify_module
from repro.lifting import (
    lift_traces,
    recover_cfg,
    recover_functions,
)
from tests.conftest import FEATURE_SOURCE, KERNEL_SOURCE, cached_image


def traces_for(source, compiler="gcc12", opt="3", inputs=None):
    image = cached_image(source, compiler, opt)
    return image, trace_binary(image.stripped(), inputs or [[]])


def test_cfg_blocks_cover_executed_code():
    image, traces = traces_for(KERNEL_SOURCE)
    cfg = recover_cfg(traces)
    covered = set()
    for block in cfg.blocks.values():
        for instr in block.instrs:
            covered.add(instr.addr)
    assert covered == traces.executed


def test_cfg_untraced_branch_directions_flagged():
    src = r'''
int main() {
    int x = read_int();
    if (x > 100) printf("big\n");
    printf("done\n");
    return 0;
}
'''
    # The traced run never takes the branch: in the lifted function its
    # untraced direction goes to the block that traps, and its traced
    # direction does not.
    from repro.ir.values import CondBr, Unreachable

    image = compile_source(src, "gcc12", "0", "t")
    traces = trace_binary(image.stripped(), [[5]])
    cfg = recover_cfg(traces)
    blocks = {block.name: block
              for func in lift_traces(traces).functions.values()
              for block in func.blocks}

    def traps(block):
        term = block.terminator
        return isinstance(term, Unreachable) \
            and term.note == "untraced path"

    half_traced = [b for b in cfg.blocks.values()
                   if b.terminator.mnemonic == "jcc" and len(b.succs) == 1]
    assert half_traced
    for mblock in half_traced:
        branch = blocks[f"b{mblock.start:x}"].terminator
        assert isinstance(branch, CondBr)
        taken = mblock.terminator.operands[0].value
        traced, untraced = (branch.if_true, branch.if_false) \
            if mblock.succs == [taken] \
            else (branch.if_false, branch.if_true)
        assert traps(untraced) and not traps(traced)


def test_function_recovery_finds_call_targets():
    image, traces = traces_for(FEATURE_SOURCE)
    cfg = recover_cfg(traces)
    functions = recover_functions(cfg)
    assert cfg.entry in functions
    # fib is recursive, so it cannot be inlined away: its entry must be
    # among the recovered functions.
    assert len(functions) >= 2
    for func in functions.values():
        assert func.entry in func.blocks


def test_function_bodies_are_disjoint():
    image, traces = traces_for(FEATURE_SOURCE)
    functions = recover_functions(recover_cfg(traces))
    seen = {}
    for entry, func in functions.items():
        for addr in func.blocks:
            assert addr not in seen, (hex(addr), hex(entry),
                                      hex(seen[addr]))
            seen[addr] = entry


def test_lifted_module_replays_traced_run():
    image, traces = traces_for(FEATURE_SOURCE)
    module = lift_traces(traces)
    verify_module(module)
    native = run_binary(image)
    result = run_module(module)
    assert result.stdout == native.stdout
    assert result.exit_code == native.exit_code


def test_lifted_module_structure():
    image, traces = traces_for(KERNEL_SOURCE)
    module = lift_traces(traces)
    # Original data pinned, emulated stack present, address table filled.
    from repro.lifting import EMUSTACK_NAME
    assert EMUSTACK_NAME in module.globals
    assert any(g.fixed_addr is not None and g.name != EMUSTACK_NAME
               for g in module.globals.values())
    assert module.address_table
    for func in module.functions.values():
        if func.name.startswith("fn_"):
            assert func.params[0].name == "sp"
            assert func.nresults == 7


def test_untraced_input_can_trap():
    src = r'''
int main() {
    int x = read_int();
    if (x > 100) { printf("big\n"); return 1; }
    printf("small\n");
    return 0;
}
'''
    image = compile_source(src, "gcc12", "0", "t")
    traces = trace_binary(image.stripped(), [[5]])
    module = lift_traces(traces)
    assert run_module(module, [7]).stdout == b"small\n"
    from repro.errors import InterpError
    with pytest.raises(InterpError):
        run_module(module, [999])  # untraced direction


def test_incremental_lifting_covers_both_directions():
    src = r'''
int main() {
    int x = read_int();
    if (x > 100) { printf("big\n"); return 1; }
    printf("small\n");
    return 0;
}
'''
    image = compile_source(src, "gcc12", "0", "t")
    traces = trace_binary(image.stripped(), [[5], [999]])
    module = lift_traces(traces)
    assert run_module(module, [999]).stdout == b"big\n"
    assert run_module(module, [7]).stdout == b"small\n"


def test_lift_across_all_personalities():
    for comp, lvl in (("gcc12", "3"), ("gcc12", "0"), ("gcc44", "3"),
                      ("clang16", "3")):
        image, traces = traces_for(KERNEL_SOURCE, comp, lvl)
        module = lift_traces(traces)
        verify_module(module)
        assert run_module(module).stdout == run_binary(image).stdout


@pytest.mark.parametrize("seed", [1, 7])
def test_each_vararg_site_has_its_own_call_address(seed):
    # The varargs rewrite keys each stack-switched site's traced
    # argument count on its call address.  Function recovery splits
    # shared code instead of duplicating it, so no two sites share
    # one; only traced code is lifted, so every site has a count.
    from collections import Counter
    from repro.core.varargs import find_vararg_sites
    from repro.workloads import WORKLOADS
    from tests.conftest import e2e_cells

    cells = e2e_cells()
    for workload in cells.WORKLOAD_SPECS:
        for cell in cells.build_cells(workload, seed):
            image = WORKLOADS[cell.program].compile(cell.compiler,
                                                    cell.opt)
            traces = trace_binary(image, cell.runs)
            sites = find_vararg_sites(lift_traces(traces))
            addrs = Counter(site.call_addr for site in sites)
            assert sites and None not in addrs, cell.name
            assert max(addrs.values()) == 1, cell.name
            assert set(addrs) <= set(traces.vararg_counts), cell.name


def test_lift_after_tracing_decodes_nothing(monkeypatch):
    # The tracer and the lifter share the image's decoder, so every
    # instruction the lift reads was decoded while tracing.
    from repro.isa import encoding

    image = compile_source(KERNEL_SOURCE, "gcc12", "0")
    traces = trace_binary(image, [[]])
    decodes = []
    real = encoding.decode

    def counting(*args):
        decodes.append(args[1])
        return real(*args)

    monkeypatch.setattr(encoding, "decode", counting)
    module = lift_traces(traces)
    verify_module(module)
    assert decodes == []
