"""The fixpoint passes converge in one sweep, and loadelim and DSE share
one alias analysis per function state.

The sweep bounds are deterministic visit counts, not wall times: a chain
of k dependent rewrites used to take k whole-function sweeps.
"""

from repro.cc.driver import compile_to_ir
from repro.ir import Builder, Const, Function, Module, Phi, run_module
from repro.ir.module import Function as _Function
from repro.ir.printer import module_to_text
from repro.ir.verifier import verify_function
from repro.opt import (
    OptOptions,
    alias,
    analysis,
    constfold,
    eliminate_dead_stores,
    eliminate_redundant_loads,
    flagfuse,
    optimize_module,
    simplify_cfg,
)
from tests.conftest import FEATURE_SOURCE


def build():
    m = Module()
    f = Function("main", ["x"])
    m.add_function(f)
    m.entry_name = "main"
    return m, f, Builder(f)


def ninstrs(f):
    return sum(len(b.instrs) for b in f.blocks)


def counting(monkeypatch, module, name):
    calls = [0]
    orig = getattr(module, name)

    def wrapper(*args):
        calls[0] += 1
        return orig(*args)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_fold_constants_finishes_a_dependent_chain_in_one_sweep(
        monkeypatch):
    m, f, b = build()
    b.position(f.add_block("entry"))
    v = b.binop("xor", Const(5), Const(5))
    for _ in range(50):
        v = b.binop("mul", v, Const(7))
    b.ret([v])
    size = ninstrs(f)
    calls = counting(monkeypatch, constfold, "_simplify")
    assert constfold.fold_constants(f)
    assert calls[0] <= 3 * size
    assert f.entry.instrs[-1].ops == [Const(0)] and ninstrs(f) == 1


def test_fuse_flags_collapses_nested_zexts_in_one_sweep(monkeypatch):
    m, f, b = build()
    b.position(f.add_block("entry"))
    v = b.icmp("ne", f.params[0], Const(0))
    cmp = v
    for _ in range(50):
        v = b.unary("zext8", v)
    b.ret([v])
    size = ninstrs(f)
    calls = counting(monkeypatch, flagfuse, "_simplify_one")
    assert flagfuse.fuse_flags(f)
    assert calls[0] <= 3 * size
    assert f.entry.instrs[-1].ops == [cmp]


def misordered():
    """entry -> b -> c, with c placed before b in the block list: a block
    placed before its dominator, so c uses values defined after it."""
    m, f, b = build()
    entry = f.add_block("entry")
    c = f.add_block("c")
    later = f.add_block("b")
    return m, f, b, entry, later, c


def test_fold_constants_resolves_a_rewrite_that_names_a_folded_value():
    m, f, b, entry, later, c = misordered()
    b.position(entry)
    x = b.sub(f.params[0], f.params[0])      # folds to 0
    b.br(later)
    b.position(later)
    lhs = b.add(x, Const(5))
    b.br(c)
    b.position(c)
    use = b.add(lhs, Const(3))               # reassociates onto x
    b.ret([use])
    assert constfold.fold_constants(f)
    verify_function(f, m)
    assert c.instrs[-1].ops == [Const(8)]
    text = module_to_text(m)
    assert not constfold.fold_constants(f)
    assert module_to_text(m) == text


def test_fold_constants_reaches_the_fixed_point_through_a_later_block():
    m, f, b, entry, later, c = misordered()
    b.position(entry)
    five = b.add(Const(2), Const(3))
    b.br(later)
    b.position(later)
    lhs = b.add(f.params[0], five)           # becomes add x, 5 late
    b.br(c)
    b.position(c)
    use = b.add(lhs, Const(3))
    b.ret([use])
    assert constfold.fold_constants(f)
    verify_function(f, m)
    assert use.ops == [f.params[0], Const(8)]
    text = module_to_text(m)
    assert not constfold.fold_constants(f)
    assert module_to_text(m) == text


def test_fuse_flags_resolves_a_fresh_comparison_from_a_later_block():
    m, f, b, entry, later, c = misordered()
    b.position(entry)
    cmp = b.icmp("slt", f.params[0], Const(0))
    wide = b.unary("zext8", cmp)             # fuses to cmp
    b.br(later)
    b.position(later)
    diff = b.sub(wide, Const(3))
    b.br(c)
    b.position(c)
    b.ret([b.icmp("eq", diff, Const(0))])    # becomes icmp eq wide, 3
    assert flagfuse.fuse_flags(f)
    verify_function(f, m)
    assert c.instrs[0].ops == [cmp, Const(3)]
    text = module_to_text(m)
    assert not flagfuse.fuse_flags(f)
    assert module_to_text(m) == text


def test_chain_merging_builds_the_predecessor_map_once_per_round(
        monkeypatch):
    m, f, b = build()
    blocks = [f.add_block(f"b{i}") for i in range(50)]
    for block, nxt in zip(blocks, blocks[1:], strict=False):
        b.position(block)
        b.br(nxt)
    b.position(blocks[-1])
    b.ret([f.params[0]])
    builds = counting(monkeypatch, _Function, "predecessors")
    assert simplify_cfg(f)
    assert builds[0] <= 2     # the merging round and the settling one
    assert len(f.blocks) == 1 and ninstrs(f) == 1


def test_merged_phis_resolve_through_each_other():
    m, f, b = build()
    entry, b1, b2 = (f.add_block(n) for n in ("entry", "b1", "b2"))
    b.position(entry)
    b.br(b1)
    b.position(b1)
    p1 = b.phi([(entry, f.params[0])])
    b.br(b2)
    b.position(b2)
    p2 = b.phi([(b1, p1)])
    b.ret([b.add(p2, Const(1))])
    assert simplify_cfg(f)
    assert len(f.blocks) == 1
    assert not any(isinstance(i, Phi) for i in f.instructions())
    assert f.entry.instrs[0].ops == [f.params[0], Const(1)]


def _loads_and_stores(forwardable: bool):
    m, f, b = build()
    b.position(f.add_block("entry"))
    slot = b.alloca(4)
    if forwardable:
        b.store(slot, f.params[0])   # forwarded into the load below
    value = b.load(slot)
    b.store(slot, value)
    b.ret([value])
    return m, f


def test_dse_reuses_the_alias_analysis_only_of_an_unchanged_function(
        monkeypatch):
    for forwardable, builds in ((False, 1), (True, 2)):
        m, f = _loads_and_stores(forwardable)
        calls = counting(monkeypatch, alias.AliasAnalysis, "__init__")
        assert eliminate_redundant_loads(f, m) is forwardable
        eliminate_dead_stores(f, m)
        assert calls[0] == builds
        monkeypatch.undo()


def test_o3_output_is_the_same_without_the_analysis_cache(monkeypatch):
    cached = compile_to_ir(FEATURE_SOURCE, name="t", config=None)
    optimize_module(cached, OptOptions.o3())
    monkeypatch.setattr(analysis, "_CACHE_ENABLED", False)
    fresh = compile_to_ir(FEATURE_SOURCE, name="t", config=None)
    optimize_module(fresh, OptOptions.o3())
    assert module_to_text(fresh) == module_to_text(cached)
    assert run_module(fresh).stdout == run_module(cached).stdout
