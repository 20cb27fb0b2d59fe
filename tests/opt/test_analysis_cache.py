"""The versioned CFG-analysis cache (ISSUE 3): analyses are shared
within a mutation epoch and recomputed after ``func.invalidate()``."""

from repro import obs
from repro.ir import Builder, Const, Function, Module, verify_function
from repro.opt import (
    dominators,
    predecessors,
    reachable,
    simplify_cfg,
)
from repro.opt import analysis


def diamond():
    m = Module()
    f = Function("main", ["x"])
    m.add_function(f)
    m.entry_name = "main"
    b = Builder(f)
    entry = f.add_block("entry")
    left = f.add_block("left")
    right = f.add_block("right")
    join = f.add_block("join")
    b.position(entry)
    cond = b.icmp("eq", f.params[0], Const(0))
    b.condbr(cond, left, right)
    b.position(left)
    b.br(join)
    b.position(right)
    b.br(join)
    b.position(join)
    b.ret([Const(0)])
    verify_function(f)
    return f, (entry, left, right, join)


def test_cached_until_epoch_changes():
    f, (entry, left, right, join) = diamond()
    d1 = dominators(f)
    assert dominators(f) is d1
    assert predecessors(f) is predecessors(f)
    assert reachable(f) is reachable(f)
    assert d1.idom[join] is entry

    f.invalidate()
    d2 = dominators(f)
    assert d2 is not d1
    assert d2.idom[join] is entry


def _new_add():
    from repro.ir.values import BinOp
    return BinOp("add", Const(1), Const(2))


def test_builder_mutations_invalidate_implicitly():
    f, (entry, left, right, join) = diamond()
    p1 = predecessors(f)
    left.insert(0, _new_add())
    assert predecessors(f) is not p1  # Block.insert bumped the version


def test_instruction_count_is_a_safety_net():
    f, (entry, left, right, join) = diamond()
    r1 = reachable(f)
    # Splice without invalidate(): the count guard still catches it.
    left.instrs.insert(0, _new_add())
    assert reachable(f) is not r1


def test_simplifycfg_result_unaffected_by_cache(monkeypatch):
    from repro.ir.printer import function_to_text

    f1, _ = diamond()
    simplify_cfg(f1)
    text_cached = function_to_text(f1)

    monkeypatch.setattr(analysis, "_CACHE_ENABLED", False)
    f2, _ = diamond()
    simplify_cfg(f2)
    assert function_to_text(f2) == text_cached


def test_cache_counters():
    f, _blocks = diamond()
    rec = obs.enable(reset=True)
    try:
        dominators(f)
        dominators(f)
        counters = rec.registry.counters
        assert counters.get("analysis.cache.misses") == 1
        assert counters.get("analysis.cache.hits") == 1
    finally:
        obs.disable()


def test_a_dropped_function_frees_its_analyses():
    import gc
    import weakref

    from repro.opt.alias import alias_analysis

    f, _blocks = diamond()
    dominators(f)
    alias_analysis(f)
    gone = weakref.ref(f)
    del f, _blocks
    gc.collect()
    assert gone() is None
