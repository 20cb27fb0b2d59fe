"""The incremental worklist pass manager (repro.opt.manager).

Two families of guarantees:

* **Equivalence** — the worklist engine's output is byte-identical to
  what the legacy fixed schedule it replaced produced, at every
  optimization level, both as printed IR and as recompiled binaries:
  the sha256 digests that ``tests/golden/engine_digests.json`` pins
  were recorded where the two agreed.
* **Worklist behaviour** — re-optimizing an optimized module changes
  nothing, and after inlining only the callers that received code are
  re-enqueued.
"""

import pytest

from repro import obs
from repro.cc.driver import compile_to_ir
from repro.ir import (
    Builder,
    Const,
    Function,
    Module,
    run_module,
    verify_module,
)
from repro.ir.printer import module_to_text
from repro.opt import (
    OptOptions,
    drop_unused_private_functions,
    optimize_module,
)
from repro.recompile.link import compile_ir
from tests.conftest import FEATURE_SOURCE
from tests.golden.test_engine_digests import (
    canonicalized,
    digest,
    golden,
    optimized,
)


@pytest.mark.parametrize("level", ["o0", "o1", "o2", "o3"])
@pytest.mark.parametrize("source", ["feature", "kernel"])
def test_worklist_matches_baseline_ir(source, level):
    module = optimized(source, level)
    verify_module(module)
    assert digest(module_to_text(module)) == \
        golden()[f"opt-{source}-{level}"]


@pytest.mark.parametrize("level", ["o1", "o3"])
def test_worklist_matches_baseline_binary(level):
    assert digest(compile_ir(optimized("feature", level)).to_json()) == \
        golden()[f"compile_ir-{level}"]


def test_canonicalize_matches_baseline():
    module = canonicalized("kernel")
    verify_module(module)
    assert digest(module_to_text(module)) == golden()["canonicalize-kernel"]


def _counters_for(fn):
    obs.enable(reset=True)
    try:
        fn()
        return obs.export_payload()["metrics"]["counters"]
    finally:
        obs.disable()


def test_reoptimizing_leaves_the_text_unchanged():
    """Optimizing an already-optimized module is idempotent: its
    printed text does not change."""
    opts = OptOptions.o2()
    module = compile_to_ir(FEATURE_SOURCE, name="t", config=None)
    optimize_module(module, opts)
    text = module_to_text(module)
    assert len(module.functions) > 1

    optimize_module(module, opts)
    assert module_to_text(module) == text


def test_inline_requeues_only_changed_callers():
    """After inlining, only callers that received code re-enter the
    worklist (baseline re-optimized the whole module)."""
    src = r"""
    int tiny(int x) { return x + 1; }
    int away(int x) { return x * 2; }
    int main() { return tiny(4); }
    """
    opts = OptOptions.o2()
    module = compile_to_ir(src, name="t", config=None)
    nfuncs = len(module.functions)  # tiny, away, main, _start
    counters = _counters_for(lambda: optimize_module(module, opts))
    # main absorbed tiny and _start absorbed main; away and tiny had
    # already reached fixpoint and must not be revisited.
    assert counters.get("opt.manager.requeued", 0) == 2 < nfuncs
    assert run_module(module).exit_code == 5


def _dead_cycle_module():
    """main plus two mutually-recursive functions nothing references."""
    m = Module()
    for name, other in (("dead_a", "dead_b"), ("dead_b", "dead_a")):
        f = Function(name, ["n"])
        b = Builder(f)
        b.position(f.add_block("entry"))
        b.ret([b.call(other, [f.params[0]])])
        m.add_function(f)
    main = Function("main", [])
    b = Builder(main)
    b.position(main.add_block("entry"))
    b.ret([Const(7)])
    m.add_function(main)
    m.entry_name = "main"
    return m


def test_drop_unused_removes_dead_cycle():
    """Mutually-recursive dead functions keep each other alive under a
    flat reference scan; the transitive sweep drops the whole cycle."""
    m = _dead_cycle_module()
    drop_unused_private_functions(m)
    assert set(m.functions) == {"main"}
    verify_module(m)
    assert run_module(m).exit_code == 7


def test_optimize_module_drops_dead_cycle():
    m = _dead_cycle_module()
    optimize_module(m, OptOptions.o2())
    assert set(m.functions) == {"main"}


def _full_rounds(func, passes, rounds, rec):
    """The schedule run in full rounds until one changes nothing: what
    ``_run_rounds`` computes, without stopping a round early."""
    from repro.opt import manager

    for _ in range(rounds):
        changed = False
        for p in passes:
            changed |= manager._run_pass(p, func, rec)
        if not changed:
            return True
    return False


def test_the_confirming_round_ends_at_the_last_changing_pass():
    """A function that converges in one round: the second round runs
    only up to the pass that changed it last."""
    from repro.opt.manager import FunctionPass, _run_rounds

    runs = []

    def make(name, changes):
        def run(func):
            runs.append(name)
            return runs.count(name) <= changes
        return FunctionPass(name, run, frozenset())

    passes = [make("a", 0), make("b", 1), make("c", 0), make("d", 0)]
    assert _run_rounds(Function("f", []), passes, 4, None)
    assert runs == ["a", "b", "c", "d", "a", "b"]


@pytest.mark.parametrize("source", ["feature", "kernel"])
def test_early_confirming_rounds_print_as_full_rounds(source, monkeypatch):
    from repro.opt import manager

    text = module_to_text(optimized(source, "o3"))
    runs = _counters_for(lambda: optimized(source, "o3"))
    monkeypatch.setattr(manager, "_run_rounds", _full_rounds)
    assert module_to_text(optimized(source, "o3")) == text
    full = _counters_for(lambda: optimized(source, "o3"))

    def total(counters):
        return sum(n for name, n in counters.items()
                   if name.startswith("opt.pass.")
                   and name.endswith(".runs"))
    assert total(runs) < total(full)
