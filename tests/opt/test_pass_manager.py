"""The incremental worklist pass manager (repro.opt.manager).

Two families of guarantees:

* **Equivalence** — the worklist engine's output is byte-identical to
  what the legacy fixed schedule it replaced produced, at every
  optimization level, both as printed IR and as recompiled binaries:
  the sha256 digests that ``tests/golden/engine_digests.json`` pins
  were recorded where the two agreed.
* **Incrementality** — a function whose content is a known fixpoint
  is skipped through the fingerprint memo (the same object or a fresh
  one), and after inlining only the callers that received code are
  re-enqueued.
"""

import copy

import pytest

from repro import obs
from repro.cc.driver import compile_to_ir
from repro.ir import (
    BinOp,
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
    clear_memo,
    drop_unused_private_functions,
    optimize_module,
)
from repro.opt import manager as manager_mod
from repro.recompile.link import compile_ir
from tests.conftest import FEATURE_SOURCE
from tests.golden.test_engine_digests import (
    canonicalized,
    digest,
    golden,
    optimized,
)


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts with no cross-stage state and leaves none."""
    clear_memo()
    yield
    clear_memo()


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


def test_memo_warm_copy_matches_baseline():
    """A fresh object served from the fingerprint memo still prints
    what a cold run prints."""
    warmup = compile_to_ir(FEATURE_SOURCE, name="t", config=None)
    optimize_module(warmup, OptOptions.o2())  # populate the memo
    warm = []
    counters = _counters_for(lambda: warm.append(optimized("feature", "o2")))
    assert counters.get("opt.manager.memo_hits", 0) >= 1
    assert digest(module_to_text(warm[0])) == golden()["opt-feature-o2"]


def test_canonicalize_matches_baseline():
    module = canonicalized("kernel")
    verify_module(module)
    assert digest(module_to_text(module)) == golden()["canonicalize-kernel"]


def _pass_runs(counters):
    return {name: n for name, n in counters.items()
            if name.startswith("opt.pass.") and name.endswith(".runs")}


def _counters_for(fn):
    obs.enable(reset=True)
    try:
        fn()
        return obs.export_payload()["metrics"]["counters"]
    finally:
        obs.disable()


def test_second_call_skips_everything():
    """Optimizing an already-optimized module runs no per-function
    pass: every function is a memo hit.  Only the module-level inline
    scan runs, once, and finds nothing to do."""
    opts = OptOptions.o2()
    module = compile_to_ir(FEATURE_SOURCE, name="t", config=None)
    optimize_module(module, opts)
    text = module_to_text(module)
    nfuncs = len(module.functions)
    assert nfuncs > 1

    counters = _counters_for(lambda: optimize_module(module, opts))
    assert _pass_runs(counters) == {"opt.pass.inline.runs": 1}
    assert counters.get("opt.manager.memo_hits", 0) == nfuncs
    assert counters.get("opt.manager.skipped", 0) == nfuncs
    assert module_to_text(module) == text


def test_fresh_copy_hits_memo():
    """A deep copy (new objects, same content) is skipped through the
    cross-stage fingerprint memo rather than re-optimized."""
    opts = OptOptions.o2()
    module = compile_to_ir(FEATURE_SOURCE, name="t", config=None)
    optimize_module(module, opts)
    text = module_to_text(module)

    clone = copy.deepcopy(module)
    counters = _counters_for(lambda: optimize_module(clone, opts))
    assert counters.get("opt.manager.memo_hits", 0) >= 1
    function_runs = {n: c for n, c in _pass_runs(counters).items()
                     if n != "opt.pass.inline.runs"}
    assert not function_runs
    assert module_to_text(clone) == text


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


def test_mutated_function_is_reoptimized():
    """Editing one function's content after fixpoint re-optimizes that
    function, and only it, on the next call; every other function is a
    memo hit."""
    opts = OptOptions.o1()  # no inlining: only per-function visits
    module = compile_to_ir(FEATURE_SOURCE, name="t", config=None)
    optimize_module(module, opts)
    text = module_to_text(module)

    victim = module.functions["sum_array"]
    victim.entry.instrs.insert(0, BinOp("add", Const(1), Const(2)))
    victim.invalidate()
    obs.enable(reset=True)
    led = obs.enable_ledger()
    try:
        optimize_module(module, opts)
        hits = [e["function"] for e in led.events
                if e["kind"] == "opt.memo_hit"]
        counters = obs.export_payload()["metrics"]["counters"]
    finally:
        obs.disable_ledger()
        obs.disable()
    assert sorted(hits) == sorted(set(module.functions) - {"sum_array"})
    assert counters.get("opt.manager.memo_hits", 0) == \
        len(module.functions) - 1
    # The victim alone ran the schedule: one round removed the dead
    # instruction and a second confirmed the fixpoint.
    assert _pass_runs(counters)["opt.pass.dce.runs"] == 2
    assert module_to_text(module) == text


def test_version_bump_with_same_content_served_by_memo():
    """The complement of the previous test: a version bump that did not
    change the function's content costs one fingerprint instead of a
    schedule run."""
    opts = OptOptions.o1()
    module = compile_to_ir(FEATURE_SOURCE, name="t", config=None)
    optimize_module(module, opts)

    next(iter(module.functions.values())).invalidate()
    counters = _counters_for(lambda: optimize_module(module, opts))
    assert not _pass_runs(counters)
    assert counters.get("opt.manager.memo_hits", 0) == \
        len(module.functions)


def test_budget_exhausted_function_not_memoized():
    """Regression (memo poisoning): a function still changing when the
    round budget runs out must not enter the fixpoint memo."""
    opts = OptOptions(level=2, inline=False, rounds=1)
    module = compile_to_ir(FEATURE_SOURCE, name="t", config=None)
    entry_fps = {name: manager_mod.function_fingerprint(f)
                 for name, f in module.functions.items()}
    manager = manager_mod.PassManager(
        module, manager_mod.build_function_pipeline(opts, module),
        ("opt", opts), rounds=1)
    manager.run()
    # The single round is not enough for functions the schedule changes.
    assert manager.unresolved
    token = (("opt", opts), manager_mod._module_context(module))
    for name in manager.unresolved:
        partial_fp = manager_mod.function_fingerprint(
            module.functions[name])
        assert not manager_mod._memo_get((token, entry_fps[name]))
        assert not manager_mod._memo_get((token, partial_fp))
    # And the unresolved functions keep making progress on a re-run
    # instead of being skipped off the poisoned entry.
    counters = _counters_for(lambda: manager_mod.PassManager(
        module, manager_mod.build_function_pipeline(opts, module),
        ("opt", opts), rounds=1).run())
    assert _pass_runs(counters)
