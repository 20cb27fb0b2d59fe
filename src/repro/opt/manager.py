"""Incremental worklist pass manager.

The LLVM-new-pass-manager analogue for this IR: instead of re-running a
fixed schedule on every function of every module at every pipeline
stage, the manager remembers which function contents are already at
fixpoint and skips them.

Its one skip layer is a **fingerprint memo** keyed on ``(schedule,
module context,`` :func:`~repro.replay.fingerprint.function_fingerprint`
``)``.  A function whose content matches a known fixpoint is skipped,
whether it is the same object, a deep copy, a re-lift or part of
another module.  Only fixpoints enter the memo: a function that was
still changing when the round budget ran out is never memoized.  The
module context folds in the global-variable layout because
alias-driven passes consult it.

Functions that miss the memo are *visited*, one after another in
module order: the per-round schedule runs to fixpoint (or the round
budget).

Each pass is registered with a **preserved-analyses declaration**
(``PRESERVES`` in its module): when a pass reports a change, the
declared analyses are migrated across the mutation epoch by
:func:`repro.opt.analysis.retain_analyses` instead of being recomputed.

After :func:`~repro.opt.inline.inline_functions_tracked` the manager
re-enqueues **only the callers that actually received inlined code**
(plus any function that had not yet reached fixpoint).

``tests/golden/engine_digests.json`` pins the manager's output at every
optimization level and for canonicalization.

Observability: when a :mod:`repro.obs` recorder is active, each pass run
records its wall time (timer ``opt.pass.<name>``) and instruction delta
(counters ``opt.pass.<name>.runs`` / ``.instrs_removed``), with the two
CFG-simplification slots split as ``simplifycfg.entry`` /
``simplifycfg.exit``; the manager itself reports ``opt.manager.skipped``
and ``opt.manager.memo_hits`` (both count memo hits, i.e. functions not
re-optimized) and ``opt.manager.requeued`` (functions re-enqueued after
inlining).
"""

from __future__ import annotations

import time
from collections import OrderedDict

from .. import obs
from ..ir.module import Function, Module
from ..obs import recorder as _obs_recorder
from . import (
    constfold,
    dce,
    dse,
    flagfuse,
    gvn,
    inline,
    mem2reg,
    simplifycfg,
)
from .analysis import current_epoch, retain_analyses


def function_fingerprint(func: Function) -> str:
    """Deferred alias for
    :func:`repro.replay.fingerprint.function_fingerprint` — importing
    :mod:`repro.replay` eagerly would close an import cycle through
    the replay engine's runtime dependencies."""
    from ..replay.fingerprint import function_fingerprint as fp
    globals()["function_fingerprint"] = fp
    return fp(func)


class FunctionPass:
    """A named per-function pass with its preserved-analyses contract."""

    __slots__ = ("name", "run", "preserves")

    def __init__(self, name: str, run, preserves: frozenset):
        self.name = name
        self.run = run
        self.preserves = preserves

    def __repr__(self) -> str:
        return f"<pass {self.name}>"


def build_function_pipeline(opts, module: Module) -> list[FunctionPass]:
    """The standard per-round schedule, with the two ``simplifycfg``
    slots distinguished for per-pass accounting."""
    passes = [
        FunctionPass("simplifycfg.entry", simplifycfg.simplify_cfg,
                     simplifycfg.PRESERVES),
        FunctionPass("mem2reg", mem2reg.promote_allocas,
                     mem2reg.PRESERVES),
        FunctionPass("constfold", constfold.fold_constants,
                     constfold.PRESERVES),
        FunctionPass("flagfuse", flagfuse.fuse_flags,
                     flagfuse.PRESERVES),
    ]
    if opts.gvn:
        passes.append(FunctionPass("gvn", gvn.global_value_numbering,
                                   gvn.PRESERVES))
    if opts.load_elim:
        passes.append(FunctionPass(
            "loadelim",
            lambda f: gvn.eliminate_redundant_loads(f, module),
            gvn.PRESERVES))
    if opts.dse:
        passes.append(FunctionPass(
            "dse", lambda f: dse.eliminate_dead_stores(f, module),
            dse.PRESERVES))
    passes.append(FunctionPass("dce", dce.eliminate_dead_code,
                               dce.PRESERVES))
    passes.append(FunctionPass("simplifycfg.exit",
                               simplifycfg.simplify_cfg,
                               simplifycfg.PRESERVES))
    return passes


def build_canonicalize_pipeline(module: Module) -> list[FunctionPass]:
    """The driver's canonicalization schedule (one round, in order)."""
    return [
        FunctionPass("simplifycfg.entry", simplifycfg.simplify_cfg,
                     simplifycfg.PRESERVES),
        FunctionPass("mem2reg", mem2reg.promote_allocas,
                     mem2reg.PRESERVES),
        FunctionPass("constfold", constfold.fold_constants,
                     constfold.PRESERVES),
        FunctionPass("flagfuse", flagfuse.fuse_flags,
                     flagfuse.PRESERVES),
        FunctionPass("constfold.late", constfold.fold_constants,
                     constfold.PRESERVES),
        FunctionPass("gvn", gvn.global_value_numbering, gvn.PRESERVES),
        FunctionPass("dce", dce.eliminate_dead_code, dce.PRESERVES),
        FunctionPass("simplifycfg.exit", simplifycfg.simplify_cfg,
                     simplifycfg.PRESERVES),
    ]


# -- the fixpoint memo --------------------------------------------------

#: Cross-stage memo of known fixpoints:
#: ((schedule key, module context), function fingerprint) -> True.
#: Bounded LRU; entries are only ever *fixpoints*, so a hit is a proof
#: that running the schedule again would change nothing.
_MEMO: "OrderedDict[tuple, bool]" = OrderedDict()
_MEMO_MAX = 4096


def clear_memo() -> None:
    """Drop the fixpoint memo (tests and benches)."""
    _MEMO.clear()


def memo_stats() -> dict:
    """Size of the fixpoint memo — the warmth a long-lived server has
    accumulated (reported by ``repro submit --status``)."""
    return {"memo_entries": len(_MEMO)}


def _memo_get(key: tuple) -> bool:
    hit = _MEMO.get(key, False)
    if hit:
        _MEMO.move_to_end(key)
    return hit


def _memo_add(key: tuple) -> None:
    _MEMO[key] = True
    _MEMO.move_to_end(key)
    while len(_MEMO) > _MEMO_MAX:
        _MEMO.popitem(last=False)


def _module_context(module: Module) -> tuple:
    """The module-level facts a per-function schedule can observe:
    global-variable layout (alias analysis reads sizes and pinned
    addresses).  Part of every memo key."""
    return tuple(sorted(
        (name, g.size, g.align, g.fixed_addr, g.writable)
        for name, g in module.globals.items()))


# -- pass execution ------------------------------------------------------

def _run_pass(p: FunctionPass, func: Function, rec) -> bool:
    prior = current_epoch(func) if p.preserves else None
    if rec is None:
        changed = p.run(func)
    else:
        registry = rec.registry
        before = _ninstrs(func)
        start = time.perf_counter()
        changed = p.run(func)
        registry.timer(f"opt.pass.{p.name}").add(
            time.perf_counter() - start)
        registry.count(f"opt.pass.{p.name}.runs")
        delta = before - _ninstrs(func)
        if delta:
            registry.count(f"opt.pass.{p.name}.instrs_removed",
                           delta)
    if changed and prior is not None:
        retain_analyses(func, p.preserves, prior)
    return changed


def _run_rounds(func: Function, passes: list[FunctionPass],
                rounds: int, rec) -> tuple[bool, bool]:
    """Run the schedule to fixpoint or the round budget.

    Returns ``(fixed, changed_any)``: ``fixed`` is True only when a full
    round reported no change — the *only* state that may be memoized.
    """
    changed_any = False
    for _ in range(rounds):
        changed = False
        for p in passes:
            changed |= _run_pass(p, func, rec)
        if not changed:
            return True, changed_any
        changed_any = True
    return False, changed_any


class PassManager:
    """Run a pass schedule over a module as an incremental worklist."""

    def __init__(self, module: Module, passes: list[FunctionPass],
                 schedule_key: tuple, rounds: int,
                 inline_threshold: int | None = None):
        self.module = module
        self.passes = passes
        self.rounds = max(rounds, 1)
        #: None disables the inline stage entirely.
        self.inline_threshold = inline_threshold
        self._token = (schedule_key, _module_context(module))
        self._rec = _obs_recorder()
        #: Names still short of fixpoint after their last visit.
        self.unresolved: set[str] = set()

    def run(self) -> None:
        module = self.module
        self._visit(list(module.functions.values()))
        if self.inline_threshold is None:
            return
        changed = self._run_inline()
        if not changed:
            return
        # Only callers that received code (their bodies are new) and
        # functions that never reached fixpoint can react to another
        # round; everything else is provably a no-op.
        targets = [f for name, f in module.functions.items()
                   if name in changed or name in self.unresolved]
        obs.count("opt.manager.requeued", len(targets))
        if obs.ledger() is not None:
            obs.event("opt.requeue",
                      functions=sorted(f.name for f in targets))
        self.unresolved.clear()
        self._visit(targets)

    def _visit(self, funcs: list[Function]) -> None:
        """One worklist sweep over ``funcs``."""
        for func in funcs:
            if not self._optimize(func):
                self.unresolved.add(func.name)

    def _optimize(self, func: Function) -> bool:
        """Bring ``func`` to fixpoint unless the memo proves it is
        there already; False when the round budget ran out first."""
        entry_fp = function_fingerprint(func)
        if _memo_get((self._token, entry_fp)):
            obs.count("opt.manager.skipped")
            obs.count("opt.manager.memo_hits")
            obs.event("opt.memo_hit", function=func.name)
            return True
        fixed, changed_any = _run_rounds(func, self.passes, self.rounds,
                                         self._rec)
        if fixed:
            fp = function_fingerprint(func) if changed_any else entry_fp
            _memo_add((self._token, fp))
        return fixed

    def _run_inline(self) -> set[str]:
        module = self.module
        rec = self._rec
        if rec is None:
            return inline.inline_functions_tracked(
                module, max_callee_size=self.inline_threshold)
        registry = rec.registry
        before = sum(_ninstrs(f) for f in module.functions.values())
        start = time.perf_counter()
        changed = inline.inline_functions_tracked(
            module, max_callee_size=self.inline_threshold)
        registry.timer("opt.pass.inline").add(
            time.perf_counter() - start)
        registry.count("opt.pass.inline.runs")
        delta = before - sum(_ninstrs(f)
                             for f in module.functions.values())
        if delta:
            registry.count("opt.pass.inline.instrs_removed", delta)
        return changed


def _ninstrs(func: Function) -> int:
    return sum(len(b.instrs) for b in func.blocks)


# -- entry points --------------------------------------------------------

def run_worklist(module: Module, opts) -> None:
    """Worklist-optimize ``module`` under ``opts`` (an
    :class:`~repro.opt.pipeline.OptOptions`), including the final
    unused-function sweep."""
    PassManager(
        module, build_function_pipeline(opts, module),
        ("opt", opts), opts.rounds,
        inline_threshold=opts.inline_threshold if opts.inline else None,
    ).run()
    drop_unused_private_functions(module)


def canonicalize_module(module: Module) -> None:
    """The driver's canonicalization stage (SSA-ify vcpu registers,
    fold address arithmetic) as a managed one-round schedule, so
    re-canonicalizing a function whose content is a known fixpoint
    costs one fingerprint."""
    PassManager(module, build_canonicalize_pipeline(module),
                ("canonicalize",), rounds=1).run()


def drop_unused_private_functions(module: Module) -> None:
    """Remove functions unreachable from the module's roots
    (post-inlining).

    Roots are the entry function, every address-table target, and every
    function named by a global initializer; reachability is *transitive*
    over call/operand references from live functions only, so
    mutually-recursive dead functions — which keep each other alive
    under a flat all-references scan — are dropped together.
    """
    roots: set[str] = set()
    if module.entry_name in module.functions:
        roots.add(module.entry_name)
    roots.update(name for name in module.address_table.values()
                 if name in module.functions)
    for g in module.globals.values():
        if isinstance(g.init, list):
            for word in g.init:
                name = getattr(word, "name", None)
                if isinstance(name, str) and name in module.functions:
                    roots.add(name)
    live: set[str] = set()
    work = list(roots)
    while work:
        name = work.pop()
        if name in live:
            continue
        live.add(name)
        for instr in module.functions[name].instructions():
            for op in instr.operands():
                ref = getattr(op, "name", None)
                if isinstance(ref, str) and ref not in live \
                        and ref in module.functions:
                    work.append(ref)
    module.functions = {name: f for name, f in module.functions.items()
                        if name in live}
