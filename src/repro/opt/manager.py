"""Worklist pass manager.

The LLVM-new-pass-manager analogue for this IR: every function is
visited once, one after another in module order, and the per-round
schedule runs on it to fixpoint (or the round budget).  Nothing is
remembered between calls: a one-shot recompile and a long-lived server
optimize the same function the same way.

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
``simplifycfg.exit``; the manager itself reports
``opt.manager.requeued`` (functions re-enqueued after inlining).
"""

from __future__ import annotations

import time

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
                rounds: int, rec) -> bool:
    """Run the schedule to fixpoint or the round budget; True once a
    full cycle of the schedule reported no change.

    A round that has changed nothing by the end of the previous round's
    last changing pass stops there: every later pass already reported
    no change on the function as it still is, and only this function
    changes here, so running them again would change nothing.
    """
    last = len(passes) - 1
    for _ in range(rounds):
        changed_at = -1
        for k, p in enumerate(passes):
            if _run_pass(p, func, rec):
                changed_at = k
            elif k == last and changed_at < 0:
                return True
        if changed_at < 0:
            return True
        last = changed_at
    return False


class PassManager:
    """Run a pass schedule over a module as a worklist."""

    def __init__(self, module: Module, passes: list[FunctionPass],
                 rounds: int, inline_threshold: int | None = None):
        self.module = module
        self.passes = passes
        self.rounds = max(rounds, 1)
        #: None disables the inline stage entirely.
        self.inline_threshold = inline_threshold
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
            if not _run_rounds(func, self.passes, self.rounds, self._rec):
                self.unresolved.add(func.name)

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
        module, build_function_pipeline(opts, module), opts.rounds,
        inline_threshold=opts.inline_threshold if opts.inline else None,
    ).run()
    drop_unused_private_functions(module)


def canonicalize_module(module: Module) -> None:
    """The driver's canonicalization stage (SSA-ify vcpu registers,
    fold address arithmetic) as a managed one-round schedule."""
    PassManager(module, build_canonicalize_pipeline(module),
                rounds=1).run()


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


def clear_memo() -> None:
    """A no-op, kept only because ``benchmarks/e2e/run.py`` imports it;
    the benchmark-hygiene change that drops that import deletes it."""
