"""Standard optimization pipelines and the legacy fixed schedule.

``optimize_module`` is the LLVM ``opt`` analogue used by the MiniC
compiler personalities and by the recompiler after lifting/symbolization.
It normally dispatches to the incremental worklist engine in
:mod:`repro.opt.manager` (serial visits, with a fingerprint memo of
known fixpoints); ``REPRO_PASS_BASELINE=1`` selects the legacy fixed
schedule kept verbatim below.  The two produce byte-identical output —
``tests/opt/test_pass_manager.py`` holds them to that.

Observability: when a :mod:`repro.obs` recorder is active, every pass
run records its wall time (timer ``opt.pass.<name>``) and instruction
delta (counters ``opt.pass.<name>.runs`` / ``.instrs_removed``); the
disabled path runs the passes back-to-back exactly as before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..ir.module import Function, Module
from ..obs import recorder as _obs_recorder
from .constfold import fold_constants
from .dce import eliminate_dead_code
from .dse import eliminate_dead_stores
from .flagfuse import fuse_flags
from .gvn import eliminate_redundant_loads, global_value_numbering
from .inline import inline_functions
from .manager import (
    drop_unused_private_functions,
    pass_baseline_enabled,
    run_worklist,
)
from .mem2reg import promote_allocas
from .simplifycfg import simplify_cfg

__all__ = [
    "OptOptions", "drop_unused_private_functions", "optimize_function",
    "optimize_module",
]


@dataclass(frozen=True)
class OptOptions:
    """Knobs that differentiate pipelines (compiler personalities)."""

    level: int = 2                # 0..3
    inline: bool = True
    inline_threshold: int = 40
    gvn: bool = True              # dominator-scoped CSE
    load_elim: bool = True        # alias-driven load forwarding
    dse: bool = True
    rounds: int = 3

    @classmethod
    def o0(cls) -> "OptOptions":
        return cls(level=0, inline=False, gvn=False, load_elim=False,
                   dse=False, rounds=0)

    @classmethod
    def o1(cls) -> "OptOptions":
        return cls(level=1, inline=False, gvn=False, load_elim=True,
                   dse=True, rounds=2)

    @classmethod
    def o2(cls) -> "OptOptions":
        return cls(level=2, rounds=2)

    @classmethod
    def o3(cls) -> "OptOptions":
        return cls(level=3, inline_threshold=80, rounds=3)


def _function_passes(opts: OptOptions, module: Module | None):
    """The per-round pass sequence as (name, callable) pairs."""
    passes = [
        ("simplifycfg", simplify_cfg),
        ("mem2reg", promote_allocas),
        ("constfold", fold_constants),
        ("flagfuse", fuse_flags),
    ]
    if opts.gvn:
        passes.append(("gvn", global_value_numbering))
    if opts.load_elim:
        passes.append(
            ("loadelim", lambda f: eliminate_redundant_loads(f, module)))
    if opts.dse:
        passes.append(
            ("dse", lambda f: eliminate_dead_stores(f, module)))
    passes.append(("dce", eliminate_dead_code))
    passes.append(("simplifycfg", simplify_cfg))
    return passes


def _ninstrs(func: Function) -> int:
    return sum(len(b.instrs) for b in func.blocks)


def optimize_function(func: Function, module: Module | None = None,
                      options: OptOptions | None = None) -> None:
    opts = options or OptOptions()
    if opts.level == 0:
        return
    passes = _function_passes(opts, module)
    rec = _obs_recorder()
    for _ in range(max(opts.rounds, 1)):
        changed = False
        if rec is None:
            for _name, run in passes:
                changed |= run(func)
        else:
            registry = rec.registry
            for name, run in passes:
                before = _ninstrs(func)
                start = time.perf_counter()
                changed |= run(func)
                registry.timer(f"opt.pass.{name}").add(
                    time.perf_counter() - start)
                registry.count(f"opt.pass.{name}.runs")
                delta = before - _ninstrs(func)
                if delta:
                    registry.count(f"opt.pass.{name}.instrs_removed",
                                   delta)
        if not changed:
            break


def optimize_module(module: Module,
                    options: OptOptions | None = None) -> None:
    """Optimize every function of ``module``."""
    opts = options or OptOptions()
    if opts.level == 0:
        return
    if pass_baseline_enabled():
        _optimize_module_baseline(module, opts)
        return
    run_worklist(module, opts)


def _optimize_module_baseline(module: Module, opts: OptOptions) -> None:
    """The pre-worklist fixed schedule: every function every time, and a
    full-module re-run after any inlining."""
    for func in module.functions.values():
        optimize_function(func, module, opts)
    if opts.inline:
        rec = _obs_recorder()
        if rec is None:
            inlined = inline_functions(
                module, max_callee_size=opts.inline_threshold)
        else:
            before = sum(_ninstrs(f) for f in module.functions.values())
            start = time.perf_counter()
            inlined = inline_functions(
                module, max_callee_size=opts.inline_threshold)
            registry = rec.registry
            registry.timer("opt.pass.inline").add(
                time.perf_counter() - start)
            registry.count("opt.pass.inline.runs")
            delta = before - sum(_ninstrs(f)
                                 for f in module.functions.values())
            if delta:
                registry.count("opt.pass.inline.instrs_removed", delta)
        if inlined:
            for func in module.functions.values():
                optimize_function(func, module, opts)
    drop_unused_private_functions(module)
