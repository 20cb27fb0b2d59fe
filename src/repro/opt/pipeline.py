"""Standard optimization pipelines.

``optimize_module`` is the LLVM ``opt`` analogue used by the MiniC
compiler personalities and by the recompiler after lifting/symbolization.
It runs the worklist engine in :mod:`repro.opt.manager` (serial visits,
each function to fixpoint) under the :class:`OptOptions` of a pipeline;
``tests/golden/engine_digests.json`` pins its output at every level.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.module import Module
from .manager import drop_unused_private_functions, run_worklist

__all__ = [
    "OptOptions", "drop_unused_private_functions", "optimize_module",
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


def optimize_module(module: Module,
                    options: OptOptions | None = None) -> None:
    """Optimize every function of ``module``."""
    opts = options or OptOptions()
    if opts.level == 0:
        return
    run_worklist(module, opts)
