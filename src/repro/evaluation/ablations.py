"""Ablation study: which design choices carry the speedup?

DESIGN.md calls out four mechanisms beyond symbolization itself; each is
disabled in isolation and the recompiled runtime re-measured:

* ``no-flag-fusion`` — keep the lifted EFLAGS trees (no instcombine-style
  refolding into comparisons);
* ``no-dae`` — keep dead register results/arguments in lifted signatures
  (no dead-argument elimination);
* ``no-phi-promotion`` — backend places loop-carried values in frame
  slots instead of dedicated callee-saved registers;
* ``no-addr-folding`` — backend materializes every address instead of
  folding into memory operands.

Everything else (tracing, refinements, symbolization) stays identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.driver import wytiwyg_lift
from ..emu.machine import run_binary
from ..emu.tracer import trace_binary
from ..ir.module import Module
from ..opt.dce import eliminate_dead_code
from ..opt.constfold import fold_constants
from ..opt.dse import eliminate_dead_stores
from ..opt.flagfuse import fuse_flags
from ..opt.gvn import eliminate_redundant_loads, global_value_numbering
from ..opt.inline import inline_functions
from ..opt.mem2reg import promote_allocas
from ..opt.deadargelim import shrink_signatures
from ..opt.simplifycfg import simplify_cfg
from ..recompile.link import recompile_ir
from ..recompile.lower import LowerOptions
from ..workloads import WORKLOADS

ABLATIONS = ("full", "no-flag-fusion", "no-dae", "no-phi-promotion",
             "no-addr-folding")


def _optimize(module: Module, flag_fusion: bool, dae: bool) -> None:
    for _ in range(3):
        for func in module.functions.values():
            simplify_cfg(func)
            promote_allocas(func)
            fold_constants(func)
            if flag_fusion:
                fuse_flags(func)
                fold_constants(func)
            global_value_numbering(func)
            eliminate_redundant_loads(func, module)
            eliminate_dead_stores(func, module)
            eliminate_dead_code(func)
            simplify_cfg(func)
        if dae:
            shrink_signatures(module)
    inline_functions(module, max_callee_size=80)
    for func in module.functions.values():
        simplify_cfg(func)
        promote_allocas(func)
        fold_constants(func)
        eliminate_dead_code(func)


@dataclass
class AblationReport:
    workload: str
    compiler: str
    opt_level: str
    native_cycles: int = 0
    #: ablation name -> recompiled cycles
    cycles: dict = field(default_factory=dict)

    def ratios(self) -> dict:
        return {name: cycles / self.native_cycles
                for name, cycles in self.cycles.items()}

    def render(self) -> str:
        lines = [f"{self.workload} ({self.compiler}-O{self.opt_level}), "
                 f"normalized runtime:"]
        for name, ratio in self.ratios().items():
            lines.append(f"  {name:>18s}: {ratio:.2f}x")
        return "\n".join(lines)


def run_ablation(workload_name: str, compiler: str = "gcc12",
                 opt_level: str = "3") -> AblationReport:
    """Recompile the workload once per ablation and run each image on
    the workload's inputs.  The input image runs once per input; every
    ablated run must match that run's stdout and exit code, else
    :class:`AssertionError`."""
    workload = WORKLOADS[workload_name]
    image = workload.compile(compiler, opt_level)
    inputs = workload.inputs()
    report = AblationReport(workload_name, compiler, opt_level)
    native = [run_binary(image, items) for items in inputs]
    report.native_cycles = sum(result.cycles for result in native)

    traces = trace_binary(image.stripped(), inputs)
    for name in ABLATIONS:
        module, _layouts, _notes, _report = wytiwyg_lift(traces)
        _optimize(module,
                  flag_fusion=(name != "no-flag-fusion"),
                  dae=(name != "no-dae"))
        lower = LowerOptions(
            frame_pointer=False,
            promote_phis=(name != "no-phi-promotion"),
            fold_chains=(name != "no-addr-folding"))
        recovered = recompile_ir(module, lower)
        cycles = 0
        for items, expected in zip(inputs, native, strict=True):
            result = run_binary(recovered, items)
            if not result.matches(expected):
                raise AssertionError(
                    f"{workload_name}/{name}: ablated binary diverged")
            cycles += result.cycles
        report.cycles[name] = cycles
    return report
