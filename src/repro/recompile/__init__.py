"""Native backend: lowering repro IR to machine code and linking."""

from .link import RECOMP_TEXT_BASE, compile_ir, lower_module, recompile_ir
from .lower import (
    RESULT_REGS,
    STACK_SWITCH_SAVE,
    FunctionLowerer,
    LowerOptions,
)

__all__ = [
    "FunctionLowerer", "LowerOptions", "RECOMP_TEXT_BASE", "RESULT_REGS",
    "STACK_SWITCH_SAVE", "compile_ir", "lower_module", "recompile_ir",
]
