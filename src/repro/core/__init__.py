"""WYTIWYG: the paper's core contribution — refinement lifting and
dynamic stack-layout recovery."""

from .accuracy import CATEGORIES, AccuracyReport, evaluate_accuracy
from .driver import WytiwygResult, wytiwyg_lift, wytiwyg_recompile
from .extfuncs import EXTERNAL_DB, VARARG_FUNCTIONS, Constraint, ExtSig
from .incremental import (
    JobStats,
    ServedResult,
    gather_traces,
    incremental_recompile,
)
from .instrument import (
    FunctionInstrumentation,
    ModuleInstrumentation,
    instrument_module,
    strip_probes,
)
from .layout import FrameLayout, FrameVariable, build_frame_layout, \
    build_layouts
from .regsave import (
    RegSavePlugin,
    RegSaveResult,
    apply_register_classification,
    classify_registers,
)
from .replace import drop_sp_threading, replace_base_pointers
from .runtime import ArgAccess, PointerInfo, StackVar, TracingRuntime
from .signatures import SignaturePlan, build_signatures
from .sp0fold import (
    classify_stack_refs,
    compute_sp0_offsets,
    fold_module_stack_refs,
    is_lifted_function,
)
from .varargs import recover_vararg_calls

__all__ = [
    "AccuracyReport", "ArgAccess", "CATEGORIES", "Constraint",
    "EXTERNAL_DB", "ExtSig", "FrameLayout", "FrameVariable",
    "FunctionInstrumentation", "JobStats", "ModuleInstrumentation",
    "PointerInfo",
    "RegSavePlugin", "RegSaveResult", "ServedResult", "SignaturePlan",
    "StackVar",
    "TracingRuntime", "VARARG_FUNCTIONS", "WytiwygResult",
    "apply_register_classification", "build_frame_layout",
    "build_layouts", "build_signatures", "classify_registers",
    "classify_stack_refs", "compute_sp0_offsets", "drop_sp_threading",
    "evaluate_accuracy", "fold_module_stack_refs", "gather_traces",
    "incremental_recompile", "instrument_module",
    "is_lifted_function",
    "recover_vararg_calls",
    "replace_base_pointers", "strip_probes", "wytiwyg_lift",
    "wytiwyg_recompile",
]
