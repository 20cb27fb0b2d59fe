"""IR optimizer (the LLVM pass-pipeline analogue)."""

from .alias import AliasAnalysis
from .analysis import (
    Dominators,
    cached_analysis,
    dominators,
    postorder,
    predecessors,
    reachable,
    reachable_blocks,
    use_counts,
)
from .constfold import fold_constants
from .dce import eliminate_dead_code
from .deadargelim import (
    eliminate_dead_params,
    eliminate_dead_results,
    shrink_signatures,
)
from .dse import eliminate_dead_stores
from .flagfuse import fuse_flags
from .gvn import eliminate_redundant_loads, global_value_numbering
from .inline import (
    inline_call,
    inline_functions,
    inline_functions_tracked,
)
from .manager import (
    PassManager,
    canonicalize_module,
    drop_unused_private_functions,
    run_worklist,
)
from .mem2reg import promotable_allocas, promote_allocas
from .pipeline import OptOptions, optimize_module
from .simplifycfg import remove_unreachable, simplify_cfg

__all__ = [
    "AliasAnalysis", "Dominators", "OptOptions", "PassManager",
    "cached_analysis", "canonicalize_module",
    "dominators",
    "drop_unused_private_functions", "eliminate_dead_code",
    "eliminate_dead_params", "eliminate_dead_results",
    "eliminate_dead_stores", "eliminate_redundant_loads",
    "fold_constants", "fuse_flags", "global_value_numbering", "inline_call",
    "inline_functions", "inline_functions_tracked",
    "optimize_module",
    "postorder", "predecessors", "promotable_allocas", "promote_allocas",
    "reachable", "reachable_blocks", "remove_unreachable",
    "run_worklist", "shrink_signatures", "simplify_cfg",
    "use_counts",
]
