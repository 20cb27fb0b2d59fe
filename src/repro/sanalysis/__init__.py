"""repro.sanalysis — the static leg of layout recovery.

WYTIWYG's dynamic recovery is exact for traced paths and blind past
them (paper §4.2, §6).  This package adds the trust boundary between
tracing and recompilation:

* :mod:`.absint` — VSA-lite abstract interpretation of sp0-relative
  offsets over the pre-symbolization IR (interval domain, widening at
  loop headers, memoized in the versioned CFG-analysis cache);
* :mod:`.corroborate` — diffs the static access set against the
  dynamically recovered :class:`~repro.core.layout.FrameLayout`:
  boundary-straddling accesses are ``unsound-split`` errors, statically
  reachable but untraced bytes are ``coverage-gap`` warnings with
  widening suggestions, which every recompile applies before
  symbolization (``repro check`` reports the unwidened layout);
* :mod:`.interproc` — whole-module corroboration: a call graph over the
  lifted IR, bottom-up per-function summaries over SCCs to fixpoint
  (escaping regions, derived stack-pointer parameters, callee access
  footprints translated into caller-frame coordinates, memoized per
  ``Function.version``), the ``escaped-split`` check (a dynamic layout
  must not split a variable whose address flows into a callee that
  accesses across the boundary), and EFACT-style extern-signature
  recovery cross-checked against :mod:`repro.core.extfuncs`;
* :mod:`.sanitize` — flow-sensitive lints over the symbolized IR
  (uninitialized reads, constant-offset out-of-bounds accesses,
  escaped frame pointers cross-checked against alias analysis and the
  interprocedural escape summaries);
* :mod:`.report` — :class:`Finding` / :class:`CheckReport`, consumed by
  the pipeline gate (``check=`` / ``repro recompile --check``), the
  ``python -m repro check`` subcommand, and the observability export
  (``sanalysis.findings.{error,warning}`` counters, per-function
  spans).
"""

from .absint import (
    AbsVal,
    FrameAccessSet,
    StaticAccess,
    analyze_function,
    analyze_module,
)
from .corroborate import (
    WideningSuggestion,
    corroborate_function,
    corroborate_layouts,
)
from .interproc import (
    FunctionSummary,
    LocalSummary,
    interproc_corroborate,
    local_summary,
    recover_extern_sigs,
    summarize_module,
)
from .report import CheckReport, Finding
from .sanitize import sanitize_function, sanitize_module

__all__ = [
    "AbsVal", "CheckReport", "Finding", "FrameAccessSet",
    "FunctionSummary", "LocalSummary", "StaticAccess",
    "WideningSuggestion", "analyze_function", "analyze_module",
    "corroborate_function", "corroborate_layouts",
    "interproc_corroborate", "local_summary",
    "recover_extern_sigs", "sanitize_function", "sanitize_module",
    "summarize_module",
]
