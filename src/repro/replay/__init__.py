"""repro.replay — the dynamic re-execution subsystem.

Owns every replay of lifted IR over the traced inputs: deduplicated
sweeps, a check of every run against the trace, parallel fan-out of
the validation sweep and the instrumented bounds runs, and
deterministic merging of per-input tracing runtimes.  See
:mod:`repro.replay.engine`.
"""

from .engine import ReplayEngine
from .fingerprint import function_fingerprint, module_fingerprint

__all__ = ["ReplayEngine", "function_fingerprint",
           "module_fingerprint"]
