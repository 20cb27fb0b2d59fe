"""repro.replay — the dynamic re-execution subsystem.

Owns every replay of lifted IR over the traced inputs: deduplicated
sweeps on one interpreter per stage, a check of every run against the
trace, and the one tracing runtime that observes a stage's
instrumented bounds runs.  See :mod:`repro.replay.engine`.
"""

from .engine import ReplayEngine

__all__ = ["ReplayEngine"]
