"""repro.obs — observability for the refinement pipeline.

Structured tracing spans, a metrics registry (counters, gauges,
histograms, timers, profiles), and report generation, threaded through
every pipeline layer:

* the **driver** wraps its stages (trace -> lift -> varargs ->
  regsave -> canonicalize -> bounds -> sanitize -> optimize ->
  recompile) in named spans carrying wall time, IR size deltas, and
  verifier status;
* the **static corroborator** (``repro.sanalysis``) counts findings by
  severity (``sanalysis.findings.{error,warning,info}``) and wraps each
  analyzed function in ``sanalysis.function`` / ``sanitize.function``
  spans under ``stage.sanalysis`` / ``stage.sanitize``;
* the **emulator** reports block-cache hits/misses/evictions,
  instructions retired, memory fast/slow-path counts, and a hot-block
  profile;
* the **IR interpreter** reports compiled-closure cache invalidations
  and per-function execution counts;
* the **optimizer** reports per-pass instruction deltas and timings
  (the two CFG-simplification slots appear as ``opt.pass.
  simplifycfg.entry`` / ``.exit``); its worklist manager additionally
  counts functions re-enqueued after inlining
  (``opt.manager.requeued``), and analysis results migrated across
  mutations instead of recomputed (``analysis.cache.retained``);
* the **evaluation harness** reports per-cell cache hits and misses
  (``eval.cell_cache.*``) and per-cell timings, aggregated across
  ``sweep(jobs=N)`` workers;
* CPython's **cyclic garbage collector** reports each pass by the
  oldest generation it collects (``gc.collections.gen0/1/2``) and its
  wall time (the ``gc.seconds`` timer), through a ``gc.callbacks`` hook
  that :func:`enable` installs and :func:`disable` removes.

Disabled by default and zero-overhead when disabled: hot loops select an
instrumented path only when a recorder is active.  Activate with
``REPRO_OBS=1`` in the environment or :func:`enable`; export with
:func:`export` / :func:`write_json`, render with :func:`summary`.

Typical use::

    from repro import obs
    obs.enable()
    result = wytiwyg_recompile(image, inputs)
    doc = obs.export(obs.recorder())
    print(obs.summary(doc), file=sys.stderr)
"""

from . import events
from .diff import (
    diff_reports,
    load_benchmarks,
    load_report,
    regress,
    render_diff,
    render_regress,
)
from .events import (
    EVENT_KINDS,
    LEDGER_SCHEMA_VERSION,
    EventLedger,
    disable_ledger,
    enable_ledger,
    event,
    fork_begin,
    ledger,
    read_events,
)
from .metrics import Histogram, MetricsRegistry
from .profile import Profile
from .provenance import (
    VariableProvenance,
    explain_variable,
    parse_var_name,
    render_provenance,
    select_variables,
)
from .recorder import (
    Recorder,
    count,
    disable,
    enable,
    enabled,
    gauge,
    observe,
    recorder,
    span,
    timed,
)
from .report import export, iter_spans, summary, write_json
from .spans import NULL_SPAN, Span

__all__ = [
    "EVENT_KINDS", "EventLedger", "Histogram", "LEDGER_SCHEMA_VERSION",
    "MetricsRegistry", "NULL_SPAN", "Profile", "Recorder", "Span",
    "VariableProvenance", "count", "diff_reports", "disable",
    "disable_ledger", "enable", "enable_ledger", "enabled", "event",
    "explain_variable", "export", "export_payload", "fork_begin",
    "gauge", "iter_spans", "ledger", "load_benchmarks", "load_report",
    "merge_payload", "observe",
    "parse_var_name", "read_events", "recorder", "regress",
    "render_diff", "render_provenance", "render_regress",
    "select_variables", "span", "summary", "timed", "write_json",
]


def export_payload(top: int = 50) -> dict | None:
    """Serialize the active recorder for hand-off to another process
    (a ``sweep`` worker reporting back to its parent), or None when
    observability is disabled.  An in-memory ledger's events ride along
    (file-backed ledgers need no shipping — workers append to the
    shared file directly)."""
    rec = recorder()
    shipped = events.export_events()
    if rec is None:
        if shipped is None:
            return None
        return {"events": shipped}
    doc = export(rec, top)
    if shipped is not None:
        doc["events"] = shipped
    return doc


def merge_payload(payload: dict | None) -> None:
    """Fold a worker's :func:`export_payload` document into the active
    recorder: metrics merge, the worker's span trees are kept verbatim
    alongside local spans, shipped ledger events append to the active
    ledger.  A no-op when disabled or payload is None."""
    if payload is None:
        return
    events.merge_events(payload.get("events"))
    rec = recorder()
    if rec is None:
        return
    rec.registry.merge(payload.get("metrics", {}))
    rec.foreign_spans.extend(payload.get("spans", []))
