"""Per-layer breakdown of a traced recompile, recorded from outside.

The benchmark wraps the calls the pipeline driver makes into each layer
(the names ``repro.core.driver`` and ``repro.core.incremental`` look up,
plus a few class methods) so that every call records a span: name,
start, end, parent and cell.  A layer's time is the self time of its
spans.  Counters come from the program's own ``repro.obs`` recorder,
which the traced round switches on.

Only the traced round installs the wrappers; the timed rounds run the
program without them.
"""

from __future__ import annotations

import functools
import importlib
import time

#: (owner, attribute, layer, self-time metric).  The owner is a module,
#: or ``module:Class`` for a method.  The layer names the ``repro``
#: module that does the work; it is reported absent when the attribute
#: is gone.
TARGETS = (
    ("repro.core.driver", "trace_binary", "emu", "emu.trace_s"),
    ("repro.core.incremental", "trace_binary", "emu", "emu.trace_s"),
    ("repro.core.driver", "lift_traces", "lifting", "lifting.lift_s"),
    ("repro.core.driver", "recover_vararg_calls", "core.varargs",
     "varargs.self_s"),
    ("repro.core.driver", "classify_registers", "core.regsave",
     "regsave.self_s"),
    ("repro.core.driver", "apply_register_classification", "core.regsave",
     "regsave.self_s"),
    ("repro.core.driver", "canonicalize_module", "opt.manager",
     "canonicalize.self_s"),
    ("repro.core.driver", "fold_module_stack_refs", "core.sp0fold",
     "canonicalize.self_s"),
    ("repro.core.driver", "instrument_module", "core.instrument",
     "bounds.self_s"),
    ("repro.core.driver", "strip_probes", "core.instrument",
     "bounds.self_s"),
    ("repro.core.driver", "build_layouts", "core.layout", "bounds.self_s"),
    ("repro.core.driver", "build_signatures", "core.signatures",
     "bounds.self_s"),
    ("repro.core.driver", "replace_base_pointers", "core.replace",
     "bounds.self_s"),
    ("repro.core.driver", "drop_sp_threading", "core.replace",
     "bounds.self_s"),
    ("repro.core.driver", "eliminate_dead_code", "opt.dce",
     "bounds.self_s"),
    ("repro.core.driver", "shrink_signatures", "opt.deadargelim",
     "bounds.self_s"),
    ("repro.core.driver", "analyze_function", "sanalysis", "sanalysis.s"),
    ("repro.core.driver", "corroborate_layouts", "sanalysis",
     "sanalysis.s"),
    ("repro.core.driver", "interproc_corroborate", "sanalysis",
     "sanalysis.s"),
    ("repro.core.driver", "sanitize_function", "sanalysis.sanitize",
     "sanitize.s"),
    ("repro.core.driver", "verify_module", "ir.verifier", "verify.s"),
    ("repro.core.driver", "evaluate_accuracy", "core.accuracy",
     "accuracy.s"),
    ("repro.core.driver", "optimize_module", "opt", "opt.optimize_s"),
    ("repro.core.driver", "recompile_ir", "recompile", "recompile.s"),
    ("repro.replay.engine:ReplayEngine", "validate", "replay",
     "replay.validate_s"),
    ("repro.replay.engine:ReplayEngine", "run_instrumented", "replay",
     "replay.instrumented_s"),
    ("repro.ir.interp:Interpreter", "run", "ir.interp", None),
    ("repro.store:ArtifactStore", "get", "store", "store.s"),
    ("repro.store:ArtifactStore", "put", "store", "store.s"),
)

#: IR interpreter time is split by the wrapped span that called it.
IR_CALLERS = {
    "recover_vararg_calls": "varargs",
    "classify_registers": "regsave",
    "ReplayEngine.validate": "validate",
    "ReplayEngine.run_instrumented": "bounds",
}

#: Program stage spans the wrappers are cross-checked against.
CROSS_CHECKED = ("stage.varargs", "stage.regsave", "stage.bounds")
CROSS_CHECK_TOLERANCE = 0.05

#: Self times, which with ``other.s`` add up to the call's wall time.
TIME_METRICS = tuple(dict.fromkeys(
    [metric for *_, metric in TARGETS if metric]
    + [f"ir.run_s.{where}" for where in (*IR_CALLERS.values(), "other")]
    + ["other.s"]))

#: Time that belongs to IR replay (the ROADMAP's dominant stages).
REPLAY_METRICS = (
    "ir.run_s.varargs", "ir.run_s.regsave", "ir.run_s.validate",
    "ir.run_s.bounds", "varargs.self_s", "regsave.self_s",
    "replay.validate_s", "replay.instrumented_s", "bounds.self_s",
)

#: Program counters (``repro.obs``) summed into the breakdown.
OBS_COUNTERS = {
    "replay.runs": "replay.runs",
    "replay.deduped": "replay.deduped",
    "replay.validations_skipped": "replay.validations_skipped",
    "sanalysis.summary.computed": "sanalysis.summaries_computed",
    "sanalysis.summary.reused": "sanalysis.summaries_reused",
    "opt.manager.skipped": "opt.skipped",
    "opt.manager.memo_hits": "opt.memo_hits",
    "lower.cache.hits": "lower.cache_hits",
    "lower.cache.misses": "lower.cache_misses",
    "store.hit": "store.hits",
    "store.miss": "store.misses",
}


def _span_name(owner: str, attr: str) -> str:
    return f"{owner.split(':')[1]}.{attr}" if ":" in owner else attr


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


def _note(name: str, args, result) -> dict:
    """Work counts read off a wrapped call's arguments or result."""
    if name == "Interpreter.run":
        return {"steps": args[0].steps}
    if name == "trace_binary":
        return {"instructions": sum(r.instructions for r in result.results)}
    if name == "lift_traces":
        return {"ir_instrs": sum(len(b.instrs)
                                 for f in result.functions.values()
                                 for b in f.blocks)}
    return {}


class SpanLog:
    """Spans recorded by the wrappers, in start order."""

    def __init__(self, cell: str | None = None) -> None:
        self.spans: list[dict] = []
        self.cell = cell
        self._stack: list[dict] = []

    def wrap(self, fn, name: str):
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(log.spans), "name": name,
                    "parent": log._stack[-1]["id"] if log._stack else None,
                    "cell": log.cell, "start": time.perf_counter(),
                    "end": None}
            log.spans.append(span)
            log._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span.update(_note(name, args, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                log._stack.pop()

        return wrapper


def install(log: SpanLog, targets=TARGETS) -> list[str]:
    """Wrap every target in place; returns the absent layers.

    A missing owner or attribute does not raise: the layer is reported
    absent and its metrics read 0.  Nothing is restored, because the
    traced round runs in a child that exits afterwards.
    """
    absent = []
    for owner, attr, layer, _metric in targets:
        try:
            obj = _resolve(owner)
        except ImportError:
            obj = None
        if obj is None or not hasattr(obj, attr):
            if layer not in absent:
                absent.append(layer)
            continue
        setattr(obj, attr, log.wrap(getattr(obj, attr),
                                    _span_name(owner, attr)))
    return absent


def breakdown(spans: list[dict], cell_s: float, counters: dict) -> dict:
    """One traced call's per-layer numbers from its spans and the
    program's counters; ``cell_s`` is the call's wall time."""
    metric_of = {_span_name(owner, attr): metric
                 for owner, attr, _layer, metric in TARGETS}
    by_id = {s["id"]: s for s in spans}
    child_s: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = (child_s.get(s["parent"], 0.0)
                                    + s["end"] - s["start"])
    out = {name: 0.0 for name in TIME_METRICS}
    top_s = 0.0
    for s in spans:
        duration = s["end"] - s["start"]
        if s["parent"] is None:
            top_s += duration
        metric = metric_of.get(s["name"])
        if s["name"] == "Interpreter.run":
            caller = s["parent"]
            while caller is not None and \
                    by_id[caller]["name"] not in IR_CALLERS:
                caller = by_id[caller]["parent"]
            where = IR_CALLERS[by_id[caller]["name"]] \
                if caller is not None else "other"
            metric = f"ir.run_s.{where}"
        out[metric] += duration - child_s.get(s["id"], 0.0)
    out["other.s"] = cell_s - top_s
    # Zero when the spans nest: self times telescope to the top spans.
    out["unattributed_s"] = cell_s - sum(out[m] for m in TIME_METRICS)
    names = [s["name"] for s in spans]
    out.update({
        "cell_s": cell_s,
        "emu.instructions": sum(s.get("instructions", 0) for s in spans),
        "ir.runs": names.count("Interpreter.run"),
        "ir.steps": sum(s.get("steps", 0) for s in spans),
        "lifting.ir_instrs": sum(s.get("ir_instrs", 0) for s in spans),
        "replay.validate_calls": names.count("ReplayEngine.validate"),
        "verify.calls": names.count("verify_module"),
    })
    for counter, metric in OBS_COUNTERS.items():
        out[metric] = counters.get(counter, 0)
    return out


def cross_check(spans: list[dict], stages: list[dict]) -> dict:
    """Wrapper time inside each program stage span, per stage.

    ``stages`` are the program's own spans (name, start, end).  The
    wrappers that run inside a stage should account for it: the rest
    is glue code in ``repro.core.driver``, and a large gap means a call
    into a layer that no wrapper sees.
    """
    out = {name: {"program_s": 0.0, "wrapped_s": 0.0}
           for name in CROSS_CHECKED}
    for stage in stages:
        if stage["name"] not in out:
            continue
        lo, hi = stage["start"], stage["end"]
        inside = {s["id"] for s in spans
                  if lo <= s["start"] and s["end"] <= hi}
        out[stage["name"]]["program_s"] += hi - lo
        out[stage["name"]]["wrapped_s"] += sum(
            s["end"] - s["start"] for s in spans
            if s["id"] in inside and s["parent"] not in inside)
    return out


def program_stages(rec) -> list[dict]:
    """Flatten the program recorder's span trees to (name, start, end)."""
    out, stack = [], list(rec.spans) if rec is not None else []
    while stack:
        span = stack.pop()
        out.append({"name": span.name, "start": span.start,
                    "end": span.end})
        stack.extend(span.children)
    return out


def summarize(cells: list[dict], untraced_s: float) -> dict:
    """Pool per-cell breakdowns into the workload's per-layer numbers:
    every time and count summed over the cells, plus the ratios.

    ``cells`` each hold a :func:`breakdown` plus ``inputs`` (traced
    runs), ``traced_instructions`` (machine instructions over all of
    them) and the ``incremental.*`` trace counts.  ``untraced_s`` is
    the same calls' wall time untraced.
    """
    def total(key):
        return sum(c[key] for c in cells)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {key: total(key) for key in cells[0]}
    out["ir.steps_per_instr"] = ratio(total("ir.steps"),
                                      total("traced_instructions"))
    out["replay.skip_ratio"] = ratio(total("replay.validations_skipped"),
                                     total("replay.validate_calls"))
    out["replay.dedup_ratio"] = ratio(total("replay.deduped"),
                                      total("inputs"))
    out["lower.hit_ratio"] = ratio(
        total("lower.cache_hits"),
        total("lower.cache_hits") + total("lower.cache_misses"))
    out["store.hit_ratio"] = ratio(
        total("store.hits"), total("store.hits") + total("store.misses"))
    cell_s = total("cell_s")
    out["replay_share"] = ratio(sum(out[m] for m in REPLAY_METRICS),
                                cell_s)
    out["trace_overhead"] = ratio(cell_s, untraced_s)
    return out
