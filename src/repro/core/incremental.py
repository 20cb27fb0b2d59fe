"""Cross-request incremental recompilation over the artifact store.

The paper's workflow — trace, lift, discover a coverage gap, add an
input, "incrementally reanalyze" — repeats almost all of its work on
every iteration when served by one-shot ``wytiwyg_recompile`` calls.
This module is the store-backed counterpart used by the serve daemon
(:mod:`repro.serve`) and ``repro recompile --store``: every expensive
artifact lands in a content-addressed
:class:`~repro.store.ArtifactStore`, and a repeated request pays only
for what actually changed.

Two layers of reuse, cheapest first:

1. **Result hit** — the final recompiled image is keyed on
   ``(image content, ordered input runs, options)``; an identical
   resubmission is served straight from the store, byte-identical to
   the original run.  The options part holds the values the pipeline
   runs with, after ``$REPRO_CHECK`` has filled in an unset ``check``,
   plus ``$REPRO_INTERPROC``: an entry written under one environment is
   never served under another.
2. **Per-input trace reuse** — traces are recorded *per input run*
   (``trace`` kind) and merged with
   :meth:`~repro.emu.tracer.TraceSet.absorb` in request order, which
   reconstructs exactly the TraceSet :func:`~repro.emu.tracer.
   trace_binary` would produce.  Adding one input to a known image
   re-executes only that input; everything else is a ``store.hit``.

Everything after tracing runs the one-shot pipeline, static widening
included: the lifted module is refined, optimized and lowered cold, on
every request.

Byte-identity invariant: for any request, the recovered image equals
the one a cold ``wytiwyg_recompile(image, inputs)`` produces — the
store only ever short-circuits recomputation of content-pinned
artifacts (tests/integration/test_incremental.py and
benchmarks/test_serve.py assert this differentially).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..binary.image import BinaryImage
from ..emu.tracer import TraceSet, trace_binary
from ..sanalysis import interproc_enabled
from ..store import (
    ArtifactStore,
    image_key,
    options_tag,
    result_key,
    trace_key,
)
from .driver import (
    WytiwygResult,
    _resolve_check,
    collector_paused,
    wytiwyg_recompile,
)

__all__ = ["JobStats", "ServedResult", "gather_traces",
           "incremental_recompile", "pipeline_options_tag"]


@dataclass
class JobStats:
    """What one request cost, and what it reused."""

    #: ``"store"`` (result hit), ``"incremental"`` (some traces
    #: reused), or ``"cold"`` (nothing reusable yet).
    served: str = "cold"
    traces_reused: int = 0
    traces_recorded: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_puts: int = 0

    def to_dict(self) -> dict:
        return {"served": self.served,
                "traces_reused": self.traces_reused,
                "traces_recorded": self.traces_recorded,
                "store_hits": self.store_hits,
                "store_misses": self.store_misses,
                "store_puts": self.store_puts}


@dataclass
class ServedResult:
    """A recompilation answer, whether computed or served from store."""

    recovered: BinaryImage
    layouts: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    fallback: bool = False
    accuracy: object | None = None
    stats: JobStats = field(default_factory=JobStats)
    image_key: str = ""
    result_key: str = ""
    #: The full pipeline result when this request actually ran the
    #: pipeline (None on a store hit).
    pipeline: WytiwygResult | None = None
    #: Coverage summary of the merged traces (campaign accounting).
    coverage: dict = field(default_factory=dict)


def pipeline_options_tag(optimize: bool = True,
                         check: bool | str | None = None,
                         hybrid: bool = False) -> str:
    """The options part of a result key.

    Only options that change the *artifact* participate, each with the
    value the pipeline will run with: ``check`` resolves through
    ``$REPRO_CHECK``, and ``$REPRO_INTERPROC``, which has no argument,
    is read here.  The execution knob ``jobs`` is byte-identity-neutral
    (the replay engine merges its workers' results deterministically)
    and deliberately excluded, so a parallel server and a serial one
    share entries.
    """
    return options_tag(optimize=optimize, check=_resolve_check(check),
                       interproc=interproc_enabled(), hybrid=hybrid)


def gather_traces(image: BinaryImage, runs: list[list],
                  store: ArtifactStore, img_key: str,
                  stats: JobStats) -> TraceSet:
    """Assemble the merged TraceSet for ``runs``, tracing only the
    input runs the store has never seen for this image."""
    traces = TraceSet(image)
    for items in runs:
        tkey = trace_key(img_key, items)
        record = store.get("trace", tkey)
        if record is None:
            with obs.timed("serve.trace_seconds"):
                single = trace_binary(image, [list(items)])
            record = {"transfers": single.transfers,
                      "executed": single.executed,
                      "vararg_counts": single.vararg_counts,
                      "result": single.results[0],
                      "input": list(items)}
            store.put("trace", tkey, record)
            stats.traces_recorded += 1
        else:
            stats.traces_reused += 1
        traces.absorb(record["transfers"], record["executed"],
                      record["vararg_counts"], record["result"],
                      record["input"])
    return traces


def _coverage_summary(traces: TraceSet) -> dict:
    return {"inputs": len(traces.inputs),
            "executed": len(traces.executed),
            "transfers": len(traces.transfers)}


@collector_paused()
def incremental_recompile(image: BinaryImage,
                          runs: list[list],
                          store: ArtifactStore,
                          optimize: bool = True,
                          check: bool | str | None = None,
                          hybrid: bool = False,
                          jobs: int = 1,
                          opt_jobs: int | None = None,
                          replay_pool=None) -> ServedResult:
    """Store-backed ``wytiwyg_recompile``: same answer, amortized cost.

    Checks the result store first; otherwise reassembles traces from
    per-input records (tracing only new inputs), runs the pipeline, and
    persists both the new traces and the final result.  ``opt_jobs`` is
    accepted and ignored, as by :func:`wytiwyg_recompile`.
    """
    img_key = image_key(image)
    # Resolve the environment default once, so the key and the run
    # agree on it.
    check = _resolve_check(check)
    opts = pipeline_options_tag(optimize=optimize, check=check,
                                hybrid=hybrid)
    rkey = result_key(img_key, runs, opts)
    stats = JobStats()
    before = dict(store.stats)

    def _fill(served: str) -> JobStats:
        stats.served = served
        stats.store_hits = store.stats["hit"] - before["hit"]
        stats.store_misses = (store.stats["miss"] - before["miss"]
                              + store.stats["corrupt"]
                              - before["corrupt"])
        stats.store_puts = store.stats["put"] - before["put"]
        return stats

    cached = store.get("result", rkey)
    if cached is not None:
        obs.count("serve.result_hits")
        return ServedResult(
            recovered=BinaryImage.from_json(cached["image_json"]),
            layouts=cached.get("layouts", {}),
            notes=list(cached.get("notes", [])),
            fallback=bool(cached.get("fallback", False)),
            accuracy=cached.get("accuracy"),
            stats=_fill("store"), image_key=img_key, result_key=rkey,
            coverage=dict(cached.get("coverage", {})))

    traces = gather_traces(image, runs, store, img_key, stats)
    result = wytiwyg_recompile(
        image, [list(items) for items in runs],
        optimize=optimize, hybrid=hybrid, traces=traces, jobs=jobs,
        check=check, replay_pool=replay_pool)
    coverage = _coverage_summary(traces)
    store.put("result", rkey, {
        "image_json": result.recovered.to_json(),
        "layouts": result.layouts,
        "notes": list(result.notes),
        "fallback": result.fallback,
        "accuracy": result.accuracy,
        "coverage": coverage,
    })
    served = "incremental" if stats.traces_reused else "cold"
    return ServedResult(
        recovered=result.recovered, layouts=result.layouts,
        notes=list(result.notes), fallback=result.fallback,
        accuracy=result.accuracy, stats=_fill(served),
        image_key=img_key, result_key=rkey, pipeline=result,
        coverage=coverage)
