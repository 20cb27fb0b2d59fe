"""The WYTIWYG refinement-lifting driver (paper Figure 4).

Orchestrates the full pipeline:

1. trace the input binary on the user-provided inputs (S2E role); the
   trace also records each variadic call site's argument count, read
   off the format string each call is handed;
2. lift the merged traces to IR (BinRec role);
3. **refinement: variadic call recovery** (§5.2) — make variadic
   external calls explicit with the traced argument counts (an IR
   rewrite, no run);
4. **refinement: register save/argument classification** (§4.1) —
   promote the vcpu registers and flags to SSA values (mem2reg alone),
   run with register symbols, shrink signatures, decouple saved
   registers from the emulated stack;
5. canonicalize (constant folding, flag fusion, GVN, dead-code removal
   over the already-SSA registers) and fold all direct stack references
   into ``sp0 + offset`` form;
6. **refinement: object bounds recovery** (§4.2) — instrument with the
   ``wyt.*`` probes, execute all inputs against the tracing runtime,
   build frame layouts, widen them over the frame bytes a static access
   reaches but no trace touched (:func:`_static_corroborate`), build
   signatures, replace base pointers with native allocas, and remove
   the emulated stack;
7. optimize the symbolized module with the standard pipeline;
8. recompile to a new binary.  Given an artifact store (the serve
   path), steps 7 and 8 load the image a previous request built from a
   symbolized module with the same key (:func:`~repro.store.module_key`).

Every dynamic stage executes the *lifted IR itself* on the same inputs,
so each refinement consumes exactly the semantics the previous one
produced — the "what you trace is what you get" guarantee for traced
inputs.  Only traced code is lifted, so an input that takes an untraced
path traps in the recompiled image (paper §7.2); tracing it and lifting
again covers it.

All dynamic re-execution goes through one
:class:`~repro.replay.ReplayEngine` per pipeline run.  Traced inputs
are deduplicated once, and every run the engine makes or is handed is
checked: its stdout and exit code must reproduce the trace, else the
pipeline raises :class:`~repro.errors.SymbolizeError` naming the
refinement whose output ran, the diverging traced input and the reason
(an interpreter exception included).  Each check runs the output of one
refinement:

* the register observation (step 4), the first IR run, checks
  ``"lifting"``, which covers the lift, the varargs rewrite and the
  register promotion;
* the instrumented bounds runs (step 6) check ``"register
  refinement"``, which also covers canonicalization and probe
  insertion — both precede the bounds run and preserve semantics;
* one dedicated sweep after symbolization checks ``"stack
  symbolization"``.

That is three IR runs per distinct traced input, with or without
variadic sites, each stage's runs on one interpreter.  Given an
artifact store, each stage restores the state it reached on the longest
prefix of these inputs that an earlier request ran on the same module,
and runs only the rest (:class:`~repro.replay.engine.StageCheck`).  The
observation and bounds checks replay in traced order and name the
earliest diverging input; the final sweep replays cheapest first and
names the first mismatch it meets.  Canonicalization (step 5)
and optimization (step 7) run serially under the worklist pass manager
(:mod:`repro.opt.manager`), which brings every function to fixpoint on
every call.  A pipeline run keeps CPython's cyclic garbage collector
off (:func:`collector_paused`).

Observability: with :mod:`repro.obs` enabled every stage above runs
inside a named span (``stage.trace`` ... ``stage.recompile``) recording
wall time, the module's function/block/instruction counts before and
after, and verifier status; the enclosing ``pipeline.wytiwyg`` span
additionally carries the layout-accuracy precision/recall whenever the
input image ships ground truth, so a single recompile run reports the
paper's Figure-7 quality numbers without the evaluation harness.  The
replay layer contributes ``replay.runs`` / ``replay.reused`` /
``replay.deduped`` / ``validate.interpreter_errors`` counters and
per-sweep timers.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from .. import obs
from ..binary.image import BinaryImage
from ..emu.tracer import TraceSet, trace_binary
from ..errors import CheckError, StaticCheckError, SymbolizeError
from ..ir.module import Module
from ..ir.verifier import verify_module
from ..lifting.translator import lift_traces
from ..opt.dce import eliminate_dead_code
from ..opt.manager import canonicalize_module
from ..opt.pipeline import OptOptions, optimize_module
from ..opt.deadargelim import shrink_signatures
from ..recompile.link import recompile_ir
from ..recompile.lower import LowerOptions
from ..replay import ReplayEngine
from ..sanalysis import (
    CheckReport,
    analyze_function,
    corroborate_layouts,
    interproc_corroborate,
    sanitize_function,
)
from ..store import ArtifactStore, backend_key, image_key
from .accuracy import AccuracyReport, evaluate_accuracy
from .instrument import instrument_module, strip_probes
from .layout import FrameLayout, apply_widenings, build_layouts
from .regsave import apply_register_classification, classify_registers
from .replace import drop_sp_threading, replace_base_pointers
from .signatures import build_signatures
from .sp0fold import fold_module_stack_refs, is_lifted_function
from .varargs import recover_vararg_calls


@dataclass
class WytiwygResult:
    """Everything the pipeline produced."""

    #: The module the recovered image was lowered from: optimized
    #: unless ``optimize=False``.  When the image came from a stored
    #: ``backend`` record (:attr:`backend_reused`) nothing was
    #: optimized or lowered, and this is the symbolized module before
    #: O3.
    module: Module
    recovered: BinaryImage
    layouts: dict[str, FrameLayout] = field(default_factory=dict)
    accuracy: AccuracyReport | None = None
    #: True if the refined module fell back to the unsymbolized pipeline.
    fallback: bool = False
    notes: list[str] = field(default_factory=list)
    #: Static corroboration + sanitizer findings (None after fallback).
    check_report: CheckReport | None = None
    #: The merged trace set the pipeline consumed (re-traced or passed
    #: in); the incremental service layer persists and summarizes it.
    traces: TraceSet | None = None
    #: True if the recovered image was loaded from the store's
    #: ``backend`` record instead of optimized and lowered here.
    backend_reused: bool = False
    #: Replay runs restored from the store's ``replay`` records instead
    #: of made.
    replay_reused: int = 0
    #: The recovered image's JSON when it went through the store's
    #: ``backend`` record (loaded or written), else None.
    image_json: str | None = None


#: The cyclic collector's pause is process-wide, so every pause shares
#: one depth count; ``_pause_resumes`` is whether the collector was on
#: when the outermost pause began.
_PAUSE_LOCK = threading.Lock()
_pause_depth = 0
_pause_resumes = False


@contextmanager
def collector_paused():
    """Run the body with CPython's cyclic garbage collector off.

    Reference counting frees nearly all of a recompile's garbage (each
    replay stage breaks its interpreter's cycles on exit), so the
    collector's passes find little, and each full pass also walks every
    object the process already held.  Pauses nest, across threads too:
    the first entry disables the collector, and the last exit
    re-enables it only if it was on at the first entry, on return and
    on raise alike.  Usable as a decorator.
    """
    global _pause_depth, _pause_resumes
    with _PAUSE_LOCK:
        if _pause_depth == 0:
            _pause_resumes = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _PAUSE_LOCK:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_resumes:
                gc.enable()


def _count_findings(findings) -> dict[str, int]:
    counts = {"error": 0, "warning": 0, "info": 0}
    for finding in findings:
        counts[finding.severity] += 1
    for severity, n in counts.items():
        if n:
            obs.count(f"sanalysis.findings.{severity}", n)
    return counts


def module_stats(module: Module) -> dict[str, int]:
    """IR size snapshot attached to stage spans (before/after deltas)."""
    return {
        "functions": len(module.functions),
        "blocks": sum(len(f.blocks) for f in module.functions.values()),
        "instrs": sum(len(b.instrs)
                      for f in module.functions.values()
                      for b in f.blocks),
    }


def _canonicalize(module: Module) -> None:
    """Simplify the SSA-form registers and fold address arithmetic
    before instrumentation.  The paper's "turn virtual CPU registers
    into SSA-values before instrumentation" already happened in the
    §4.1 observation (:func:`classify_registers`); this stage's mem2reg
    pass finds no register slot left.  Runs as a one-round schedule
    under the worklist pass manager."""
    canonicalize_module(module)


#: The name of the final sweep's check, whose module key keys the
#: back end.
SYMBOLIZATION = "stack symbolization"


@collector_paused()
def wytiwyg_lift(traces: TraceSet,
                 static_widen: bool = True,
                 engine: ReplayEngine | None = None,
                 ) -> tuple[Module, dict[str, FrameLayout],
                            list[str], CheckReport]:
    """Run the refinement pipeline on merged traces; returns the
    symbolized module, the recovered layouts, pipeline notes, and the
    static check report (corroboration + sanitizer findings).

    The corroboration pass's widening suggestions are applied to the
    recovered layouts *before* symbolization, so statically reachable
    but untraced frame bytes land inside a recovered variable instead
    of outside every alloca.  Every recompile path does this;
    ``static_widen=False`` only serves ``repro check``, which reports
    the unwidened layout the traces alone recover.

    Only traced code is lifted: an untraced path in the result traps
    (paper §7.2), and tracing an input that takes it and lifting again
    covers it.

    The replay stages run on ``engine`` (a :class:`ReplayEngine` of
    ``traces``; a fresh one when not given).  :func:`wytiwyg_recompile`
    passes one bound to its artifact store, so that the stages resume
    from stored state, and reads the module keys it computed.
    """
    if not traces.inputs:
        raise CheckError(
            "no traced inputs: the dynamic pipeline needs at least one "
            "traced run to recover layouts (pass --input, or an empty "
            "input list '' for an input-less program)")
    if engine is None:
        engine = ReplayEngine(traces)
    report = CheckReport()
    notes: list[str] = []
    if engine.deduped:
        notes.append(
            f"replay: {len(engine.unique)} distinct inputs "
            f"({engine.deduped} duplicates fan in)")
    observing = obs.enabled()
    with obs.span("stage.lift") as sp:
        module = lift_traces(traces, "wytiwyg")
        verify_module(module)
        if observing:
            sp.set(ir_before={"functions": 0, "blocks": 0, "instrs": 0},
                   ir_after=module_stats(module), verified=True,
                   transfers=len(traces.transfers),
                   coverage=len(traces.executed),
                   inputs=len(traces.inputs))

    # Refinement: variadic external calls (§5.2), from the argument
    # counts the trace recorded at each call site.
    with obs.span("stage.varargs") as sp:
        before = module_stats(module) if observing else None
        nsites = recover_vararg_calls(module, traces)
        if nsites:
            notes.append(f"varargs: recovered {nsites} call sites")
        verify_module(module)
        if before is not None:
            sp.set(ir_before=before, ir_after=module_stats(module),
                   verified=True, call_sites=nsites)

    # Refinement: register save/argument classification (§4.1).  It
    # promotes the registers to SSA in place, then observes; the
    # observation runs are the first IR runs, so they check lifting,
    # the varargs rewrite and the promotion together.
    with obs.span("stage.regsave") as sp:
        before = module_stats(module) if observing else None
        classification = classify_registers(
            module, engine.unique_inputs,
            check=engine.checker("lifting", engine.lifted_key))
        apply_register_classification(module, classification)
        verify_module(module)
        if before is not None:
            sp.set(ir_before=before, ir_after=module_stats(module),
                   verified=True,
                   classified=len(classification.args),
                   indirect_targets=len(
                       classification.indirect_targets))
    notes.append(
        f"regsave: {len(classification.args)} functions classified, "
        f"{len(classification.indirect_targets)} indirect targets")

    # Canonicalize and identify direct stack references.
    with obs.span("stage.canonicalize") as sp:
        before = module_stats(module) if observing else None
        _canonicalize(module)
        refs = fold_module_stack_refs(module)
        if before is not None:
            sp.set(ir_before=before, ir_after=module_stats(module),
                   stack_refs=sum(len(r) for r in refs.values()))
    notes.append(
        "sp0fold: "
        f"{sum(len(r) for r in refs.values())} direct stack references")

    # Refinement: object bounds recovery (§4.2).  The instrumented runs
    # check the register rewrite (canonicalized and probed, both
    # semantics-preserving); the symbolized module gets its own sweep.
    with obs.span("stage.bounds") as sp:
        before = module_stats(module) if observing else None
        mi = instrument_module(module)
        runtime = engine.run_instrumented(module, "register refinement",
                                          classification)
        strip_probes(module)
        verify_module(module)

        layouts = build_layouts(runtime, mi)
        _static_corroborate(module, layouts, report, notes,
                            static_widen)
        plan = build_signatures(runtime, mi, module)
        replace_base_pointers(module, mi, layouts, plan, runtime)
        for func in module.functions.values():
            eliminate_dead_code(func)
        drop_sp_threading(module)
        for func in module.functions.values():
            eliminate_dead_code(func)
        shrink_signatures(module)
        verify_module(module)
        engine.validate(module, SYMBOLIZATION)
        nvars = sum(len(lo.variables) for lo in layouts.values())
        if before is not None:
            sp.set(ir_before=before, ir_after=module_stats(module),
                   verified=True, stack_variables=nvars,
                   stack_args=sum(plan.stack_args.values()))
    notes.append(f"symbolize: {nvars} stack variables, "
                 f"{sum(plan.stack_args.values())} stack args")

    # IR sanitizer lints over the symbolized module.
    with obs.span("stage.sanitize") as sp:
        lints = []
        for func in module.functions.values():
            with obs.span("sanitize.function",
                          function=func.name) as fsp:
                found = sanitize_function(func, module)
                lints.extend(found)
                if observing:
                    fsp.set(findings=len(found))
                if obs.ledger() is not None:
                    for finding in found:
                        obs.event("sanitize.finding",
                                  severity=finding.severity,
                                  finding=finding.kind,
                                  func=finding.func,
                                  offset=finding.offset,
                                  width=finding.width,
                                  message=finding.message)
        report.extend(lints)
        counts = _count_findings(lints)
        if observing:
            sp.set(findings=len(lints), **counts)
    if report.findings:
        counts = report.counts()
        notes.append(
            f"check: {counts['error']} errors, "
            f"{counts['warning']} warnings, {counts['info']} infos")

    module.metadata["pipeline"] = "wytiwyg"
    return module, layouts, notes, report


def _static_corroborate(module: Module,
                        layouts: dict[str, FrameLayout],
                        report: CheckReport,
                        notes: list[str],
                        static_widen: bool) -> None:
    """Static frame-access recovery + corroboration against the dynamic
    layouts, per function and across calls, run on the
    pre-symbolization IR (sp still threaded, so the abstract interpreter
    can anchor every access at sp0).  With ``static_widen`` it grows
    ``layouts`` in place by the suggestions, then re-diffs, so the
    report holds only what symbolization keeps."""
    observing = obs.enabled()
    with obs.span("stage.sanalysis", widen=static_widen) as sp:
        accesses = {}
        for func in module.functions.values():
            if not is_lifted_function(func):
                continue
            with obs.span("sanalysis.function",
                          function=func.name) as fsp:
                access_set = analyze_function(func)
                accesses[func.name] = access_set
                if observing:
                    fsp.set(accesses=len(access_set.accesses),
                            known_offsets=len(access_set.known_offsets))
        findings, suggestions = corroborate_layouts(accesses, layouts)
        with obs.span("sanalysis.interproc"):
            ifindings, isuggestions = interproc_corroborate(
                module, layouts, accesses)
        findings = findings + ifindings
        suggestions = suggestions + isuggestions
        if obs.ledger() is not None:
            for finding in findings:
                obs.event("corroborate.finding",
                          severity=finding.severity,
                          finding=finding.kind, func=finding.func,
                          offset=finding.offset, width=finding.width,
                          message=finding.message,
                          provenance=finding.provenance)
        if static_widen and suggestions:
            rows = apply_widenings(layouts, suggestions)
            report.widenings.extend(rows)
            applied = sum(1 for row in rows if row["applied"])
            if applied:
                notes.append(f"sanalysis: widened {applied} frame "
                             f"region(s) from static evidence")
                # Re-diff against the repaired layouts so the report
                # reflects what symbolization will actually use;
                # resolved gaps drop out, anything left is real.
                findings, _ = corroborate_layouts(accesses, layouts)
                ifindings, _ = interproc_corroborate(
                    module, layouts, accesses)
                findings = findings + ifindings
        report.extend(findings)
        counts = _count_findings(findings)
        if observing:
            sp.set(functions=len(accesses), findings=len(findings),
                   suggestions=len(suggestions), **counts)


@collector_paused()
def wytiwyg_recompile(image: BinaryImage,
                      inputs: list[list[int | bytes]],
                      optimize: bool = True,
                      collect_accuracy: bool = True,
                      allow_fallback: bool = True,
                      traces: TraceSet | None = None,
                      jobs: int = 1,
                      check: bool | str = False,
                      opt_jobs: int | None = None,
                      store: ArtifactStore | None = None,
                      img_key: str | None = None) -> WytiwygResult:
    """End-to-end WYTIWYG: trace, refine, symbolize, optimize,
    recompile.  Falls back to the unsymbolized (BinRec) pipeline if
    symbolization fails functional validation.

    Pass ``traces`` (a TraceSet of ``image`` over ``inputs``) to reuse
    an existing or cached trace instead of re-executing the binary.
    ``jobs`` and ``opt_jobs`` are accepted and ignored: replay and the
    optimizer run serially in this process.  The end-to-end benchmark
    (``benchmarks/e2e/run.py``) still passes both.

    ``check`` arms the static gate (default off): with ``True``,
    ``error``-severity findings abort the pipeline with
    :class:`~repro.errors.StaticCheckError` *before* the optimizer
    runs, and warnings are annotated into the result notes; with
    ``"strict"``, warnings abort too.  The gate reads the report of
    the widened layout that symbolization used, so a coverage gap that
    widening closed no longer counts.

    With a ``store`` (:func:`~repro.core.incremental.
    incremental_recompile` passes its own, and ``img_key``, the image's
    :func:`~repro.store.image_key`, which is computed here when not
    given), work is reused across requests:

    * each replay stage restores the state that a ``replay`` record
      holds for the module it runs and the longest stored prefix of the
      distinct traced inputs, and runs and checks only the inputs after
      it (:attr:`WytiwygResult.replay_reused` counts the runs it did
      not make);
    * after the static gate, the image that O3 and lowering build is
      looked up under :func:`~repro.store.backend_key` of the symbolized
      module's key, which the final sweep computed.  A hit loads it and
      skips O3, its verification and lowering; a miss runs them and
      stores the image.

    Every stage before the back end runs either way, so every check
    still covers every input.  A fallback to the unsymbolized pipeline
    reads and writes no ``backend`` record.  Without a store no key is
    computed.
    """
    if not (isinstance(check, bool) or check == "strict"):
        raise ValueError(f"check must be False, True or 'strict', "
                         f"not {check!r}")
    observing = obs.enabled()
    obs.event("run.start", pipeline="wytiwyg",
              image=image.metadata.get("name"), inputs=len(inputs),
              optimize=optimize)
    with obs.span("pipeline.wytiwyg") as pipeline_span:
        with obs.span("stage.trace", cached=traces is not None) as sp:
            if traces is None:
                traces = trace_binary(image, inputs)
            if observing:
                sp.set(inputs=len(traces.inputs),
                       transfers=len(traces.transfers),
                       coverage=len(traces.executed))
        if store is not None and img_key is None:
            img_key = image_key(image)
        engine = ReplayEngine(traces, store, img_key)
        try:
            module, layouts, notes, report = wytiwyg_lift(traces,
                                                          engine=engine)
            fallback = False
        except SymbolizeError as exc:
            if not allow_fallback:
                raise
            from ..baselines.binrec import binrec_lift
            module = binrec_lift(traces, optimize=False)
            layouts = {}
            notes = [f"fallback to unsymbolized pipeline: {exc}"]
            report = None
            fallback = True

        if check and report is not None:
            gating = list(report.errors)
            if check == "strict":
                gating.extend(report.warnings)
            if observing:
                pipeline_span.set(check="strict" if check == "strict"
                                  else "on",
                                  check_gating=len(gating))
            if gating:
                raise StaticCheckError(
                    f"static check gate: {len(gating)} finding(s) "
                    f"block optimization "
                    f"({', '.join(sorted({g.kind for g in gating}))})",
                    report)
            for finding in report.warnings:
                notes.append(f"check[warn]: {finding.render()}")

        bkey = image_json = None
        if store is not None and not fallback:
            bkey = backend_key(engine.module_keys[SYMBOLIZATION], optimize)
            image_json = store.get("backend", bkey)
        reused = image_json is not None
        if reused:
            recovered = BinaryImage.from_json(image_json)
        else:
            recovered = _backend(module, image, optimize, observing)
            if bkey is not None:
                image_json = recovered.to_json()
                store.put("backend", bkey, image_json)

        accuracy = None
        if collect_accuracy and not fallback and image.ground_truth:
            accuracy = evaluate_accuracy(image, layouts)
        if observing:
            pipeline_span.set(fallback=fallback, notes=list(notes),
                              backend_reused=reused,
                              replay_reused=engine.reused)
            if accuracy is not None:
                pipeline_span.set(
                    accuracy_precision=accuracy.precision,
                    accuracy_recall=accuracy.recall,
                    accuracy_counts=dict(accuracy.counts))
    obs.event("run.finish", pipeline="wytiwyg", fallback=fallback,
              stack_variables=sum(len(lo.variables)
                                  for lo in layouts.values()),
              notes=list(notes))
    return WytiwygResult(module, recovered, layouts, accuracy,
                         fallback, notes, check_report=report,
                         traces=traces, backend_reused=reused,
                         replay_reused=engine.reused,
                         image_json=image_json)


def _backend(module: Module, image: BinaryImage, optimize: bool,
             observing: bool) -> BinaryImage:
    """Optimize ``module`` (unless ``optimize`` is off) and lower it to
    the recovered image, which carries ``image``'s metadata."""
    with obs.span("stage.optimize", enabled=optimize) as sp:
        before = module_stats(module) if observing else None
        if optimize:
            optimize_module(module, OptOptions.o3())
            verify_module(module)
        if before is not None:
            sp.set(ir_before=before, ir_after=module_stats(module),
                   verified=optimize)

    with obs.span("stage.recompile") as sp:
        recovered = recompile_ir(
            module, LowerOptions(frame_pointer=False),
            metadata={**image.metadata,
                      "pipeline": module.metadata.get(
                          "pipeline", "wytiwyg")})
        if observing:
            sp.set(ir_before=module_stats(module),
                   ir_after=module_stats(module),
                   text_bytes=len(recovered.text.data))
    return recovered
