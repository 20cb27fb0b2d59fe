"""The replay engine: all dynamic re-execution of lifted IR.

The refinement pipeline (paper Figure 4) executes the lifted module on
every traced input at every dynamic stage: the register-classification
observation, the instrumented §4.2 bounds run, and one validation sweep
after stack symbolization.  (The variadic-call refinement needs no run:
its argument counts come from the trace.)  That replay loop dominates
``wytiwyg_recompile``'s cost, so the engine makes every run count:

* **every run is a check** — one comparator matches each run's stdout
  and exit code against the traced result, so each refinement's output
  is validated by the run that observes it for the next stage: the
  regsave observation checks the lifted module with its varargs
  rewrite and its registers promoted to SSA values (``"lifting"``),
  and the bounds run the register rewrite
  (``"register refinement"``, which also covers canonicalization and
  probe insertion: both precede the bounds run and preserve
  semantics).  Only the symbolized module, which no later stage
  executes, gets a dedicated sweep (``"stack symbolization"``).  That
  is three runs per distinct input;
* **input dedup** — identical entries in ``traces.inputs`` exercise
  identical paths (execution is deterministic), so each distinct input
  replays once and the result fans out to its duplicates;
* **one interpreter per stage** — each stage's runs share one
  :class:`~repro.ir.interp.Interpreter`, reset before each input, so
  every block compiles once for all of the stage's inputs;
* **one tracing runtime per bounds stage** — the bounds runs share one
  :class:`~repro.core.runtime.TracingRuntime`, as they share one
  interpreter: the interpreter compiles each probe once, and
  :meth:`~repro.core.runtime.TracingRuntime.bind` resets the per-run
  state before each input;
* **resumed from the store** — given an artifact store (a served
  request), each stage (:class:`StageCheck`) keys the module it runs,
  restores the cross-run state a ``replay`` record holds for the
  longest prefix of its distinct inputs, runs and checks only the
  inputs after it, and records its state for the whole list once every
  run has passed.  The §4.1 observation and the bounds runs key their
  modules on what built them, without reading the modules: the trace
  coverage (:func:`~repro.store.lifted_module_key`), and that key with
  the §4.1 classification
  (:func:`~repro.store.instrumented_module_key`).  Only the final
  sweep prints its module (:func:`module_text`), whose key the back
  end shares.  No run reads what earlier inputs
  accumulated (observations only grow, and the per-run state is reset
  before each input), so a resumed stage ends in the state a replay of
  every input reaches.  A campaign adds inputs at the end, so its next
  request replays only them;
* **which input a failure names** — the observation and bounds checks
  go in traced order and name the earliest diverging input; the final
  sweep replays cheapest first and stops at the first mismatch.

A failed check raises :class:`~repro.errors.SymbolizeError` naming the
stage, the diverging traced input and the reason; an interpreter
exception in a checked run becomes that same error (counted in
``validate.interpreter_errors`` and noted), never a raw traceback.
Each stage emits one ``validate.verdict`` ledger event, and a stage
whose check fails writes no record.

Observability: counters ``replay.runs`` (one per run made) /
``replay.reused`` (one per run restored from the store) /
``replay.deduped`` / ``validate.interpreter_errors``, and the
``replay.validate_seconds`` / ``replay.bounds_seconds`` timers.
"""

from __future__ import annotations

from .. import obs
from ..core.runtime import TracingRuntime
from ..emu.tracer import TraceSet
from ..errors import SymbolizeError
from ..ir.interp import Interpreter
from ..ir.module import Module
from ..ir.printer import module_to_text
from ..ir.values import Intrinsic
from ..store import (
    ArtifactStore,
    instrumented_module_key,
    lifted_module_key,
    module_key,
    replay_keys,
)


def module_text(module: Module) -> str:
    """The key text of ``module``: everything a replay run or the back
    end reads of it.  Only the symbolized module is keyed on it (the
    final sweep's record and the back end's); the earlier stages key
    theirs on what built them.

    That is the printed module (:func:`~repro.ir.printer.module_to_text`),
    each probe's metadata (the tracing runtime binds it when the probe
    compiles), the module metadata (lowering copies it into the image),
    the address table (indirect calls, and the resolver lowering builds)
    and the entry.  The image fixes the rest: each global's initializer,
    alignment and writability are its sections'.  No run, optimizer
    pass or lowering reads a function's ``meta`` (the inliner's
    ``inline_serial`` is set only once O3 runs) or a call's
    ``call_addr`` (the varargs rewrite reads it, before any keyed run).
    """
    metas = [instr.meta for func in module.functions.values()
             for block in func.blocks for instr in block.instrs
             if type(instr) is Intrinsic]
    return "\n".join((module_to_text(module), repr(metas),
                      repr(module.metadata), repr(module.address_table),
                      module.entry_name))


def _check_run(run, expected):
    """Execute ``run()``, one interpreter run over a traced input, and
    compare its stdout and exit code with the traced ``expected``.

    Returns ``None`` when the run reproduces the trace, else ``(reason,
    interp_error)``: ``interp_error`` marks a swallowed interpreter
    exception (counted and noted by the engine) as opposed to an output
    mismatch.
    """
    try:
        result = run()
    except Exception as exc:  # diagnosable, not silent (see _fail)
        return f"{type(exc).__name__}: {exc}", True
    if result.stdout != expected.stdout:
        return "stdout diverged", False
    if result.exit_code != expected.exit_code:
        return (f"exit code {result.exit_code} != {expected.exit_code}",
                False)
    return None


class StageCheck:
    """The checked runs of one replay stage over the engine's distinct
    inputs (:meth:`ReplayEngine.checker`).

    A stage calls :meth:`resume`, makes each remaining input's run
    through ``check(n, run)``, and hands its cross-run state to
    :meth:`passed` once every run has passed.
    """

    def __init__(self, engine: "ReplayEngine", stage: str, module_key):
        self.engine = engine
        self.stage = stage
        #: Gives the key of the module the stage runs; called only with
        #: a store.
        self._module_key = module_key
        #: How many leading distinct inputs were restored, not run.
        self.start = 0
        #: The ``replay`` keys of each prefix of the distinct inputs
        #: (with a store).
        self._keys: list[str] = []

    def resume(self, restore=None) -> int:
        """Restore the stage from the store: the number of leading
        distinct inputs whose runs need not be made.

        With a store, the module the stage runs is keyed
        (:attr:`ReplayEngine.module_keys`), and the state a ``replay``
        record holds for the longest prefix of the distinct inputs goes
        to ``restore(state)``.  The whole list is looked up (a store hit
        or miss); a shorter prefix, longest first, only when its record
        exists.  A corrupt record counts in ``store.corrupt`` and the
        next shorter prefix is tried.  Without a store, 0.
        """
        engine = self.engine
        store = engine.store
        if store is None:
            return 0
        mod_key = engine.module_keys[self.stage] = self._module_key()
        keys = self._keys = replay_keys(mod_key, self.stage,
                                        engine.unique_inputs)
        for n in range(len(keys), 0, -1):
            if n < len(keys) and not store.contains("replay", keys[n - 1]):
                continue
            state = store.get("replay", keys[n - 1])
            if state is not None:
                if restore is not None:
                    restore(state)
                self.start = n
                engine.reused += n
                obs.count("replay.reused", n)
                break
        return self.start

    def __call__(self, n: int, run) -> None:
        """Execute ``run()``, the stage's run over its ``n``-th distinct
        input, count it in ``replay.runs`` and raise
        :class:`SymbolizeError` naming the stage if it does not
        reproduce the trace."""
        engine = self.engine
        index = engine.unique[n]
        obs.count("replay.runs")
        failure = _check_run(run, engine.traces.results[index])
        if failure is not None:
            engine._fail(self.stage, index, *failure)

    def passed(self, state) -> None:
        """Every run passed: record the stage's ok verdict and, with a
        store, its cross-run ``state`` for the whole distinct input
        list."""
        runs = len(self.engine.unique) - self.start
        obs.event("validate.verdict", stage=self.stage, verdict="ok",
                  runs=runs, restored=self.start)
        if runs and self._keys:
            self.engine.store.put("replay", self._keys[-1], state)


class ReplayEngine:
    """Owns every dynamic re-execution of one refinement pipeline run.

    One engine per :func:`~repro.core.driver.wytiwyg_lift` invocation;
    it deduplicates the traced inputs once and checks every run it
    makes or is handed (:meth:`checker`) against the trace.  Given a
    ``store`` and the image's key in it (``img_key``), each stage
    resumes from the ``replay`` records (:class:`StageCheck`).
    """

    def __init__(self, traces: TraceSet,
                 store: ArtifactStore | None = None,
                 img_key: str | None = None):
        self.traces = traces
        self.store = store
        self.img_key = img_key
        seen: set[str] = set()
        #: Indices into ``traces.inputs``, first occurrence of each
        #: distinct input, in traced order.
        self.unique: list[int] = []
        for i, items in enumerate(traces.inputs):
            key = repr(items)
            if key not in seen:
                seen.add(key)
                self.unique.append(i)
        self.deduped = len(traces.inputs) - len(self.unique)
        if self.deduped:
            obs.count("replay.deduped", self.deduped)
        #: Diagnostics of failed checks (interpreter errors); the
        #: raised :class:`SymbolizeError` carries the same reason.
        self.notes: list[str] = []
        #: Runs restored from the store instead of made.
        self.reused = 0
        #: With a store: each stage's key of the module it ran; the
        #: back end keys its record on the symbolized module's.
        self.module_keys: dict[str, str] = {}
        self._lifted_key: str | None = None

    @property
    def unique_inputs(self) -> list[list]:
        return [self.traces.inputs[i] for i in self.unique]

    def lifted_key(self) -> str:
        """The key of the module lifted from the traces, with its
        varargs rewritten and its registers promoted
        (:func:`~repro.store.lifted_module_key`), computed once."""
        if self._lifted_key is None:
            self._lifted_key = lifted_module_key(self.img_key, self.traces)
        return self._lifted_key

    # -- checks ---------------------------------------------------------------

    def checker(self, stage: str, module_key) -> StageCheck:
        """The checked runs of a stage named ``stage`` over
        :attr:`unique_inputs`, made in traced order, so a failure names
        the earliest diverging input.  ``module_key()`` gives the key of
        the module the stage runs, and is called only with a store."""
        return StageCheck(self, stage, module_key)

    def _fail(self, stage: str, index: int, reason: str,
              interp_error: bool) -> None:
        """Record a failed check and raise its :class:`SymbolizeError`,
        naming the diverging input (and the interpreter error, if one
        was swallowed)."""
        if interp_error:
            obs.count("validate.interpreter_errors")
            self.notes.append(
                f"validate[{stage}]: interpreter error on "
                f"input #{index}: {reason}")
        obs.event("validate.verdict", stage=stage, verdict="failed",
                  input=index, reason=reason,
                  interpreter_error=interp_error)
        raise SymbolizeError(
            f"{stage} broke functionality: traced input "
            f"#{index} {self.traces.inputs[index]!r} "
            f"diverged ({reason})")

    # -- validation ----------------------------------------------------------

    def validate(self, module: Module, stage: str) -> None:
        """The dedicated validation sweep: ``module`` reproduces every
        traced run, or :class:`SymbolizeError` names ``stage`` and the
        diverging input.

        Traced runs replay cheapest first and the sweep stops at the
        first mismatch: a broken refinement usually breaks every input,
        so it fails on the cheapest one.  The module is keyed on its key
        text (:func:`module_text`), and its record holds the ok verdict.
        """
        with obs.timed("replay.validate_seconds"):
            check = self.checker(
                stage, lambda: module_key(self.img_key, module_text(module)))
            start = check.resume()
            inputs, results = self.traces.inputs, self.traces.results
            unique = self.unique
            order = sorted(range(start, len(unique)),
                           key=lambda n: (results[unique[n]].cycles, n))
            with Interpreter(module) as interp:
                for n in order:
                    interp.reset(inputs[unique[n]])
                    check(n, interp.run)
            check.passed(True)

    # -- instrumented bounds runs (§4.2) -------------------------------------

    def run_instrumented(self, module: Module, stage: str,
                         classification) -> TracingRuntime:
        """Execute the probe-instrumented module on every distinct input
        and return the tracing runtime that observed them.

        The runs go in traced order on the stage's one interpreter, all
        observed by one runtime, bound to the interpreter before each
        input.  Each run is checked against the trace; a failure raises
        :class:`SymbolizeError` naming ``stage`` and the earliest
        diverging input.  With a store, the module is keyed on the
        lifted module's key and ``classification``, the §4.1
        :class:`~repro.core.regsave.RegSaveResult` that the register
        rewrite applied to it (:func:`~repro.store.
        instrumented_module_key`), and its record holds the runtime's
        :meth:`~repro.core.runtime.TracingRuntime.state`.
        """
        with obs.timed("replay.bounds_seconds"):
            runtime = TracingRuntime()
            check = self.checker(
                stage, lambda: instrumented_module_key(self.lifted_key(),
                                                       classification))
            start = check.resume(runtime.restore)
            inputs = self.traces.inputs
            with Interpreter(module, probes=runtime) as interp:
                for n in range(start, len(self.unique)):
                    index = self.unique[n]
                    interp.reset(inputs[index])
                    runtime.bind(interp)
                    check(n, interp.run)
                    self._trace_merged(index, runtime)
            check.passed(runtime.state())
            return runtime

    def _trace_merged(self, index: int, runtime: TracingRuntime) -> None:
        """Ledger record of one instrumented run folding in (§4.2)."""
        if obs.ledger() is not None:
            obs.event("trace.merged", input=index,
                      stack_vars=len(runtime.stack_vars),
                      arg_accesses=len(runtime.arg_accesses),
                      links=len(runtime.links))
