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
* **which input a failure names** — the observation and bounds checks
  go in traced order and name the earliest diverging input; the final
  sweep replays cheapest first and stops at the first mismatch.

A failed check raises :class:`~repro.errors.SymbolizeError` naming the
stage, the diverging traced input and the reason; an interpreter
exception in a checked run becomes that same error (counted in
``validate.interpreter_errors`` and noted), never a raw traceback.
Each check emits one ``validate.verdict`` ledger event.

Observability: counters ``replay.runs`` (one per run made) /
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


class ReplayEngine:
    """Owns every dynamic re-execution of one refinement pipeline run.

    One engine per :func:`~repro.core.driver.wytiwyg_lift` invocation;
    it deduplicates the traced inputs once and checks every run it
    makes or is handed (:meth:`checker`) against the trace.
    """

    def __init__(self, traces: TraceSet):
        self.traces = traces
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

    @property
    def unique_inputs(self) -> list[list]:
        return [self.traces.inputs[i] for i in self.unique]

    # -- checks ---------------------------------------------------------------

    def checker(self, stage: str):
        """The per-run check for an observation loop over
        :attr:`unique_inputs`.

        ``check(n, run)`` executes ``run()``, the loop's interpreter run
        over its ``n``-th input, counts it in ``replay.runs`` and raises
        :class:`SymbolizeError` naming ``stage`` if the run does not
        reproduce the trace.  The loop runs in traced order, so a
        failure names the earliest diverging input; the last run records
        the stage's ok verdict.
        """
        results = self.traces.results
        last = len(self.unique) - 1

        def check(n: int, run) -> None:
            index = self.unique[n]
            obs.count("replay.runs")
            failure = _check_run(run, results[index])
            if failure is not None:
                self._fail(stage, index, *failure)
            if n == last:
                self._passed(stage, n + 1)

        return check

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

    def _passed(self, stage: str, runs: int) -> None:
        obs.event("validate.verdict", stage=stage, verdict="ok",
                  runs=runs)

    # -- validation ----------------------------------------------------------

    def validate(self, module: Module, stage: str) -> None:
        """The dedicated validation sweep: ``module`` reproduces every
        traced run, or :class:`SymbolizeError` names ``stage`` and the
        diverging input.

        Traced runs replay cheapest first and the sweep stops at the
        first mismatch: a broken refinement usually breaks every input,
        so it fails on the cheapest one.
        """
        with obs.timed("replay.validate_seconds"):
            inputs, results = self.traces.inputs, self.traces.results
            order = sorted(self.unique,
                           key=lambda i: (results[i].cycles, i))
            with Interpreter(module) as interp:
                for i in order:
                    obs.count("replay.runs")
                    interp.reset(inputs[i])
                    failure = _check_run(interp.run, results[i])
                    if failure is not None:
                        self._fail(stage, i, *failure)
            self._passed(stage, len(order))

    # -- instrumented bounds runs (§4.2) -------------------------------------

    def run_instrumented(self, module: Module,
                         stage: str) -> TracingRuntime:
        """Execute the probe-instrumented module on every distinct input
        and return the tracing runtime that observed them.

        The runs go in traced order on the stage's one interpreter, all
        observed by one runtime, bound to the interpreter before each
        input.  Each run is checked against the trace; a failure raises
        :class:`SymbolizeError` naming ``stage`` and the earliest
        diverging input.
        """
        with obs.timed("replay.bounds_seconds"):
            runtime = TracingRuntime()
            inputs, results = self.traces.inputs, self.traces.results
            with Interpreter(module, probes=runtime) as interp:
                for i in self.unique:
                    obs.count("replay.runs")
                    interp.reset(inputs[i])
                    runtime.bind(interp)
                    failure = _check_run(interp.run, results[i])
                    if failure is not None:
                        self._fail(stage, i, *failure)
                    self._trace_merged(i, runtime)
            self._passed(stage, len(self.unique))
            return runtime

    def _trace_merged(self, index: int, runtime: TracingRuntime) -> None:
        """Ledger record of one instrumented run folding in (§4.2)."""
        if obs.ledger() is not None:
            obs.event("trace.merged", input=index,
                      stack_vars=len(runtime.stack_vars),
                      arg_accesses=len(runtime.arg_accesses),
                      links=len(runtime.links))
