"""The replay engine: all dynamic re-execution of lifted IR.

The refinement pipeline (paper Figure 4) executes the lifted module on
every traced input at every dynamic stage: the variadic-call
observation, the register-classification observation, the
instrumented §4.2 bounds run, and one validation sweep after stack
symbolization.  That replay loop dominates ``wytiwyg_recompile``'s
cost, so the engine makes every run count:

* **every run is a check** — one comparator matches each run's stdout
  and exit code against the traced result, so each refinement's output
  is validated by the run that observes it for the next stage: the
  varargs observation checks the lifted module (``"lifting"``), the
  regsave observation the varargs rewrite (``"varargs refinement"``),
  and the bounds run the register rewrite (``"register refinement"``,
  which also covers canonicalization and probe insertion: both precede
  the bounds run and preserve semantics).  Only the symbolized module,
  which no later stage executes, gets a dedicated sweep (``"stack
  symbolization"``).  That is four runs per distinct input, three when
  the module has no variadic call site;
* **input dedup** — identical entries in ``traces.inputs`` exercise
  identical paths (execution is deterministic), so each distinct input
  replays once and the result fans out to its duplicates;
* **parallel replay** — the validation sweep and the instrumented
  bounds runs are independent per input and fan out over a process
  pool (``jobs=N``); per-input
  :class:`~repro.core.runtime.TracingRuntime` recordings are merged
  deterministically in traced-input order, so parallel and serial runs
  produce byte-identical recompiled binaries;
* **which input a failure names** — the observation and bounds checks
  go in traced order and name the earliest diverging input, with any
  ``jobs``; the final sweep replays cheapest first and stops at the
  first mismatch.

A failed check raises :class:`~repro.errors.SymbolizeError` naming the
stage, the diverging traced input and the reason; an interpreter
exception in a checked run becomes that same error (counted in
``validate.interpreter_errors`` and noted), never a raw traceback.
Each check emits one ``validate.verdict`` ledger event.

Observability: counters ``replay.runs`` (one per run made) /
``replay.deduped`` / ``validate.interpreter_errors``, and the
``replay.validate_seconds`` / ``replay.bounds_seconds`` timers.  The
pool layer adds ``parallel.pool.spawns`` / ``parallel.pool.reuses``.

Process-pool workers are spawned with the ``fork`` start method through
the shared :class:`repro.parallel.ForkPool` utility and read the module
from inherited memory (a lifted module is a cyclic object graph that
may exceed pickle's recursion limits).  The pool is keyed on the
module's content fingerprint, so consecutive sweeps over an unchanged
module **reuse** the live workers instead of forking a fresh executor
per stage; a content change respawns.  Where ``fork`` is unavailable,
or a pool dies mid-sweep, the engine falls back to the serial path,
which computes the same results.
"""

from __future__ import annotations

import os
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError

from .. import obs
from ..core.runtime import TracingRuntime
from ..emu.tracer import TraceSet
from ..errors import SymbolizeError
from ..ir.interp import Interpreter
from ..ir.module import Module
from ..parallel import ForkPool, worker_ctx
from .fingerprint import module_fingerprint


def _baseline() -> bool:
    """``REPRO_REPLAY_BASELINE=1`` disables input dedup (every traced
    input replays at every stage) and pool reuse.  Benchmarks use it
    to measure the win."""
    return os.environ.get("REPRO_REPLAY_BASELINE", "") not in ("", "0")


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


def _instrumented(interp: Interpreter, items):
    """Prepare a §4.2 bounds run of ``interp`` over ``items`` with its
    own tracing runtime: returns the runtime and the ``run``."""
    runtime = TracingRuntime()
    interp.intrinsic_handler = runtime.handle
    interp.reset(items)
    runtime.bind(interp)
    return runtime, interp.run


def _worker_begin() -> bool:
    """Reset the inherited recorder (and in-memory ledger events) so
    this worker's observations are not double-counted when the parent
    merges its payload."""
    observe = worker_ctx()[3]
    if observe:
        obs.enable(reset=True)
    obs.fork_begin()
    return observe


def _validate_worker(index: int):
    module, inputs, results, _observe = worker_ctx()
    observe = _worker_begin()
    failure = _check_run(Interpreter(module, inputs[index]).run,
                         results[index])
    return index, failure, obs.export_payload() if observe else None


def _bounds_worker(index: int):
    module, inputs, results, _observe = worker_ctx()
    observe = _worker_begin()
    runtime, run = _instrumented(Interpreter(module), inputs[index])
    failure = _check_run(run, results[index])
    return (index, failure,
            runtime.snapshot() if failure is None else None,
            obs.export_payload() if observe else None)


class ReplayEngine:
    """Owns every dynamic re-execution of one refinement pipeline run.

    One engine per :func:`~repro.core.driver.wytiwyg_lift` invocation;
    it deduplicates the traced inputs once, checks every run it makes
    or is handed (:meth:`checker`) against the trace, and fans replay
    sweeps out over ``jobs`` worker processes drawn from one reusable
    :class:`~repro.parallel.ForkPool` (callers that finish a pipeline
    run should :meth:`close` it).
    """

    def __init__(self, traces: TraceSet, jobs: int = 1,
                 pool: ForkPool | None = None):
        self.traces = traces
        self.jobs = max(1, int(jobs))
        if pool is not None:
            # A caller-owned pool (the serve daemon shares one across
            # requests, so identical resubmissions reuse live workers).
            # The pool's worker budget wins over ``jobs`` so the owner
            # controls the fan-out centrally.
            self.jobs = max(self.jobs, pool.jobs)
        self.baseline = _baseline()
        seen: set[str] = set()
        #: Indices into ``traces.inputs``, first occurrence of each
        #: distinct input, in traced order (merge determinism relies on
        #: this order).
        self.unique: list[int] = []
        for i, items in enumerate(traces.inputs):
            key = repr(items)
            if self.baseline or key not in seen:
                seen.add(key)
                self.unique.append(i)
        self.deduped = len(traces.inputs) - len(self.unique)
        if self.deduped:
            obs.count("replay.deduped", self.deduped)
        #: Diagnostics of failed checks (interpreter errors); the
        #: raised :class:`SymbolizeError` carries the same reason.
        self.notes: list[str] = []
        #: Shared fork pool, reused across sweeps while the module's
        #: content fingerprint is unchanged.  Externally lent pools
        #: outlive this engine (``close`` leaves them running).
        self._own_pool = pool is None
        self.pool = ForkPool(self.jobs) if pool is None else pool
        #: Forces a respawn for sweeps without a content key (baseline
        #: mode keeps the historical pool-per-stage behaviour).
        self._unkeyed = 0

    def close(self) -> None:
        """Release the worker pool (end of the pipeline run).  A pool
        lent by the caller stays alive for the next request."""
        if self._own_pool:
            self.pool.close()

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
            results = self.traces.results
            order = sorted(self.unique,
                           key=lambda i: (results[i].cycles, i))
            if self.jobs > 1 and len(order) > 1:
                failure = self._validate_parallel(module, order)
            else:
                failure = self._validate_serial(module, order)
            if failure is not None:
                self._fail(stage, *failure)
            self._passed(stage, len(order))

    def _validate_serial(self, module, order):
        inputs, results = self.traces.inputs, self.traces.results
        with Interpreter(module) as interp:
            for i in order:
                obs.count("replay.runs")
                interp.reset(inputs[i])
                failure = _check_run(interp.run, results[i])
                if failure is not None:
                    return (i, *failure)
        return None

    def _validate_parallel(self, module, order):
        try:
            pool = self._acquire(module, len(order))
        except Exception:
            return self._validate_serial(module, order)
        try:
            futures = [pool.submit(_validate_worker, i) for i in order]
            for future in as_completed(futures):
                index, failure, payload = future.result()
                obs.merge_payload(payload)
                obs.count("replay.runs")
                if failure is not None:
                    # Early exit: drop the runs still queued.  The
                    # cancelled executor cannot be reused.
                    self.pool.invalidate(cancel=True)
                    return (index, *failure)
        except Exception:
            # A broken pool (OOM-killed worker, missing fork support
            # surfacing late): replaying serially is idempotent.
            self.pool.invalidate()
            return self._validate_serial(module, order)
        return None

    # -- instrumented bounds runs (§4.2) -------------------------------------

    def run_instrumented(self, module: Module,
                         stage: str) -> TracingRuntime:
        """Execute the probe-instrumented module on every distinct input
        and return the merged tracing runtime.

        Each run is checked against the trace; a failure raises
        :class:`SymbolizeError` naming ``stage`` and the earliest
        diverging input in traced order, with or without ``jobs``.
        Per-input runtimes are merged in traced-input order, which
        reproduces the variable/argument-area discovery order of a
        single shared runtime — serial and parallel sweeps therefore
        feed identical state to layout construction.
        """
        with obs.timed("replay.bounds_seconds"):
            merged = TracingRuntime()
            order = self.unique
            snapshots = None
            if self.jobs > 1 and len(order) > 1:
                snapshots = self._bounds_parallel(module, order)
            inputs, results = self.traces.inputs, self.traces.results
            with Interpreter(module) as interp:
                for i in order:
                    if snapshots is None:
                        obs.count("replay.runs")
                        runtime, run = _instrumented(interp, inputs[i])
                        failure = _check_run(run, results[i])
                    else:
                        failure, runtime = snapshots[i]
                    if failure is not None:
                        self._fail(stage, i, *failure)
                    merged.merge(runtime)
                    self._trace_merged(i, merged)
            self._passed(stage, len(order))
            return merged

    def _trace_merged(self, index: int, merged: TracingRuntime) -> None:
        """Ledger record of one instrumented run folding in (§4.2)."""
        if obs.ledger() is not None:
            obs.event("trace.merged", input=index,
                      stack_vars=len(merged.stack_vars),
                      arg_accesses=len(merged.arg_accesses),
                      links=len(merged.links))

    def _bounds_parallel(self, module, order):
        """Per-input ``(failure, snapshot)`` from the pool, or ``None``
        when the pool is unavailable or broke (the caller then runs
        serially, which computes the same results)."""
        try:
            pool = self._acquire(module, len(order))
        except Exception:
            return None
        outcomes: dict[int, tuple] = {}
        try:
            futures = [pool.submit(_bounds_worker, i) for i in order]
            for future in as_completed(futures):
                index, failure, snapshot, payload = future.result()
                obs.merge_payload(payload)
                obs.count("replay.runs")
                outcomes[index] = (failure, snapshot)
        except (BrokenProcessPool, PicklingError):
            # Only pool-transport failures fall back: the workers catch
            # interpreter errors into their verdicts.
            self.pool.invalidate()
            return None
        return outcomes

    # -- pool ----------------------------------------------------------------

    def _acquire(self, module: Module, ntasks: int):
        """An executor whose workers inherit the module's current state.

        Keyed on the module's content fingerprint (plus the obs
        activation state, which workers latch at fork): consecutive
        sweeps over unchanged content share one set of forked workers;
        a content change — or any sweep in baseline mode — respawns.
        """
        if self.baseline:
            self._unkeyed += 1
            key = ("replay-unkeyed", self._unkeyed)
        else:
            key = ("replay", module_fingerprint(module), obs.enabled())
        ctx = (module, self.traces.inputs, self.traces.results,
               obs.enabled())
        return self.pool.acquire(key, ctx, ntasks)
