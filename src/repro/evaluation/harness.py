"""Measurement harness shared by every experiment.

One *cell* = (workload, input-binary configuration).  For each cell the
harness produces the runtimes of:

* the input binary itself (``native``);
* the BinRec recompilation, no symbolization (``binrec``);
* the WYTIWYG recompilation (``wytiwyg``), plus layout accuracy;
* the SecondWrite static recompilation (``secondwrite``), which may fail.

Runtimes are cycle counts under the shared cost model, summed over the
workload's ref inputs — the relative quantities Table 1 and Figure 6
report.  Each image runs once per input: one run gives both its cycles
and the output compared against the native run's.  Nothing is cached:
every table is built from the cells of one :func:`sweep`.

Cells are independent, so :func:`sweep` fans them out over a process
pool (``jobs=N``); within a cell every pipeline runs serially.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from .. import obs
from ..baselines.binrec import binrec_recompile
from ..baselines.secondwrite import SecondWriteError, \
    secondwrite_recompile
from ..core.driver import wytiwyg_recompile
from ..emu.machine import run_binary
from ..errors import ReproError
from ..workloads import WORKLOADS, Workload

#: The input-binary configurations of Table 1, in column order.
CONFIGS = (
    ("gcc12", "3"),
    ("gcc12", "0"),
    ("clang16", "3"),
    ("gcc44", "3"),
)

#: A reduced sweep for quick runs (tests, smoke benchmarks).
QUICK_WORKLOADS = ("gcc", "mcf", "hmmer", "xalancbmk")


@dataclass
class CellResult:
    """All measurements for one (workload, config) cell."""

    workload: str
    compiler: str
    opt_level: str
    native_cycles: int = 0
    binrec_cycles: int | None = None
    binrec_match: bool = False
    wytiwyg_cycles: int | None = None
    wytiwyg_match: bool = False
    wytiwyg_fallback: bool = False
    secondwrite_cycles: int | None = None
    secondwrite_match: bool = False
    secondwrite_error: str = ""
    accuracy_counts: dict = field(default_factory=dict)
    accuracy_recovered: int = 0

    @property
    def binrec_ratio(self) -> float | None:
        if self.binrec_cycles is None or not self.native_cycles:
            return None
        return self.binrec_cycles / self.native_cycles

    @property
    def wytiwyg_ratio(self) -> float | None:
        if self.wytiwyg_cycles is None or not self.native_cycles:
            return None
        return self.wytiwyg_cycles / self.native_cycles

    @property
    def secondwrite_ratio(self) -> float | None:
        if self.secondwrite_cycles is None or not self.native_cycles:
            return None
        return self.secondwrite_cycles / self.native_cycles


#: Emulated-instruction budget of every run the harness makes.
_BUDGET = 60_000_000


def workloads_of(cells) -> tuple[str, ...]:
    """The workload names of a sweep's cells, in sweep order."""
    return tuple(dict.fromkeys(name for name, _, _ in cells))


def _run_against(image, inputs, native) -> tuple[int, bool]:
    """Run ``image`` once per input: its total cycles, and whether every
    run's stdout and exit code equal those of the ``native`` run of the
    same input."""
    runs = [run_binary(image, items, max_instructions=_BUDGET)
            for items in inputs]
    return (sum(run.cycles for run in runs),
            all(run.stdout == ref.stdout and run.exit_code == ref.exit_code
                for run, ref in zip(runs, native, strict=True)))


def measure_cell(workload: Workload, compiler: str,
                 opt_level: str) -> CellResult:
    """Measure one Table-1 cell.

    With observability enabled, the cell runs inside an ``eval.cell``
    span and its wall time lands in the ``eval.cell_seconds`` timer.
    """
    with obs.span("eval.cell", workload=workload.name,
                  compiler=compiler, opt_level=opt_level), \
            obs.timed("eval.cell_seconds"):
        return _measure_cell(workload, compiler, opt_level)


def _measure_cell(workload: Workload, compiler: str,
                  opt_level: str) -> CellResult:
    image = workload.compile(compiler, opt_level)
    inputs = workload.inputs()
    result = CellResult(workload.name, compiler, opt_level)
    native = [run_binary(image, items, max_instructions=_BUDGET)
              for items in inputs]
    result.native_cycles = sum(run.cycles for run in native)
    stripped = image.stripped()

    # BinRec: lifted, optimized, not symbolized.
    binrec = binrec_recompile(stripped, inputs)
    result.binrec_cycles, result.binrec_match = _run_against(
        binrec, inputs, native)

    # WYTIWYG: full refinement lifting (ground truth read only by the
    # accuracy evaluation, never by the pipeline).
    wyt = wytiwyg_recompile(image, inputs)
    result.wytiwyg_cycles, result.wytiwyg_match = _run_against(
        wyt.recovered, inputs, native)
    result.wytiwyg_fallback = wyt.fallback
    if wyt.accuracy is not None:
        result.accuracy_counts = dict(wyt.accuracy.counts)
        result.accuracy_recovered = wyt.accuracy.total_recovered

    try:
        sw = secondwrite_recompile(stripped)
        result.secondwrite_cycles, result.secondwrite_match = \
            _run_against(sw.recovered, inputs, native)
    except (SecondWriteError, ReproError) as exc:
        result.secondwrite_error = str(exc)
    except Exception as exc:  # recompiled binary misbehaved
        result.secondwrite_error = f"{type(exc).__name__}: {exc}"
    return result


def _measure_cell_task(task):
    """Worker entry point for the parallel sweep (picklable by name).

    When the parent sweeps with observability on, the worker activates
    its own recorder and ships the serialized registry (and span trees)
    back alongside the result so the parent can merge them.
    """
    name, compiler, opt_level, observe = task
    if observe:
        # Reset per task: pool workers are reused, and a forked worker
        # also inherits the parent's pre-fork data — either would be
        # double-counted when the parent merges this task's payload.
        obs.enable(reset=True)
    obs.fork_begin()
    result = measure_cell(WORKLOADS[name], compiler, opt_level)
    payload = obs.export_payload() if observe else None
    return result, payload


def sweep(workload_names: tuple[str, ...] | None = None,
          configs=CONFIGS, progress=None, jobs: int = 1
          ) -> dict[tuple[str, str, str], CellResult]:
    """Measure a grid of cells; returns {(workload, compiler, opt): ...}
    in task order: workloads outermost, then ``configs``.

    With ``jobs > 1`` cells are fanned out over a process pool — every
    cell is independent, so workers never conflict.  ``progress`` then
    reports cells as they *complete* rather than as they start.  When
    observability is active in the parent, each worker records with its
    own registry and the parent merges every worker's metrics and spans
    on completion, so ``obs.export`` aggregates the whole sweep.
    """
    names = workload_names or tuple(WORKLOADS)
    tasks = [(name, compiler, opt_level)
             for name in names for compiler, opt_level in configs]
    out: dict[tuple[str, str, str], CellResult] = {}
    if jobs > 1 and len(tasks) > 1:
        observe = obs.enabled()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_measure_cell_task, (*task, observe)):
                       task for task in tasks}
            for future in as_completed(futures):
                result, payload = future.result()
                obs.merge_payload(payload)
                key = futures[future]
                if progress is not None:
                    progress(*key)
                out[key] = result
        return {key: out[key] for key in tasks}
    for name, compiler, opt_level in tasks:
        if progress is not None:
            progress(name, compiler, opt_level)
        out[(name, compiler, opt_level)] = measure_cell(
            WORKLOADS[name], compiler, opt_level)
    return out


def geomean(values) -> float:
    values = [v for v in values if v]
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
