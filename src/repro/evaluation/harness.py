"""Measurement harness shared by every experiment.

One *cell* = (workload, input-binary configuration).  For each cell the
harness produces the runtimes of:

* the input binary itself (``native``);
* the BinRec recompilation, no symbolization (``binrec``);
* the WYTIWYG recompilation (``wytiwyg``), plus layout accuracy;
* the SecondWrite static recompilation (``secondwrite``), which may fail.

Runtimes are cycle counts under the shared cost model, summed over the
workload's ref inputs — the relative quantities Table 1 and Figure 6
report.  Each cell's results are cached as one JSON file under
:func:`cache_dir` (``$REPRO_EVAL_CACHE``, ``.eval_cache`` when unset),
keyed on the workload's source and ref inputs and the configuration.
The key does not cover the code: delete the directory (or pass
``--fresh`` to ``examples/run_paper_eval.py``) after a code change.

Cells are independent, so :func:`sweep` fans them out over a process
pool (``jobs=N``); within a cell every pipeline runs serially.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path

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


def cache_dir() -> Path:
    """The cell cache's root directory, created if missing."""
    root = os.environ.get("REPRO_EVAL_CACHE", ".eval_cache")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cell_key(workload: Workload, compiler: str, opt_level: str) -> str:
    h = hashlib.sha256()
    h.update(workload.source.encode())
    h.update(repr(workload.ref_inputs).encode())
    h.update(f"{compiler}-{opt_level}".encode())
    return f"{workload.name}-{compiler}-O{opt_level}-{h.hexdigest()[:12]}"


def _total_cycles(image, inputs, budget: int = 60_000_000) -> int:
    return sum(run_binary(image, items, max_instructions=budget).cycles
               for items in inputs)


def _outputs_match(image_a, image_b, inputs,
                   budget: int = 60_000_000) -> bool:
    for items in inputs:
        a = run_binary(image_a, items, max_instructions=budget)
        b = run_binary(image_b, items, max_instructions=budget)
        if a.stdout != b.stdout or a.exit_code != b.exit_code:
            return False
    return True


def measure_cell(workload: Workload, compiler: str, opt_level: str,
                 use_cache: bool = True,
                 include_secondwrite: bool = True) -> CellResult:
    """Measure one Table-1 cell (cached as one JSON file per cell).

    With observability enabled, the cell runs inside an ``eval.cell``
    span, its wall time lands in the ``eval.cell_seconds`` timer, and
    the per-cell JSON cache reports ``eval.cell_cache.hit``/``.miss``.
    """
    with obs.span("eval.cell", workload=workload.name,
                  compiler=compiler, opt_level=opt_level) as cell_span, \
            obs.timed("eval.cell_seconds"):
        result = _measure_cell(workload, compiler, opt_level, use_cache,
                               include_secondwrite, cell_span)
    return result


def _measure_cell(workload: Workload, compiler: str, opt_level: str,
                  use_cache: bool, include_secondwrite: bool,
                  cell_span) -> CellResult:
    cache_file = cache_dir() / (_cell_key(workload, compiler,
                                          opt_level) + ".json")
    if use_cache:
        if cache_file.exists():
            doc = json.loads(cache_file.read_text())
            obs.count("eval.cell_cache.hit")
            cell_span.set(cached=True)
            return CellResult(**doc)
        obs.count("eval.cell_cache.miss")

    image = workload.compile(compiler, opt_level)
    inputs = workload.inputs()
    result = CellResult(workload.name, compiler, opt_level)
    result.native_cycles = _total_cycles(image, inputs)
    stripped = image.stripped()

    # BinRec: lifted, optimized, not symbolized.
    binrec = binrec_recompile(stripped, inputs)
    result.binrec_cycles = _total_cycles(binrec, inputs)
    result.binrec_match = _outputs_match(image, binrec, inputs)

    # WYTIWYG: full refinement lifting (ground truth read only by the
    # accuracy evaluation, never by the pipeline).
    wyt = wytiwyg_recompile(image, inputs)
    result.wytiwyg_cycles = _total_cycles(wyt.recovered, inputs)
    result.wytiwyg_match = _outputs_match(image, wyt.recovered, inputs)
    result.wytiwyg_fallback = wyt.fallback
    if wyt.accuracy is not None:
        result.accuracy_counts = dict(wyt.accuracy.counts)
        result.accuracy_recovered = wyt.accuracy.total_recovered

    if include_secondwrite:
        try:
            sw = secondwrite_recompile(stripped)
            result.secondwrite_cycles = _total_cycles(sw.recovered,
                                                      inputs)
            result.secondwrite_match = _outputs_match(
                image, sw.recovered, inputs)
        except (SecondWriteError, ReproError) as exc:
            result.secondwrite_error = str(exc)
        except Exception as exc:  # recompiled binary misbehaved
            result.secondwrite_error = f"{type(exc).__name__}: {exc}"

    if use_cache:
        tmp = cache_file.with_name(f".{cache_file.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(asdict(result)))
        tmp.replace(cache_file)  # atomic: parallel workers share the dir
    return result


def _measure_cell_task(task):
    """Worker entry point for the parallel sweep (picklable by name).

    When the parent sweeps with observability on, the worker activates
    its own recorder and ships the serialized registry (and span trees)
    back alongside the result so the parent can merge them.
    """
    name, compiler, opt_level, use_cache, include_secondwrite, \
        observe = task
    if observe:
        # Reset per task: pool workers are reused, and a forked worker
        # also inherits the parent's pre-fork data — either would be
        # double-counted when the parent merges this task's payload.
        obs.enable(reset=True)
    obs.fork_begin()
    result = measure_cell(WORKLOADS[name], compiler, opt_level,
                          use_cache, include_secondwrite)
    payload = obs.export_payload() if observe else None
    return (name, compiler, opt_level), result, payload


def sweep(workload_names: tuple[str, ...] | None = None,
          configs=CONFIGS, use_cache: bool = True,
          include_secondwrite: bool = True,
          progress=None,
          jobs: int = 1
          ) -> dict[tuple[str, str, str], CellResult]:
    """Measure a grid of cells; returns {(workload, compiler, opt): ...}.

    With ``jobs > 1`` cells are fanned out over a process pool — every
    cell is independent, and the cell cache uses atomic writes, so
    workers never conflict.  ``progress`` then reports cells as they
    *complete* rather than as they start.  When observability is active
    in the parent, each worker records with its own registry and the
    parent merges every worker's metrics and spans on completion, so
    ``obs.export`` aggregates the whole sweep.
    """
    names = workload_names or tuple(WORKLOADS)
    tasks = [(name, compiler, opt_level)
             for name in names for compiler, opt_level in configs]
    out: dict[tuple[str, str, str], CellResult] = {}
    if jobs > 1 and len(tasks) > 1:
        observe = obs.enabled()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_measure_cell_task,
                            (*task, use_cache, include_secondwrite,
                             observe))
                for task in tasks]
            for future in as_completed(futures):
                key, result, payload = future.result()
                obs.merge_payload(payload)
                if progress is not None:
                    progress(*key)
                out[key] = result
        return out
    for name, compiler, opt_level in tasks:
        if progress is not None:
            progress(name, compiler, opt_level)
        out[(name, compiler, opt_level)] = measure_cell(
            WORKLOADS[name], compiler, opt_level, use_cache,
            include_secondwrite)
    return out


def geomean(values) -> float:
    values = [v for v in values if v]
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
