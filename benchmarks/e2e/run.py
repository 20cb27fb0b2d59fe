"""End-to-end recompile benchmark on the paper workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--trace 0|1]

With ``--workload`` the run measures one workload in this process: it
sets up (imports, MiniC compiles, input generation), then forks one child
per (cell, round), one at a time, each making one cold call to the
public pipeline API (``wytiwyg_recompile``, or ``incremental_recompile``
for ``campaign-add``).  The workload fixes its number of timed rounds
(``cells.WORKLOAD_SPECS``).  One traced round follows, whose wrappers
break each call down by layer (``layers.py``; spans go to
``out/<workload>.spans.json``).  One more child then runs the original
and the recompiled binaries on the traced and the held-out inputs.

Every metric is printed with its unit, the results go to
``out/<workload>.json``, and the last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
per-layer metrics BENCHMARK.json declares, or with ``--trace 0`` its
end-to-end metrics.  A ``--trace 0`` run skips the traced round, whose
numbers it does not report, so that the many runs that compare
end-to-end metrics across seeds and commits take a fifth less time.
``--seconds`` is accepted for harnesses that pass a run length; the
rounds fix a run's work.

Without ``--workload`` every workload runs in its own interpreter, one
after another, and ``out/results.json`` collects them.
"""

from __future__ import annotations

import speed  # first: set-up is timed from here on

SETUP_SPEED = speed.Sampler()
if __name__ == "__main__":
    SETUP_SPEED.start()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

# Drop every REPRO_* switch before repro is imported (repro.obs reads
# REPRO_OBS at import time), so the benchmark always measures defaults.
STRIPPED = {name: os.environ.pop(name) for name in sorted(os.environ)
            if name.startswith("REPRO_")}
if not (ROOT / "src" / "repro").is_dir():
    if SETUP_SPEED.started is not None:
        SETUP_SPEED.stop()  # else its timer's signal ends the exit
    sys.exit(f"run.py: no repro sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import cells as workloads  # noqa: E402
import layers  # noqa: E402
from repro import obs  # noqa: E402
from repro.binary.image import BinaryImage  # noqa: E402
from repro.core.driver import wytiwyg_recompile  # noqa: E402
from repro.core.incremental import incremental_recompile  # noqa: E402
from repro.emu.machine import run_binary  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.opt.manager import clear_memo  # noqa: E402
from repro.recompile.lower import LowerOptions, clear_lower_cache  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402

#: Per-child limit; a cell past it is killed and counts as failed.
CELL_TIMEOUT_S = 60.0
#: The whole run stays under this, whatever the children do.
RUN_DEADLINE_S = 170.0
#: Set-up is timed this many times (this process, then fresh ones), and
#: the median is reported.
SETUP_SAMPLES = 3
#: A held-out run of a recompiled binary may take this many times the
#: original's instructions before it counts as hung.
HELDOUT_BUDGET = 20


def declared(kind: str) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; a run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# -- set-up -------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Compile the images and build the inputs; no tracing, no runs."""
    cells = workloads.build_cells(workload, seed)
    images = [WORKLOADS[c.program].compile(c.compiler, c.opt) for c in cells]
    # Compiling runs the optimizer and the lowerer, whose in-process
    # memos would make every forked call warm; a one-shot
    # ``repro recompile`` starts without them.
    clear_memo()
    clear_lower_cache()
    return cells, images


def time_setup(args, deadline: float) -> float | None:
    """Set-up time of a fresh interpreter running this script, or None
    when it fails or would pass the run's deadline."""
    timeout = min(CELL_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        return None
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=timeout, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    except (subprocess.SubprocessError, ValueError, IndexError, KeyError):
        return None


# -- children -----------------------------------------------------------------

def _child_main(send, fn, args) -> None:
    try:
        out = fn(*args)
    except Exception as exc:
        out = {"error": f"{type(exc).__name__}: {exc}"}
    send.send(out)
    send.close()


def in_child(fn, *args, deadline: float) -> dict:
    """Run ``fn(*args)`` in a child forked from this process and return
    its dict.  A raise, a crash or a timeout comes back as
    ``{"error": ...}``; the child is always reaped before returning."""
    timeout = min(CELL_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        return {"error": "run deadline reached"}
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main, args=(send, fn, args))
    proc.start()
    send.close()
    try:
        if not recv.poll(timeout):
            proc.kill()
            return {"error": f"timed out after {timeout:.0f} s"}
        try:
            return recv.recv()
        except EOFError:
            proc.join()
            return {"error": f"child died with exit code {proc.exitcode}"}
    finally:
        proc.join()
        recv.close()


def _digest(image: BinaryImage) -> str:
    return hashlib.sha256(image.to_json().encode()).hexdigest()


def _accuracy(report) -> dict | None:
    if report is None:
        return None
    return {"matched": report.counts["matched"],
            "objects": report.total_objects,
            "recovered": report.total_recovered}


def _recompile(cell, image, store):
    """The call a user waits for: (pipeline result, served request)."""
    if cell.base:
        served = incremental_recompile(image, cell.runs, store, jobs=1,
                                       opt_jobs=1)
        return served.pipeline, served
    return wytiwyg_recompile(image, cell.runs, jobs=1, opt_jobs=1), None


def timed_call(cell, image, traced: bool) -> dict:
    """One cold recompile of ``cell`` (child side).

    An untraced call runs under the speed sampler and reports rescaled
    ``seconds``; a traced one runs under the layer wrappers and the
    program's recorder and reports wall seconds.
    """
    store_dir = store = None
    try:
        if cell.base:
            store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT)
            store = ArtifactStore(store_dir)
            incremental_recompile(image, cell.runs[:cell.base], store,
                                  jobs=1, opt_jobs=1)
        if traced:
            log = layers.SpanLog(cell.name)
            absent = layers.install(log)
            obs.enable(reset=True)
            start = time.perf_counter()
            result, served = _recompile(cell, image, store)
            seconds = wall_s = time.perf_counter() - start
        else:
            sampler = speed.Sampler().start()
            try:
                result, served = _recompile(cell, image, store)
            finally:
                seconds = sampler.stop()
            wall_s = sampler.wall_s
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
    out = {
        "seconds": seconds,
        "wall_s": wall_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "fallback": result.fallback,
        "image": result.recovered.to_json(),
        "digest": _digest(result.recovered),
        "text_bytes": len(result.recovered.text.data),
        "accuracy": _accuracy(result.accuracy),
    }
    if served is not None:
        stats = served.stats
        new = len(cell.runs) - cell.base
        if stats.served != "incremental" or stats.traces_recorded != new:
            out["problem"] = (f"served {stats.served!r} recording "
                              f"{stats.traces_recorded} traces, expected "
                              f"'incremental' recording {new}")
    if traced:
        rec = obs.recorder()
        row = layers.breakdown(log.spans, wall_s, rec.registry.counters)
        row["inputs"] = len(cell.runs)
        row["traced_instructions"] = sum(
            r.instructions for r in result.traces.results)
        stats = served.stats if served else None
        row["incremental.traces_reused"] = stats.traces_reused if stats else 0
        row["incremental.traces_recorded"] = (stats.traces_recorded
                                              if stats else 0)
        out["layers"] = row
        out["absent"] = absent
        out["spans"] = [{**s, "start": s["start"] - start,
                         "end": s["end"] - start} for s in log.spans]
        out["cross_check"] = layers.cross_check(
            log.spans, layers.program_stages(rec))
        obs.disable()
    return out


def classify_heldout(original, recompiled, trap_code: int) -> str:
    """``same`` (matches the original), ``trap`` (stopped at the
    untraced-path trap after a prefix of the original's output) or
    ``silent`` (any other divergence).  ``recompiled`` is None when the
    recompiled binary faulted or hung."""
    if recompiled is not None and recompiled.matches(original):
        return "same"
    if recompiled is not None and recompiled.exit_code == trap_code \
            and original.stdout.startswith(recompiled.stdout):
        return "trap"
    return "silent"


def _check_cell(cell, image, ref, trap_code: int) -> dict:
    rec = BinaryImage.from_json(ref["image"])
    row = {"ok": True, "orig_cycles": 0, "rec_cycles": 0, "heldout": []}
    for items in cell.runs:
        want = run_binary(image, items)
        try:
            got = run_binary(rec, items)
        except ReproError as exc:
            got, row["why"] = None, f"{type(exc).__name__}: {exc}"
        if got is None or not got.matches(want):
            row["ok"] = False
            row.setdefault("why", f"traced run {items!r} diverged")
            break
        row["orig_cycles"] += want.cycles
        row["rec_cycles"] += got.cycles
    for items in cell.heldout:
        want = run_binary(image, items)
        budget = HELDOUT_BUDGET * want.instructions + 1_000_000
        try:
            got = run_binary(rec, items, max_instructions=budget)
        except ReproError:
            got = None
        row["heldout"].append(classify_heldout(want, got, trap_code))
    if cell.base and row["ok"]:
        cold = wytiwyg_recompile(image, cell.runs, jobs=1, opt_jobs=1)
        if _digest(cold.recovered) != ref["digest"]:
            row["ok"] = False
            row["why"] = "image differs from a cold one-shot recompile"
    return row


def check_outputs(cells, images, refs) -> dict:
    """Run the originals and the recompiled images (child side): the
    traced runs must match, and each held-out run is classified.  A
    ``campaign-add`` image must also equal a cold one-shot recompile of
    the same runs, byte for byte."""
    trap_code = LowerOptions().trap_code
    rows = []
    for cell, image, ref in zip(cells, images, refs, strict=True):
        if ref is None:
            rows.append({"ok": False, "why": "no recompiled image"})
            continue
        try:
            rows.append(_check_cell(cell, image, ref, trap_code))
        except Exception as exc:
            # One cell's fault fails that cell, not the others.
            rows.append({"ok": False,
                         "why": f"check raised {type(exc).__name__}: {exc}"})
    return {"rows": rows}


# -- measuring ----------------------------------------------------------------

def measure(cells, images, traced: bool, deadline: float) -> list[dict]:
    """One round: each cell's call in its own forked child, in turn."""
    return [in_child(timed_call, cell, image, traced, deadline=deadline)
            for cell, image in zip(cells, images, strict=True)]


def _geomean(values: list[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cell_medians(timed, ncells: int, key: str) -> list[float | None]:
    """Each cell's median ``key`` over the timed rounds."""
    out = []
    for i in range(ncells):
        values = [calls[i][key] for calls in timed if key in calls[i]]
        out.append(statistics.median(values) if values else None)
    return out


def end_to_end(cells, timed, refs, checks, failed, attempted,
               setup_samples):
    per_round = [sum(c.get("seconds", 0.0) for c in calls) for calls in timed]
    rss = [max(c.get("maxrss_mb", 0.0) for c in calls) for calls in timed]
    q1, _, q3 = statistics.quantiles(per_round, n=4)
    # Per-cell medians first: a burst of noise then spoils one cell of
    # one round, not the round.
    med = sum(s for s in cell_medians(timed, len(cells), "seconds") if s)
    heldout = [label for row in checks for label in row.get("heldout", [])]
    acc = [c["accuracy"] for c in refs if c and c.get("accuracy")]
    matched = sum(a["matched"] for a in acc)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "recompile_s": med,
        "peak_rss_mb": statistics.median(rss),
        "pass_frac": 1 - failed / attempted,
        "heldout_safe_frac": (sum(label != "silent" for label in heldout)
                              / len(heldout) if heldout else 0.0),
        "cycles_ratio": _geomean([row["rec_cycles"] / row["orig_cycles"]
                                  for row in checks
                                  if row.get("orig_cycles")]),
        "text_bytes": sum(c["text_bytes"] for c in refs if c),
        "layout_precision": matched / max(
            sum(a["recovered"] for a in acc), 1),
        "layout_recall": matched / max(sum(a["objects"] for a in acc), 1),
    }
    spread = {"n": len(per_round), "q1": q1, "median": med, "q3": q3,
              "rounds": per_round,
              "wall_s": sum(s for s in cell_medians(timed, len(cells),
                                                    "wall_s") if s)}
    return metrics, spread


def reference_call(rounds, index: int) -> dict | None:
    """The first successful call of cell ``index``: its image is the
    one checked, and every other call must produce the same bytes."""
    for calls in rounds:
        if "error" not in calls[index]:
            return calls[index]
    return None


def call_failure(cell, call, ref, check) -> str | None:
    """Why one call failed, or None when it passed every check."""
    if "error" in call:
        return call["error"]
    if call["fallback"]:
        return "fell back to the unsymbolized pipeline"
    if "problem" in call:
        return call["problem"]
    if call["digest"] != ref["digest"]:
        return "image differs from the cell's other calls"
    if not check["ok"]:
        return check.get("why", "check failed")
    return None


def per_layer(traced, untraced_s: float) -> tuple[dict, dict]:
    """The traced round's pooled per-layer numbers and its cross-check
    of the wrappers against the program's stage spans."""
    rows = [c["layers"] for c in traced if "layers" in c]
    cross: dict = {}
    for call in traced:
        for stage, v in call.get("cross_check", {}).items():
            acc = cross.setdefault(stage, {"program_s": 0.0,
                                           "wrapped_s": 0.0})
            acc["program_s"] += v["program_s"]
            acc["wrapped_s"] += v["wrapped_s"]
    return (layers.summarize(rows, untraced_s) if rows else {}), cross


def self_time_gaps(cells, traced) -> list[str]:
    """Cells whose layer self times plus ``other.s`` miss the cell time."""
    bad = []
    for cell, call in zip(cells, traced, strict=True):
        row = call.get("layers")
        if row and (abs(row["unattributed_s"]) > 1e-6 * row["cell_s"]
                    or row["other.s"] < 0):
            bad.append(f"{cell.name}: self times plus other.s miss "
                       f"the cell time by {row['unattributed_s']:.6f} s")
    return bad


def header() -> dict:
    """What the numbers were measured on."""
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            revision = rev.stdout.strip() or revision
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"revision": revision, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "stripped_env": STRIPPED}


def run_workload(args) -> int:
    cells, images = setup(args.workload, args.seed)
    setup_samples = [SETUP_SPEED.stop()]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_samples[0]}))
        return 0
    OUT.mkdir(exist_ok=True)
    deadline = SETUP_SPEED.started + RUN_DEADLINE_S
    # Wall seconds of each phase of the run, against the time budget.
    phases = {"setup": time.perf_counter() - SETUP_SPEED.started}
    clock = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name], clock = now - clock, now

    _make, rounds = workloads.WORKLOAD_SPECS[args.workload]
    timed = [measure(cells, images, False, deadline) for _ in range(rounds)]
    lap("timed")
    traced = measure(cells, images, True, deadline) if args.trace else None
    lap("traced")
    every_round = timed + ([traced] if traced else [])

    refs = [reference_call(every_round, i) for i in range(len(cells))]
    got = in_child(check_outputs, cells, images, refs, deadline=deadline)
    checks = got.get("rows") or [{"ok": False, "why": got["error"]}
                                 for _ in cells]
    lap("check")
    for _ in range(SETUP_SAMPLES - 1):
        sample = time_setup(args, deadline)
        if sample is not None:
            setup_samples.append(sample)
    lap("setup_samples")

    failures = []
    attempted = 0
    for calls in every_round:
        for cell, call, ref, check in zip(cells, calls, refs, checks,
                                          strict=True):
            attempted += 1
            why = call_failure(cell, call, ref, check)
            if why:
                traced_tag = " (traced)" if calls is traced else ""
                failures.append(f"{cell.name}{traced_tag}: {why}")
    metrics, spread = end_to_end(cells, timed, refs, checks, len(failures),
                                 attempted, setup_samples)
    layer_metrics, cross, mismatches, absent = {}, {}, [], []
    if traced:
        layer_metrics, cross = per_layer(traced, spread["wall_s"])
        mismatches = [
            f"{stage}: wrappers cover {v['wrapped_s']:.3f} s of "
            f"{v['program_s']:.3f} s"
            for stage, v in cross.items()
            if abs(v["wrapped_s"] - v["program_s"])
            > layers.CROSS_CHECK_TOLERANCE * v["program_s"]]
        mismatches += self_time_gaps(cells, traced)
        absent = sorted({layer for call in traced
                         for layer in call.get("absent") or ()})

    report(args, cells, timed, traced, refs, checks, metrics, spread,
           layer_metrics, cross, mismatches, absent, failures, setup_samples,
           phases)
    units = declared("per_layer" if args.trace else "end_to_end")
    values = layer_metrics if args.trace else metrics
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name] if values else 0.0,
                           "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def report(args, cells, timed, traced, refs, checks, metrics, spread,
           layer_metrics, cross, mismatches, absent, failures,
           setup_samples, phases) -> None:
    """Print every metric with its unit and write the results files."""
    rows = []
    medians = cell_medians(timed, len(cells), "seconds")
    walls = cell_medians(timed, len(cells), "wall_s")
    for i, cell in enumerate(cells):
        check = checks[i]
        acc = (refs[i] or {}).get("accuracy") or {}
        rows.append({
            "cell": cell.name, "runs": len(cell.runs),
            "median_s": medians[i], "median_wall_s": walls[i],
            "cycles_ratio": (check["rec_cycles"] / check["orig_cycles"]
                             if check.get("orig_cycles") else None),
            "precision": (acc["matched"] / acc["recovered"]
                          if acc.get("recovered") else None),
            "recall": (acc["matched"] / acc["objects"]
                       if acc.get("objects") else None),
            "heldout": check.get("heldout", []),
        })
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {spread['n']}  traced {int(bool(traced))}")
    for row in rows:
        med = "-" if row["median_s"] is None else f"{row['median_s']:.3f}"
        print(f"  {row['cell']:<24} {med:>8} s  heldout "
              f"{','.join(row['heldout']) or '-'}")
    for name, unit in declared("end_to_end").items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    print(f"  recompile_s n={spread['n']} q1={spread['q1']:.4f} "
          f"q3={spread['q3']:.4f}  wall {spread['wall_s']:.4f} s")
    if layer_metrics:
        for name, unit in declared("per_layer").items():
            print(f"  {name:<28} {layer_metrics[name]:>14.6g} {unit}")
    for line in mismatches:
        print(f"  cross-check mismatch: {line}")
    for layer in absent:
        print(f"  absent layer: {layer}")
    for line in failures:
        print(f"  FAILED {line}")
    doc = {
        "header": header(), "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "phases_s": phases,
        "setup_samples": setup_samples, "cells": rows,
        "end_to_end": metrics, "recompile_s": spread,
        "per_layer": layer_metrics, "cross_check": cross,
        "mismatches": mismatches, "absent_layers": absent,
        "failures": failures,
    }
    (OUT / f"{args.workload}.json").write_text(json.dumps(doc, indent=1))
    if traced:
        spans = [s for c in traced for s in c.get("spans", [])]
        (OUT / f"{args.workload}.spans.json").write_text(json.dumps(spans))


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    OUT.mkdir(exist_ok=True)
    docs, ok = {}, True
    for name in workloads.WORKLOAD_SPECS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
            continue
        docs[name] = json.loads((OUT / f"{name}.json").read_text())
        ok = ok and json.loads(
            proc.stdout.strip().splitlines()[-1])["correct"]
    (OUT / "results.json").write_text(json.dumps(docs, indent=1))
    print(f"wrote {OUT / 'results.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOAD_SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: the timed rounds and a traced round, "
                             "ending with the per-layer metrics; 0: the "
                             "timed rounds only, ending with the "
                             "end-to-end metrics")
    parser.add_argument("--seconds", type=float,
                        help="accepted and ignored: the workload's rounds "
                             "fix a run's work")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    args = parser.parse_args(argv)
    if args.workload is None:
        SETUP_SPEED.stop()  # this process only waits for the workloads
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
