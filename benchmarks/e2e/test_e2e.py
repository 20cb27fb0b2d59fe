"""Checks on the end-to-end benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import argparse
import json
import subprocess
import sys
import time

import cells
import layers
import run
import speed
from repro.emu.machine import RunResult
from repro.workloads import WORKLOADS


def _deadline() -> float:
    return time.perf_counter() + run.CELL_TIMEOUT_S


def _short_cell(program: str):
    cell = next(c for c in cells.build_cells("short-trace", 1)
                if c.program == program)
    return cell, WORKLOADS[program].compile(cell.compiler, cell.opt)


def test_output_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] \
        == list(cells.WORKLOAD_SPECS)
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload",
         "many-inputs", "--seed", "3", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0
    assert {name: m["unit"] for name, m in doc["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(m["unit"] for m in spec["end_to_end"] + spec["per_layer"])
    # The end-to-end metrics, which end a --trace 0 run, are all computed.
    results = json.loads((run.OUT / "many-inputs.json").read_text())
    assert set(results["end_to_end"]) \
        == {m["name"] for m in spec["end_to_end"]}


def test_heldout_classifier():
    original = RunResult(0, b"a\nb\nc\n", 100, 50)
    same = RunResult(0, b"a\nb\nc\n", 90, 45)
    trap = RunResult(199, b"a\n", 30, 12)
    silent = RunResult(0, b"a\nx\n", 80, 40)
    wrong_prefix = RunResult(199, b"x\n", 30, 12)
    assert run.classify_heldout(original, same, 199) == "same"
    assert run.classify_heldout(original, trap, 199) == "trap"
    assert run.classify_heldout(original, silent, 199) == "silent"
    assert run.classify_heldout(original, wrong_prefix, 199) == "silent"
    assert run.classify_heldout(original, None, 199) == "silent"


def test_cell_without_traced_runs_fails_without_raising():
    cell, image = _short_cell("sjeng")
    cell.runs = []
    call, = run.measure([cell], [image], False, _deadline())
    assert "CheckError" in call["error"]
    why = run.call_failure(cell, call, None, {"ok": False})
    assert "CheckError" in why


def test_a_check_that_raises_fails_only_its_cell():
    cell, image = _short_cell("sjeng")
    call, = run.measure([cell], [image], False, _deadline())
    broken = {**call, "image": "not an image"}
    got = run.in_child(run.check_outputs, [cell, cell], [image, image],
                       [call, broken], deadline=_deadline())
    good, bad = got["rows"]
    assert good["ok"] and good["heldout"]
    assert not bad["ok"] and "check raised" in bad["why"]


def test_failed_setup_sample_is_dropped():
    args = argparse.Namespace(workload="no-such-workload", seed=1)
    assert run.time_setup(args, _deadline()) is None
    assert run.time_setup(args, time.perf_counter()) is None


def _install_without(attr: str) -> dict:
    import repro.core.driver as driver
    delattr(driver, attr)
    return {"absent": layers.install(layers.SpanLog())}


def test_missing_wrapped_name_is_an_absent_layer():
    # In a child: install() wraps the real modules and never restores.
    got = run.in_child(_install_without, "recover_vararg_calls",
                       deadline=_deadline())
    assert got["absent"] == ["core.varargs"]
    ghost = (("repro.core.driver", "no_such_call", "ghost", "x.s"),
             ("repro.no_such_module", "f", "ghost2", "y.s"))
    assert layers.install(layers.SpanLog(), ghost) == ["ghost", "ghost2"]


def test_counters_repeat_across_traced_runs():
    cell, image = _short_cell("h264ref")
    first, second = (run.in_child(run.timed_call, cell, image, True,
                                  deadline=_deadline())
                     for _ in range(2))
    for name in ("ir.steps", "emu.instructions", "replay.runs"):
        assert first["layers"][name] == second["layers"][name] > 0
    assert first["digest"] == second["digest"]


def test_sampler_rescales_the_wall_time_less_its_own():
    sampler = speed.Sampler().start()
    begin = time.perf_counter()
    while time.perf_counter() - begin < 0.2:
        speed.kernel(500)
    seconds = sampler.stop()
    elapsed = time.perf_counter() - begin
    assert len(sampler.samples) >= 4
    assert abs(sampler.wall_s + sum(sampler.samples) - elapsed) < 0.01
    assert seconds == sampler.wall_s * sampler.speed ** speed.SENSITIVITY
