"""The cyclic collector's passes show as ``gc.*`` metrics."""

import gc
from pathlib import Path

from repro import obs
from repro.cc import compile_source
from repro.core import driver
from repro.core.driver import wytiwyg_recompile

QUICKSTART = (Path(__file__).resolve().parents[2] / "examples"
              / "quickstart.c")
PASSES = ("gc.collections.gen0", "gc.collections.gen1",
          "gc.collections.gen2")


def _passes(rec) -> int:
    return sum(rec.registry.counters.get(name, 0) for name in PASSES)


def test_a_forced_collection_records_one_full_pass(collector_on):
    rec = obs.enable(reset=True)
    gc.disable()  # no automatic pass may come between
    try:
        gc.collect()
    finally:
        gc.enable()
        obs.disable()
    counters = rec.registry.counters
    assert counters.get("gc.collections.gen2") == 1
    assert _passes(rec) == 1
    assert rec.registry.timers["gc.seconds"].count == 1
    # Disabled observability removes the hook.
    gc.collect()
    assert _passes(rec) == 1


def test_no_collection_while_a_recompile_runs(collector_on, monkeypatch):
    image = compile_source(QUICKSTART.read_text())
    rec = obs.enable(reset=True)
    seen = {}
    real_trace, real_recompile = driver.trace_binary, driver.recompile_ir

    def trace(*args, **kwargs):
        seen["first stage"] = _passes(rec)
        return real_trace(*args, **kwargs)

    def recompile(*args, **kwargs):
        result = real_recompile(*args, **kwargs)
        seen["last stage"] = _passes(rec)
        return result

    monkeypatch.setattr(driver, "trace_binary", trace)
    monkeypatch.setattr(driver, "recompile_ir", recompile)
    try:
        wytiwyg_recompile(image, [[5], [6]])
        seen["after"] = _passes(rec)
        gc.collect()
        seen["collected"] = _passes(rec)
    finally:
        obs.disable()
    assert seen["first stage"] == seen["last stage"]
    assert seen["collected"] == seen["after"] + 1
