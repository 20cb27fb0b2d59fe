"""The cyclic garbage collector is off while a recompile runs."""

import gc
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cc import compile_source
from repro.core import driver
from repro.core.driver import (
    collector_paused,
    wytiwyg_lift,
    wytiwyg_recompile,
)
from repro.core.incremental import incremental_recompile
from repro.emu import trace_binary
from repro.store import ArtifactStore

QUICKSTART = (Path(__file__).resolve().parents[2] / "examples"
              / "quickstart.c")

#: Each pipeline entry point, and a stage of it to wrap.
ENTRIES = [("wytiwyg_recompile", "recompile_ir"),
           ("wytiwyg_lift", "sanitize_function"),
           ("incremental_recompile", "recompile_ir")]


@pytest.fixture(scope="module")
def image():
    return compile_source(QUICKSTART.read_text())


def _set_collector(on: bool) -> None:
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(params=[True, False], ids=["on-before", "off-before"])
def prior(request):
    was = gc.isenabled()
    _set_collector(request.param)
    yield request.param
    _set_collector(was)


def _run(entry: str, image, tmp_path):
    if entry == "wytiwyg_recompile":
        return wytiwyg_recompile(image, [[5], [6]])
    if entry == "wytiwyg_lift":
        return wytiwyg_lift(trace_binary(image, [[5], [6]]))
    return incremental_recompile(image, [[5], [6]],
                                 ArtifactStore(str(tmp_path / "store")))


@pytest.mark.parametrize("entry, stage", ENTRIES)
def test_stages_run_paused_and_the_collector_comes_back(
        entry, stage, prior, image, tmp_path, monkeypatch):
    seen = []
    real = getattr(driver, stage)

    def wrapped(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(driver, stage, wrapped)
    _run(entry, image, tmp_path)
    assert seen and not any(seen)
    assert gc.isenabled() is prior


@pytest.mark.parametrize("entry, stage", ENTRIES)
def test_the_collector_comes_back_when_the_pipeline_raises(
        entry, stage, prior, image, tmp_path, monkeypatch):
    seen = []

    def failing(*args, **kwargs):
        seen.append(gc.isenabled())
        raise RuntimeError("stage failed")

    monkeypatch.setattr(driver, stage, failing)
    with pytest.raises(RuntimeError, match="stage failed"):
        _run(entry, image, tmp_path)
    assert seen == [False]
    assert gc.isenabled() is prior


def test_nested_pauses_across_threads_keep_the_collector_off(
        collector_on):
    # A bare save-and-restore fails this: a thread that enters while
    # another is inside saves "off", sees the collector back on when the
    # other leaves, and switches it off for good when it leaves itself.
    violations = []
    deadline = time.monotonic() + 2.0

    def worker():
        for _ in range(500):
            if time.monotonic() > deadline:
                return
            with collector_paused():
                if gc.isenabled():
                    violations.append("outer")
                with collector_paused():
                    if gc.isenabled():
                        violations.append("inner")
                time.sleep(0)
                if gc.isenabled():
                    violations.append("after inner")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert violations == []
    assert gc.isenabled()
