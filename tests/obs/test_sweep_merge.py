"""Cross-process aggregation: sweep(jobs=2) workers report their
registries back to the parent and the merged export covers the sweep."""

from repro import obs
from repro.evaluation.harness import sweep
from repro.workloads import WORKLOADS
from repro.workloads.base import Workload

TINY = Workload(
    name="tinyobs",
    source=r'''
int twice(int x) { return x + x; }
int main() {
    int total = 0;
    int i;
    for (i = 0; i < 20; i++) total += twice(i) & 0x3F;
    printf("%d\n", total);
    return 0;
}
''',
    ref_inputs=((),),
    description="observability sweep-merge kernel",
)


def test_parallel_sweep_merges_worker_metrics(monkeypatch):
    # Workers see the injected workload because the pool forks after it
    # lands in the (shared) WORKLOADS dict.
    monkeypatch.setitem(WORKLOADS, TINY.name, TINY)
    obs.enable(reset=True)
    try:
        out = sweep((TINY.name,),
                    configs=(("gcc12", "3"), ("gcc12", "0")), jobs=2)
        doc = obs.export(obs.recorder())
    finally:
        obs.disable()
    assert len(out) == 2
    assert all(cell.wytiwyg_match for cell in out.values())

    # One eval.cell span and one eval.cell_seconds sample per worker
    # cell, all visible from the parent's recorder.
    cells = [s for s in obs.iter_spans(doc) if s["name"] == "eval.cell"]
    assert len(cells) == 2
    assert {(s["attrs"]["compiler"], s["attrs"]["opt_level"])
            for s in cells} == {("gcc12", "3"), ("gcc12", "0")}
    assert doc["metrics"]["timers"]["eval.cell_seconds"]["count"] == 2

    # Engine-level metrics recorded inside the workers merged too.
    counters = doc["metrics"]["counters"]
    assert counters["emu.instructions_retired"] > 0


def test_serial_sweep_records_in_parent(monkeypatch):
    monkeypatch.setitem(WORKLOADS, TINY.name, TINY)
    obs.enable(reset=True)
    try:
        out = sweep((TINY.name,), configs=(("gcc12", "0"),), jobs=1)
        doc = obs.export(obs.recorder())
    finally:
        obs.disable()
    assert len(out) == 1
    assert doc["metrics"]["timers"]["eval.cell_seconds"]["count"] == 1
    cells = [s for s in obs.iter_spans(doc) if s["name"] == "eval.cell"]
    assert len(cells) == 1
