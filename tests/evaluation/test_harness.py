"""Evaluation harness plumbing on a miniature workload."""

import pytest

from repro.evaluation.harness import (
    CellResult,
    geomean,
    measure_cell,
)
from repro.workloads.base import Workload

TINY = Workload(
    name="tinybench",
    source=r'''
int poly(int x) { return x * x * 3 + x * 2 + 7; }
int main() {
    int total = 0;
    int i;
    for (i = 0; i < 40; i++) total += poly(i) & 0xFF;
    printf("%d\n", total);
    return 0;
}
''',
    ref_inputs=((),),
    description="harness self-test kernel",
)


@pytest.fixture(scope="module")
def cell(tmp_path_factory, monkeypatch_module=None):
    import os
    cache = tmp_path_factory.mktemp("cache")
    old = os.environ.get("REPRO_EVAL_CACHE")
    os.environ["REPRO_EVAL_CACHE"] = str(cache)
    try:
        yield measure_cell(TINY, "gcc12", "3")
    finally:
        if old is None:
            os.environ.pop("REPRO_EVAL_CACHE", None)
        else:
            os.environ["REPRO_EVAL_CACHE"] = old


def test_cell_measures_all_pipelines(cell):
    assert cell.native_cycles > 0
    assert cell.binrec_cycles and cell.binrec_match
    assert cell.wytiwyg_cycles and cell.wytiwyg_match
    assert not cell.wytiwyg_fallback
    assert cell.secondwrite_cycles and cell.secondwrite_match


def test_expected_ordering(cell):
    # Symbolized beats unsymbolized; both functional.
    assert cell.wytiwyg_cycles < cell.binrec_cycles


def test_accuracy_recorded(cell):
    assert sum(cell.accuracy_counts.values()) > 0
    assert cell.accuracy_recovered > 0


def test_ratios(cell):
    assert cell.wytiwyg_ratio == pytest.approx(
        cell.wytiwyg_cycles / cell.native_cycles)
    empty = CellResult("w", "c", "0")
    assert empty.wytiwyg_ratio is None


def test_cache_round_trip(cell, tmp_path):
    import os
    os.environ["REPRO_EVAL_CACHE"] = str(tmp_path)
    try:
        first = measure_cell(TINY, "gcc12", "3")
        second = measure_cell(TINY, "gcc12", "3")
        assert first.native_cycles == second.native_cycles
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
    finally:
        os.environ.pop("REPRO_EVAL_CACHE", None)


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0
    assert geomean([5.0, None, 0]) == pytest.approx(5.0)
