"""Evaluation harness plumbing on a miniature workload."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.evaluation import (
    CONFIGS,
    build_figure6,
    build_figure7,
    build_functionality,
    build_table1,
    harness,
)
from repro.evaluation.harness import (
    CellResult,
    geomean,
    measure_cell,
    sweep,
)
from repro.workloads import WORKLOADS
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
def measured():
    """One cell of the tiny kernel, and how many emulator runs the
    harness made for it."""
    real = harness.run_binary
    runs = 0

    def counting(*args, **kwargs):
        nonlocal runs
        runs += 1
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_binary", counting)
        cell = measure_cell(TINY, "gcc12", "3")
    return cell, runs


@pytest.fixture(scope="module")
def cell(measured):
    return measured[0]


@pytest.fixture(scope="module")
def swept():
    """One sweep of the tiny kernel over every configuration, on two
    workers (they see the workload because the pool forks after it
    lands in ``WORKLOADS``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(WORKLOADS, TINY.name, TINY)
        return sweep((TINY.name,), jobs=2)


def test_cell_measures_all_pipelines(cell):
    assert cell.native_cycles > 0
    assert cell.binrec_cycles and cell.binrec_match
    assert cell.wytiwyg_cycles and cell.wytiwyg_match
    assert not cell.wytiwyg_fallback
    assert cell.secondwrite_cycles and cell.secondwrite_match


def test_each_image_runs_once_per_input(measured):
    # The native image, BinRec's, WYTIWYG's and SecondWrite's: one run
    # of each per input gives both its cycles and its output.
    cell, runs = measured
    assert not cell.secondwrite_error
    assert runs == 4 * len(TINY.inputs())


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


def test_parallel_sweep_returns_cells_in_task_order(swept):
    assert list(swept) == [(TINY.name, c, o) for c, o in CONFIGS]


def test_every_table_builds_from_one_sweep(swept, monkeypatch):
    def no_measuring(*args, **kwargs):
        raise AssertionError("a table builder measured a cell")

    monkeypatch.setattr(harness, "measure_cell", no_measuring)
    base = swept[(TINY.name, "gcc12", "3")]

    table = build_table1(swept)
    assert table.workloads == (TINY.name,)
    assert table.rows()[0]["sym"]["gcc12-O3"] == base.wytiwyg_ratio
    assert TINY.name in table.render()

    fig6 = build_figure6(swept)
    assert fig6.series["gcc12-O3 native"] == {TINY.name: 1.0}
    assert TINY.name in fig6.render()

    fig7 = build_figure7(swept)
    assert fig7.recovered == {TINY.name: base.accuracy_recovered}
    assert "precision" in fig7.render()

    matrix = build_functionality(swept)
    assert matrix.all_pass("wytiwyg") and matrix.all_pass("binrec")
    assert len(matrix.cells) == len(CONFIGS)


def test_eval_command_runs_anywhere_and_leaves_only_its_report(tmp_path):
    """``repro --obs-out R eval`` from an empty directory other than
    the repository's: the four tables on stdout, one observability
    summary on stderr, and nothing left behind but the report."""
    src = Path(repro.__file__).resolve().parents[1]
    probe = (
        "import sys\n"
        "from repro import evaluation\n"
        "from repro.__main__ import main\n"
        "from repro.workloads import WORKLOADS\n"
        "from repro.workloads.base import Workload\n"
        f"WORKLOADS[{TINY.name!r}] = Workload({TINY.name!r}, "
        f"{TINY.source!r}, {TINY.ref_inputs!r})\n"
        f"evaluation.QUICK_WORKLOADS = ({TINY.name!r},)\n"
        "sys.exit(main(['--obs-out', 'R', 'eval', '--jobs', '1']))\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    for header in ("=== Table 1", "=== Figure 6", "=== Figure 7",
                   "=== Functionality"):
        assert header in proc.stdout, proc.stdout
    assert proc.stderr.count("=== repro.obs summary ===") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["R"]


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0
    assert geomean([5.0, None, 0]) == pytest.approx(5.0)
