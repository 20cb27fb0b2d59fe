"""Regenerates the §6.1 functionality result: every benchmark lifts and
recompiles with behaviour preserved in every configuration (WYTIWYG and
BinRec); SecondWrite works where its static model suffices."""

import pytest

from repro.evaluation import build_functionality


@pytest.fixture(scope="module")
def matrix(cells):
    m = build_functionality(cells)
    rendered = m.render()
    print("\n=== Functionality (§6.1) ===")
    print(rendered)
    from .test_table1 import _save
    _save("functionality.txt", rendered)
    return m


def test_wytiwyg_all_pass(benchmark, matrix):
    assert matrix.all_pass("wytiwyg")
    benchmark(lambda: matrix.all_pass("wytiwyg"))


def test_binrec_all_pass(benchmark, matrix):
    assert matrix.all_pass("binrec")
    benchmark(lambda: matrix.all_pass("binrec"))


def test_secondwrite_partial(benchmark, matrix):
    supported = [v["secondwrite"] for v in matrix.cells.values()
                 if v["secondwrite"] is not None]
    unsupported = sum(1 for v in matrix.cells.values()
                      if v["secondwrite"] is None)
    benchmark.extra_info["sw_supported_cells"] = len(supported)
    benchmark.extra_info["sw_unsupported_cells"] = unsupported
    # Where the static pipeline runs at all, it must be correct.
    assert all(supported)
    benchmark(lambda: matrix.all_pass("wytiwyg"))
