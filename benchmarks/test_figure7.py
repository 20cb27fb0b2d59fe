"""Regenerates Figure 7: stack-layout recovery accuracy (paper §6.3).

Expected shape: matched dominates everywhere, with benchmark-dependent
oversized/undersized/missed tails; overall precision and recall in the
~90% band (paper: 94.4% / 87.6%)."""

import pytest

from repro.evaluation import build_figure7


@pytest.fixture(scope="module")
def figure7(cells):
    fig = build_figure7(cells)
    rendered = fig.render()
    print("\n=== Figure 7 (stack object accuracy) ===")
    print(rendered)
    from .test_table1 import _save
    _save("figure7.txt", rendered)
    return fig


def test_print_figure7(benchmark, figure7):
    assert figure7.precision > 0.6
    assert figure7.recall > 0.6
    for name in figure7.workloads:
        ratios = figure7.ratios(name)
        assert ratios["matched"] >= 0.5, (name, ratios)
    benchmark(lambda: figure7.ratios(figure7.workloads[0]))


def test_accuracy_metrics(benchmark, figure7):
    benchmark.extra_info["precision"] = figure7.precision
    benchmark.extra_info["recall"] = figure7.recall
    benchmark(lambda: (figure7.precision, figure7.recall))
