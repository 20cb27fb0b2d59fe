"""Regenerates Figure 6: runtimes normalized to the GCC 12.2 -O3 native
baseline (paper §6.2).

Expected shape: the WYTIWYG-recompiled series sit near 1.0 regardless of
which toolchain produced the input, while the native series spread out
(legacy and -O0 inputs above 1.0)."""

import pytest

from repro.evaluation import build_figure6


@pytest.fixture(scope="module")
def figure6(cells):
    fig = build_figure6(cells)
    rendered = fig.render()
    print("\n=== Figure 6 (normalized to gcc12 -O3 native) ===")
    print(rendered)
    from .test_table1 import _save
    _save("figure6.txt", rendered)
    return fig


def test_print_figure6(benchmark, figure6):
    means = figure6.geomeans()
    # Recompiled binaries approach the modern baseline from every input.
    for label, mean in means.items():
        if "wytiwyg" in label:
            assert mean < 1.35, (label, mean)
    # Input spread: legacy/unoptimized inputs are slower than the
    # baseline they are normalized against.
    assert means["gcc44-O3 native"] > 1.0
    assert means["gcc12-O0 native"] > 1.0
    benchmark(lambda: figure6.geomeans())


def test_recompiled_series_tighter_than_native(benchmark, figure6):
    natives = [figure6.geomeans()[k] for k in figure6.series
               if k.endswith("native")]
    recompiled = [figure6.geomeans()[k] for k in figure6.series
                  if k.endswith("wytiwyg")]
    spread_native = max(natives) - min(natives)
    spread_rec = max(recompiled) - min(recompiled)
    benchmark.extra_info["native_spread"] = spread_native
    benchmark.extra_info["recompiled_spread"] = spread_rec
    assert spread_rec < spread_native
    benchmark(lambda: figure6.geomeans())
