"""Regenerates Table 1: normalized runtime of recompiled binaries
relative to their input binaries, with and without symbolization, plus
the SecondWrite column (paper §6.2).

Run with ``pytest benchmarks/test_table1.py --benchmark-only -s`` to see
the table.  Expected shape (paper values in parentheses): symbolized
runtimes near 1.0x for modern -O3 inputs (1.06-1.10x), clear speedups
for -O0 (0.48x) and legacy GCC 4.4 (0.82x) inputs, unsymbolized always
slower than symbolized, SecondWrite behind WYTIWYG with failures on
some benchmarks.
"""

import pytest

from repro.emu import run_binary
from repro.evaluation import CONFIGS, build_table1
from repro.workloads import WORKLOADS

from .conftest import selected_workloads

_NAMES = selected_workloads()


@pytest.fixture(scope="module")
def table1(cells):
    table = build_table1(cells)
    rendered = table.render()
    print("\n=== Table 1 (normalized runtime vs input binary) ===")
    print(rendered)
    _save("table1.txt", rendered)
    return table


def _save(name, text):
    import pathlib
    out = pathlib.Path("results")
    out.mkdir(exist_ok=True)
    (out / name).write_text(text + "\n")


def test_print_table1(benchmark, table1):
    means = table1.geomeans()
    # Headline shape assertions (paper: sym < nosym everywhere).
    for key in means["sym"]:
        assert means["sym"][key] < means["nosym"][key]
    # Legacy binaries are accelerated by recompilation (paper: 0.82x).
    assert means["sym"]["gcc44-O3"] < 1.0
    # Unoptimized binaries are accelerated (paper: 0.48x).
    assert means["sym"]["gcc12-O0"] < 1.0
    for key, value in means["sym"].items():
        benchmark.extra_info[f"sym_{key}"] = round(value, 3)
    benchmark(lambda: table1.geomeans())


@pytest.mark.parametrize("name", _NAMES)
@pytest.mark.parametrize("config", CONFIGS,
                         ids=[f"{c}-O{o}" for c, o in CONFIGS])
def test_input_binary_runtime(benchmark, cells, name, config):
    """Benchmark the input binary's execution; the cell's cycle ratios
    are in extra_info."""
    compiler, opt = config
    cell = cells[(name, compiler, opt)]
    assert cell.wytiwyg_match, "recompiled binary must match the input"
    workload = WORKLOADS[name]
    image = workload.compile(compiler, opt)
    inputs = workload.inputs()

    benchmark.extra_info["native_cycles"] = cell.native_cycles
    benchmark.extra_info["wytiwyg_ratio"] = cell.wytiwyg_ratio
    benchmark.extra_info["binrec_ratio"] = cell.binrec_ratio
    benchmark(lambda: [run_binary(image, items) for items in inputs])
