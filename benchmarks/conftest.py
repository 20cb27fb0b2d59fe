"""Benchmark configuration.

By default the benches run on the quick workload subset so a full
``pytest benchmarks/ --benchmark-only`` finishes in minutes; set
``REPRO_FULL_EVAL=1`` to sweep all ten benchmarks (the full paper
reproduction, ~30 minutes cold).

Measurements are cycle counts under the deterministic cost model (the
paper's runtime proxy); wall-clock timings reported by pytest-benchmark
measure the emulator and are not the reproduction metric.  Cycle ratios
are attached to each benchmark's ``extra_info``.
"""

import os

import pytest

from repro.evaluation import QUICK_WORKLOADS, sweep
from repro.workloads import WORKLOAD_ORDER


def pytest_collection_modifyitems(items):
    # Everything under benchmarks/ is wall-time measurement, not tier-1
    # correctness; tag it so ``-m "not bench"`` filters it out.
    for item in items:
        item.add_marker(pytest.mark.bench)


def selected_workloads():
    if os.environ.get("REPRO_FULL_EVAL"):
        return WORKLOAD_ORDER
    return QUICK_WORKLOADS


@pytest.fixture(scope="session")
def cells():
    """One sweep of the selected workloads over every configuration;
    every table bench builds from it."""
    return sweep(selected_workloads())
