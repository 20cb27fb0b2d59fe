"""Experiment harness: regenerates every table and figure of the paper's
evaluation (§6) against the workload suite."""

from .ablations import ABLATIONS, AblationReport, run_ablation
from .figure6 import Figure6, build_figure6
from .figure7 import ACCURACY_CONFIG, Figure7, build_figure7
from .functionality import FunctionalityMatrix, build_functionality
from .harness import (
    CONFIGS,
    QUICK_WORKLOADS,
    CellResult,
    geomean,
    measure_cell,
    sweep,
)
from .table1 import Table1, build_table1

__all__ = [
    "ABLATIONS", "ACCURACY_CONFIG", "AblationReport", "CONFIGS", "CellResult", "Figure6", "Figure7",
    "FunctionalityMatrix", "QUICK_WORKLOADS", "Table1",
    "build_figure6",
    "build_figure7", "build_functionality", "build_table1", "geomean",
    "run_ablation",
    "measure_cell", "sweep",
]
