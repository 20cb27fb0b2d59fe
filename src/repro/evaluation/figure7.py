"""Figure 7: stack-layout recovery accuracy per benchmark (paper §6.3).

For every traced function, each ground-truth stack object is classified
as matched / oversized / undersized / missed against the recovered
layout; the figure plots the per-benchmark ratios, and the text reports
overall precision and recall (paper: 94.4% / 87.6%).

The accuracy numbers come from the same WYTIWYG runs Table 1 measures
(the harness records them per cell); this module aggregates the cells of
the configuration the paper uses for ground truth comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.accuracy import CATEGORIES
from .harness import workloads_of

#: Accuracy is evaluated on the modern -O3 inputs (compiler ground truth
#: for fully optimized binaries, like the paper's LLVM 16 comparison).
ACCURACY_CONFIG = ("gcc12", "3")


@dataclass
class Figure7:
    workloads: tuple = ()
    #: workload -> {category: count}
    counts: dict = field(default_factory=dict)
    #: workload -> number of recovered variables
    recovered: dict = field(default_factory=dict)

    def ratios(self, name: str) -> dict:
        counts = self.counts[name]
        total = sum(counts.values()) or 1
        return {c: counts[c] / total for c in CATEGORIES}

    @property
    def precision(self) -> float:
        matched = sum(c["matched"] for c in self.counts.values())
        recovered = sum(self.recovered.values())
        return matched / recovered if recovered else 0.0

    @property
    def recall(self) -> float:
        matched = sum(c["matched"] for c in self.counts.values())
        total = sum(sum(c.values()) for c in self.counts.values())
        return matched / total if total else 0.0

    def render(self) -> str:
        lines = ["  ".join([f"{'benchmark':>12s}"]
                           + [f"{c:>10s}" for c in CATEGORIES])]
        for name in self.workloads:
            ratios = self.ratios(name)
            lines.append("  ".join(
                [f"{name:>12s}"]
                + [f"{ratios[c]:10.2f}" for c in CATEGORIES]))
        lines.append(f"precision {self.precision:.1%}  "
                     f"recall {self.recall:.1%}")
        return "\n".join(lines)


def build_figure7(cells: dict) -> Figure7:
    """Figure 7 from the :data:`ACCURACY_CONFIG` cells of one
    :func:`~.harness.sweep`."""
    names = workloads_of(cells)
    fig = Figure7(names)
    for name in names:
        cell = cells[(name, *ACCURACY_CONFIG)]
        counts = {c: cell.accuracy_counts.get(c, 0) for c in CATEGORIES}
        fig.counts[name] = counts
        fig.recovered[name] = cell.accuracy_recovered
    return fig
