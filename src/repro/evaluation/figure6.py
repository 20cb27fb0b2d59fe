"""Figure 6: runtimes normalized to the GCC 12.2 -O3 *native* baseline.

The paper plots, for each benchmark, the runtime of (a) every input
binary and (b) its WYTIWYG recompilation (and SecondWrite's, where it
works), all divided by the GCC 12.2 -O3 native runtime — showing that
recompiled binaries approach the modern-native baseline no matter which
toolchain produced the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .harness import geomean, workloads_of

#: The series of Figure 6: (label, config, which runtime).
SERIES = (
    ("gcc12-O3 native", ("gcc12", "3"), "native"),
    ("gcc12-O3 wytiwyg", ("gcc12", "3"), "wytiwyg"),
    ("gcc12-O0 native", ("gcc12", "0"), "native"),
    ("gcc12-O0 wytiwyg", ("gcc12", "0"), "wytiwyg"),
    ("clang16-O3 native", ("clang16", "3"), "native"),
    ("clang16-O3 wytiwyg", ("clang16", "3"), "wytiwyg"),
    ("gcc44-O3 native", ("gcc44", "3"), "native"),
    ("gcc44-O3 wytiwyg", ("gcc44", "3"), "wytiwyg"),
    ("gcc44-O3 secondwrite", ("gcc44", "3"), "secondwrite"),
)


@dataclass
class Figure6:
    workloads: tuple = ()
    #: series label -> {workload: normalized runtime or None}
    series: dict = field(default_factory=dict)

    def geomeans(self) -> dict:
        return {label: geomean(values[n] for n in self.workloads
                               if values.get(n))
                for label, values in self.series.items()}

    def render(self) -> str:
        lines = ["  ".join([f"{'series':>24s}"]
                           + [f"{n:>10s}" for n in self.workloads]
                           + [f"{'GEOMEAN':>10s}"])]
        means = self.geomeans()
        for label, values in self.series.items():
            cells = [f"{values[n]:10.2f}" if values.get(n)
                     else f"{'—':>10s}" for n in self.workloads]
            lines.append("  ".join([f"{label:>24s}"] + cells
                                   + [f"{means[label]:10.2f}"]))
        return "\n".join(lines)


def build_figure6(cells: dict) -> Figure6:
    """Figure 6 from the cells of one :func:`~.harness.sweep` over
    :data:`~.harness.CONFIGS`."""
    names = workloads_of(cells)
    fig = Figure6(names)
    baseline = {n: cells[(n, "gcc12", "3")].native_cycles for n in names}
    for label, (compiler, opt), kind in SERIES:
        values = {}
        for n in names:
            cell = cells[(n, compiler, opt)]
            cycles = {
                "native": cell.native_cycles,
                "wytiwyg": cell.wytiwyg_cycles,
                "secondwrite": cell.secondwrite_cycles,
            }[kind]
            values[n] = (cycles / baseline[n]) \
                if cycles and baseline[n] else None
        fig.series[label] = values
    return fig
