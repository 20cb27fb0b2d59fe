"""Table 1: normalized runtime of recompiled binaries relative to their
input binaries (paper §6.2).

Rows: benchmarks; per benchmark two lines — recompiled without
symbolization (BinRec) and with symbolization (WYTIWYG); columns: the
input-binary configurations; final column SecondWrite (GCC 4.4 -O3
input, as in the paper).  A "—" marks configurations the pipeline could
not handle, mirroring the paper's dashes for SecondWrite failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .harness import CONFIGS, CellResult, geomean, workloads_of

SECONDWRITE_CONFIG = ("gcc44", "3")


@dataclass
class Table1:
    configs: tuple = CONFIGS
    workloads: tuple = ()
    cells: dict = field(default_factory=dict)

    def rows(self) -> list[dict]:
        out = []
        for name in self.workloads:
            row = {"benchmark": name, "nosym": {}, "sym": {},
                   "secondwrite": None}
            for compiler, opt in self.configs:
                cell: CellResult = self.cells[(name, compiler, opt)]
                key = f"{compiler}-O{opt}"
                row["nosym"][key] = cell.binrec_ratio
                row["sym"][key] = cell.wytiwyg_ratio
            sw_cell = self.cells.get((name, *SECONDWRITE_CONFIG))
            if sw_cell is not None and not sw_cell.secondwrite_error:
                row["secondwrite"] = sw_cell.secondwrite_ratio
            out.append(row)
        return out

    def geomeans(self) -> dict:
        means = {"nosym": {}, "sym": {}}
        for compiler, opt in self.configs:
            key = f"{compiler}-O{opt}"
            means["nosym"][key] = geomean(
                self.cells[(n, compiler, opt)].binrec_ratio
                for n in self.workloads)
            means["sym"][key] = geomean(
                self.cells[(n, compiler, opt)].wytiwyg_ratio
                for n in self.workloads)
        means["secondwrite"] = geomean(
            self.cells[(n, *SECONDWRITE_CONFIG)].secondwrite_ratio
            for n in self.workloads
            if not self.cells[(n, *SECONDWRITE_CONFIG)].secondwrite_error)
        return means

    def render(self) -> str:
        header = ["benchmark", "sym"]
        keys = [f"{c}-O{o}" for c, o in self.configs]
        header += keys + ["SW (gcc44)"]
        lines = ["  ".join(f"{h:>12s}" for h in header)]

        def fmt(v, ok=True):
            if v is None:
                return f"{'—':>12s}"
            text = f"{v:.2f}" + ("" if ok else "!")
            return f"{text:>12s}"

        for row in self.rows():
            name = row["benchmark"]
            nosym_ok = {f"{c}-O{o}":
                        self.cells[(name, c, o)].binrec_match
                        for c, o in self.configs}
            sym_ok = {f"{c}-O{o}":
                      self.cells[(name, c, o)].wytiwyg_match
                      for c, o in self.configs}
            sw_cell = self.cells.get((name, *SECONDWRITE_CONFIG))
            sw_ok = bool(sw_cell and sw_cell.secondwrite_match)
            lines.append("  ".join(
                [f"{name:>12s}", f"{'':>12s}"]
                + [fmt(row["nosym"][k], nosym_ok[k]) for k in keys]
                + [fmt(row["secondwrite"], sw_ok)]))
            lines.append("  ".join(
                [f"{'':>12s}", f"{'✓':>12s}"]
                + [fmt(row["sym"][k], sym_ok[k]) for k in keys]
                + [f"{'':>12s}"]))
        means = self.geomeans()
        lines.append("  ".join(
            [f"{'Geomean':>12s}", f"{'':>12s}"]
            + [fmt(means["nosym"][k]) for k in keys]
            + [fmt(means["secondwrite"])]))
        lines.append("  ".join(
            [f"{'':>12s}", f"{'✓':>12s}"]
            + [fmt(means["sym"][k]) for k in keys]
            + [f"{'':>12s}"]))
        return "\n".join(lines)


def build_table1(cells: dict) -> Table1:
    """Table 1 from the cells of one :func:`~.harness.sweep` over
    :data:`~.harness.CONFIGS`."""
    return Table1(CONFIGS, workloads_of(cells), cells)
