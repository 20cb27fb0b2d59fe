"""Functionality matrix (paper §6.1): does every benchmark lift and
recompile with its observable behaviour preserved, in every input-binary
configuration and for every pipeline?"""

from __future__ import annotations

from dataclasses import dataclass, field

from .harness import CONFIGS, workloads_of


@dataclass
class FunctionalityMatrix:
    workloads: tuple = ()
    configs: tuple = CONFIGS
    #: (workload, config-key) -> {"binrec": bool, "wytiwyg": bool,
    #: "secondwrite": bool|None (None = unsupported)}
    cells: dict = field(default_factory=dict)

    def all_pass(self, pipeline: str) -> bool:
        for value in self.cells.values():
            status = value[pipeline]
            if status is False:
                return False
        return True

    def render(self) -> str:
        keys = [f"{c}-O{o}" for c, o in self.configs]
        lines = ["  ".join([f"{'benchmark':>12s}"]
                           + [f"{k:>22s}" for k in keys])]
        for name in self.workloads:
            cells = []
            for c, o in self.configs:
                v = self.cells[(name, f"{c}-O{o}")]
                sw = ("—" if v["secondwrite"] is None
                      else ("ok" if v["secondwrite"] else "FAIL"))
                cells.append(f"br:{'ok' if v['binrec'] else 'FAIL'} "
                             f"wy:{'ok' if v['wytiwyg'] else 'FAIL'} "
                             f"sw:{sw}")
            lines.append("  ".join([f"{name:>12s}"]
                                   + [f"{c:>22s}" for c in cells]))
        return "\n".join(lines)


def build_functionality(cells: dict) -> FunctionalityMatrix:
    """The §6.1 matrix from the cells of one :func:`~.harness.sweep`
    over :data:`~.harness.CONFIGS`."""
    names = workloads_of(cells)
    matrix = FunctionalityMatrix(names, CONFIGS)
    for name in names:
        for compiler, opt in CONFIGS:
            cell = cells[(name, compiler, opt)]
            matrix.cells[(name, f"{compiler}-O{opt}")] = {
                "binrec": cell.binrec_match,
                "wytiwyg": cell.wytiwyg_match,
                "secondwrite": (None if cell.secondwrite_error
                                else cell.secondwrite_match),
            }
    return matrix
