"""Regenerate ``pools.json``: seed values that ask for equal work.

    python3 benchmarks/e2e/screen.py

For each pooled run shape in ``cells.POOLED``, every candidate value
1..CANDIDATES is traced once on the original binary.  The pool keeps
the values that cover the most common set size of executed addresses
and, among those, the POOL_SIZE whose retired instruction counts lie
closest to the median.  A seed then changes the data a run sees but not
how much code it covers or how long it runs, so the spread of a metric
over seeds is the machine's noise, not the inputs'.
"""

from __future__ import annotations

import collections
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import cells  # noqa: E402
from repro.emu.tracer import trace_binary  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402

CANDIDATES = 600
POOL_SIZE = 16


def screen(program: str, compiler: str, opt: str, make_run) -> dict:
    image = WORKLOADS[program].compile(compiler, opt)
    rows = []
    for value in range(1, CANDIDATES + 1):
        traces = trace_binary(image, [make_run(value)])
        rows.append((value, traces.results[0].instructions,
                     len(traces.executed)))
    coverage = collections.Counter(r[2] for r in rows).most_common(1)[0][0]
    rows = [r for r in rows if r[2] == coverage]
    median = statistics.median(r[1] for r in rows)
    pool = sorted(rows, key=lambda r: (abs(r[1] - median), r[0]))
    pool = pool[:POOL_SIZE]
    return {"seeds": sorted(r[0] for r in pool),
            "instructions": median, "coverage": coverage,
            "max_deviation": max(abs(r[1] - median) for r in pool) / median}


def main() -> None:
    pools = {name: screen(*shape) for name, shape in cells.POOLED.items()}
    (HERE / "pools.json").write_text(json.dumps(pools, indent=1) + "\n")
    for name, pool in pools.items():
        print(f"{name}: {len(pool['seeds'])} seeds, "
              f"{pool['instructions']:.0f} instructions "
              f"+-{100 * pool['max_deviation']:.2f}%")


if __name__ == "__main__":
    main()
