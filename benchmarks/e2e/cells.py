"""The benchmark's workloads: which programs are recompiled, on what.

A *cell* is one recompile request: a program compiled by one compiler
personality, the input runs the recompile traces (``runs``), and the
runs it never sees (``heldout``), which check the paper's contract on
untraced inputs.  A workload is a list of cells built from a seed.  The
seed picks data (network and board seeds, byte streams, record order),
never sizes, and a seeded value whose work depends on it is drawn from a
pool of values of equal work (``pools.json``, made by ``screen.py``), so
every seed asks for the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.workloads import WORKLOADS, deterministic_bytes

POOLS_FILE = Path(__file__).resolve().with_name("pools.json")


@dataclass
class Cell:
    program: str
    compiler: str
    opt: str
    #: Input runs the timed recompile traces.
    runs: list
    #: Untraced runs; each must match the original or trap cleanly.
    heldout: list
    #: campaign-add only: the first ``base`` runs are served by an
    #: untimed cold request before the timed one over all ``runs``.
    base: int = 0

    @property
    def name(self) -> str:
        return f"{self.program}@{self.compiler}-O{self.opt}"


def _ref(program: str) -> list:
    """The paper's ref input, all records in one run."""
    return WORKLOADS[program].inputs()


def _records(program: str) -> list:
    """The ref input's records (gcc expressions, xalancbmk documents)."""
    return list(WORKLOADS[program].ref_inputs[0])


def _block(seed: int, size: int) -> bytes:
    """A bzip2 input block: 6-bit symbols with injected runs, shaped
    like the workload's own ref blocks."""
    raw = bytearray(b & 0x3F for b in deterministic_bytes(size, seed))
    for i in range(0, size - 16, 37):
        raw[i:i + 9] = bytes([raw[i]]) * 9
    return bytes(raw)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 30)


#: Runs whose length or coverage depends on the seeded value:
#: name -> (program, compiler, opt level, value -> run).  Their values
#: come from ``pools.json``.
POOLED = {
    "mcf-30": ("mcf", "gcc12", "3", lambda s: [30, s, 3]),
    "bzip2-64": ("bzip2", "gcc44", "3", lambda s: [_block(s, 64)]),
    "mcf-12": ("mcf", "gcc12", "0", lambda s: [12, s, 1]),
    "gobmk-4": ("gobmk", "gcc12", "0", lambda s: [4, s, 1]),
    "astar-6": ("astar", "gcc12", "0", lambda s: [6, 6, s, 1]),
}


def _pooled(rng: random.Random, name: str) -> list:
    seeds = json.loads(POOLS_FILE.read_text())[name]["seeds"]
    return POOLED[name][3](rng.choice(seeds))


def long_trace(rng: random.Random) -> list[Cell]:
    return [
        Cell("mcf", "gcc12", "3", [_pooled(rng, "mcf-30")], _ref("mcf")),
        Cell("bzip2", "gcc44", "3", [_pooled(rng, "bzip2-64")],
             _ref("bzip2")),
        Cell("hmmer", "gcc12", "0",
             [[18, _seed(rng), deterministic_bytes(32, _seed(rng))]],
             _ref("hmmer")),
    ]


def short_trace(rng: random.Random) -> list[Cell]:
    runs = {
        "gcc": [_records("gcc")[0]],
        "xalancbmk": [_records("xalancbmk")[0]],
        "mcf": _pooled(rng, "mcf-12"),
        "gobmk": _pooled(rng, "gobmk-4"),
        "sjeng": [2, 2, 2, 2],
        "libquantum": [3, 1],
        "astar": _pooled(rng, "astar-6"),
        "h264ref": [8, 4, _seed(rng)],
        "hmmer": [6, _seed(rng), deterministic_bytes(8, _seed(rng))],
    }
    return [Cell(program, "gcc12", "0", [items], _ref(program))
            for program, items in runs.items()]


def _shuffled_with_repeats(rng: random.Random, records: list,
                           repeats: int) -> list:
    """Every record as its own run, plus exact repeats of the first
    ``repeats`` records, in seeded order.  Which records repeat is fixed,
    because the records differ in length."""
    runs = [[r] for r in records] + [[r] for r in records[:repeats]]
    rng.shuffle(runs)
    return runs


def many_inputs(rng: random.Random) -> list[Cell]:
    return [
        Cell("gcc", "gcc12", "3",
             _shuffled_with_repeats(rng, _records("gcc"), 2), _ref("gcc")),
        Cell("xalancbmk", "gcc44", "3",
             _shuffled_with_repeats(rng, _records("xalancbmk"), 1),
             _ref("xalancbmk")),
    ]


def _campaign_runs(rng: random.Random, records: list) -> list:
    """The base records in seeded order, then the added one: always the
    last record, because the timed request traces it and the records
    differ in length."""
    base = records[:-1]
    return [[r] for r in rng.sample(base, len(base))] + [[records[-1]]]


def campaign_add(rng: random.Random) -> list[Cell]:
    return [
        Cell("gcc", "gcc12", "3", _campaign_runs(rng, _records("gcc")[:5]),
             _ref("gcc"), base=4),
        Cell("xalancbmk", "gcc12", "0",
             _campaign_runs(rng, _records("xalancbmk")[:4]),
             _ref("xalancbmk"), base=3),
    ]


#: name -> (function making the cells, timed rounds per run).  The rounds
#: keep a run within 15-45 s on a 2-core Xeon, so that all runs of the
#: benchmark fit its time budget; campaign-add, whose calls are the
#: shortest, needs a fourth to spread as little as the others.  The
#: reasons for each workload are in BENCHMARK.json and README.md.
WORKLOAD_SPECS = {
    "long-trace": (long_trace, 3),
    "short-trace": (short_trace, 3),
    "many-inputs": (many_inputs, 4),
    "campaign-add": (campaign_add, 4),
}


def build_cells(workload: str, seed: int) -> list[Cell]:
    make, _rounds = WORKLOAD_SPECS[workload]
    return make(random.Random(seed))
