"""Golden digests: the end-to-end benchmark's recompiled images, pinned.

``e2e_digests.json`` holds the sha256 of ``recovered.to_json()`` for
every cell of the four e2e workloads (``benchmarks/e2e/cells.py``, 16
cells) at seeds 1 and 7.  A change that must keep every recompiled
image byte-identical keeps these digests; a change that alters an image
on purpose regenerates them and says why::

    PYTHONPATH=src python -m tests.golden.test_e2e_digests

A campaign-add cell is served the way the benchmark serves it: a cold
``incremental_recompile`` over its base runs, then one over all runs
that reuses the stored traces.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core.driver import wytiwyg_recompile
from repro.core.incremental import incremental_recompile
from repro.store import ArtifactStore
from repro.workloads import WORKLOADS
from tests.conftest import e2e_cells

DIGESTS = Path(__file__).resolve().with_name("e2e_digests.json")
SEEDS = (1, 7)
WORKLOAD_NAMES = ("long-trace", "short-trace", "many-inputs",
                  "campaign-add")


def _recompiled(cell, store_dir: str) -> bytes:
    image = WORKLOADS[cell.program].compile(cell.compiler, cell.opt)
    if cell.base:
        store = ArtifactStore(store_dir)
        incremental_recompile(image, cell.runs[:cell.base], store)
        result = incremental_recompile(image, cell.runs, store).pipeline
    else:
        result = wytiwyg_recompile(image, cell.runs)
    assert not result.fallback, f"{cell.name} fell back"
    return result.recovered.to_json().encode()


def workload_digests(workload: str, seed: int) -> dict[str, str]:
    """cell name -> sha256 of its recompiled image."""
    out = {}
    for cell in e2e_cells().build_cells(workload, seed):
        with tempfile.TemporaryDirectory() as store_dir:
            out[cell.name] = hashlib.sha256(
                _recompiled(cell, store_dir)).hexdigest()
    return out


def _key(workload: str, seed: int) -> str:
    return f"{workload}@seed{seed}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_recompiled_images_match_golden_digests(workload, seed):
    want = json.loads(DIGESTS.read_text())[_key(workload, seed)]
    assert workload_digests(workload, seed) == want


def main() -> int:
    golden = {_key(w, s): workload_digests(w, s)
              for s in SEEDS for w in WORKLOAD_NAMES}
    DIGESTS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
