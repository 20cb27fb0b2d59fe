#!/usr/bin/env python
"""Regenerate the paper's evaluation: Table 1, Figure 6, Figure 7, and
the §6.1 functionality matrix.

Usage:
    python examples/run_paper_eval.py            # quick 4-benchmark sweep
    python examples/run_paper_eval.py --full     # all ten benchmarks
    python examples/run_paper_eval.py --fresh    # ignore the disk cache
    python examples/run_paper_eval.py --jobs 8   # parallel sweep

Each cell's results are cached as one JSON file in .eval_cache/ (or
$REPRO_EVAL_CACHE), keyed on the workload and the configuration; the
key does not cover the code, so pass --fresh after a code change.
Cells are independent, so ``--jobs N`` fans the first sweep out over a
process pool; later figures reuse its cached cells.

``--obs-out report.json`` activates repro.obs: the sweep aggregates
per-cell timings, pipeline stage spans, and cache hit rates across
every worker, prints a summary to stderr, and writes the full JSON
report.
"""

import argparse
import os
import shutil
import sys
import time

from repro import obs
from repro.evaluation import (
    QUICK_WORKLOADS,
    build_figure6,
    build_figure7,
    build_functionality,
    build_table1,
)
from repro.evaluation.harness import cache_dir
from repro.workloads import WORKLOAD_ORDER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run all ten benchmarks")
    parser.add_argument("--fresh", action="store_true",
                        help="clear the measurement cache first")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="measure N cells in parallel "
                             "(0 = all cores)")
    parser.add_argument("--obs-out", metavar="PATH", default=None,
                        help="enable observability and write the JSON "
                             "report here (summary also goes to stderr)")
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    if args.obs_out:
        obs.enable()

    cache = cache_dir()
    if args.fresh:
        shutil.rmtree(cache, ignore_errors=True)
    names = WORKLOAD_ORDER if args.full else QUICK_WORKLOADS
    started = time.time()

    def progress(workload, compiler, opt):
        elapsed = time.time() - started
        print(f"[{elapsed:6.0f}s] measured {workload} "
              f"{compiler}-O{opt}" if jobs > 1 else
              f"[{elapsed:6.0f}s] measuring {workload} "
              f"{compiler}-O{opt} ...", flush=True)

    table = build_table1(names, progress=progress, jobs=jobs)
    print("\n=== Table 1: normalized runtime vs input binary ===")
    print("(paper geomeans: nosym 1.24/0.76/1.31/1.05, "
          "sym 1.10/0.48/1.06/0.82, SW 1.14)")
    print(table.render())

    fig6 = build_figure6(names, jobs=jobs)
    print("\n=== Figure 6: normalized to gcc12 -O3 native ===")
    print(fig6.render())

    fig7 = build_figure7(names, jobs=jobs)
    print("\n=== Figure 7: stack object accuracy ===")
    print("(paper: precision 94.4%, recall 87.6%)")
    print(fig7.render())

    matrix = build_functionality(names, jobs=jobs)
    print("\n=== Functionality (§6.1) ===")
    print(matrix.render())

    print(f"\ndone in {time.time() - started:.0f}s "
          f"({'full' if args.full else 'quick'} sweep; cache in "
          f"{cache})")

    rec = obs.recorder()
    if rec is not None:
        doc = obs.export(rec)
        if args.obs_out:
            obs.write_json(rec, args.obs_out)
            print(f"observability report written to {args.obs_out}",
                  file=sys.stderr)
        print(obs.summary(doc), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
