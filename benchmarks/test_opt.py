"""Optimizer benches: incremental worklist pass manager against the
legacy fixed schedule (``REPRO_PASS_BASELINE=1``).

Runs as the fourth ``tools/bench.sh`` pass and lands in
``BENCH_opt.json``: ``extra_info`` records both wall times, the
speedup, and the manager's skip/requeue accounting so a CI job can diff
a run against a saved baseline.

The workload runs canonicalize + optimize once cold, then repeatedly
over the same module.  The recompile driver itself canonicalizes once
and optimizes once; the repeats stand for a long-lived process (a test
suite, a sweep, the serve daemon) that meets function contents it has
already optimized.  The legacy schedule pays a full no-change sweep
(every pass over every function, plus the inline scan) per stage; the
manager pays one fingerprint and one memo lookup per function, plus
the inline scan.  Outputs must stay byte-identical, as printed IR and
as recompiled binaries.
"""

import os
import time

import pytest

from repro import obs
from repro.cc.driver import compile_to_ir
from repro.ir.printer import module_to_text
from repro.opt import (
    OptOptions,
    canonicalize_module,
    clear_memo,
    optimize_module,
)
from repro.recompile.link import compile_ir

pytestmark = pytest.mark.bench

SOURCE = r"""
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int mix(int seed, int rounds) {
    int acc = seed;
    for (int i = 0; i < rounds; i++) {
        acc = acc * 31 + i;
        if (acc > 1000000) acc = acc % 1000003;
    }
    return acc;
}
int sum(int *a, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) s += a[i];
    return s;
}
int scale(int *a, int n, int k) {
    for (int i = 0; i < n; i++) a[i] = a[i] * k;
    return n;
}
int dot(int *a, int *b, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) s += a[i] * b[i];
    return s;
}
int clamp(int x, int lo, int hi) {
    if (x < lo) return lo;
    if (x > hi) return hi;
    return x;
}
int main() {
    int arr[8];
    int brr[8];
    for (int i = 0; i < 8; i++) { arr[i] = i * 3; brr[i] = i + 1; }
    int acc = mix(5, 40) + fib(9) + sum(arr, 8) + dot(arr, brr, 8);
    acc += scale(arr, 8, 2) + clamp(acc, 0, 1000);
    return acc % 97;
}
"""

#: One cold stage plus seven re-runs over the same module.
STAGES = 8
OPTS = OptOptions.o3()


def _run_stages(baseline: bool):
    """(wall time of STAGES canonicalize+optimize invocations over one
    module, final printed IR, the module)."""
    if baseline:
        os.environ["REPRO_PASS_BASELINE"] = "1"
    else:
        os.environ.pop("REPRO_PASS_BASELINE", None)
        clear_memo()
    try:
        module = compile_to_ir(SOURCE, name="opt_bench", config=None)
        start = time.perf_counter()
        for _ in range(STAGES):
            canonicalize_module(module)
            optimize_module(module, OPTS)
        elapsed = time.perf_counter() - start
        return elapsed, module_to_text(module), module
    finally:
        os.environ.pop("REPRO_PASS_BASELINE", None)


def _best_of(n: int, baseline: bool):
    best = None
    for _ in range(n):
        result = _run_stages(baseline)
        if best is None or result[0] < best[0]:
            best = result
    return best


def test_bench_worklist_speedup(benchmark):
    """Manager vs legacy schedule on the duplicated-stage workload; the
    outputs must be byte-identical and the win >= 1.3x."""
    _run_stages(True)  # warm both code paths once
    _run_stages(False)

    baseline_s, baseline_text, baseline_module = _best_of(3, True)

    obs.enable(reset=True)
    try:
        manager_s, manager_text, manager_module = benchmark.pedantic(
            lambda: _best_of(3, False), rounds=1, iterations=1)
        counters = dict(obs.recorder().registry.counters)
    finally:
        obs.disable()

    assert manager_text == baseline_text
    assert compile_ir(manager_module).to_json() == \
        compile_ir(baseline_module).to_json()

    skipped = counters.get("opt.manager.skipped", 0)
    requeued = counters.get("opt.manager.requeued", 0)
    nfuncs = len(manager_module.functions)
    # 2 schedules x STAGES, minus the one cold visit per schedule.
    revisits = nfuncs * 2 * (STAGES - 1)
    assert skipped >= revisits, (
        f"manager skipped only {skipped} of {revisits} warm visits")

    speedup = baseline_s / manager_s
    benchmark.extra_info["baseline_seconds"] = baseline_s
    benchmark.extra_info["manager_seconds"] = manager_s
    benchmark.extra_info["speedup_vs_baseline"] = speedup
    benchmark.extra_info["stages"] = STAGES
    benchmark.extra_info["functions"] = nfuncs
    benchmark.extra_info["skipped"] = skipped
    benchmark.extra_info["skip_rate"] = skipped / max(
        skipped + counters.get("opt.pass.simplifycfg.entry.runs", 0), 1)
    benchmark.extra_info["requeued"] = requeued
    assert speedup >= 1.3, (
        f"pass-manager speedup {speedup:.2f}x < 1.3x "
        f"(baseline {baseline_s*1e3:.1f}ms, manager {manager_s*1e3:.1f}ms)")
