"""Backend bench: the fingerprint-keyed lowering cache.

Runs as the fifth ``tools/bench.sh`` pass and lands in
``BENCH_lower.json``.  **Warm recompile** — ``compile_ir`` over an
optimized module, then a one-function edit and a recompile: only the
edited function may re-lower (warm hit rate >= 90%), and the warm
compile must beat the cold one.
"""

import time

import pytest

from repro import obs
from repro.cc.driver import compile_to_ir
from repro.ir.values import BinOp, Const
from repro.opt import OptOptions, clear_memo, optimize_module
from repro.recompile import clear_lower_cache, compile_ir

pytestmark = pytest.mark.bench

#: Twelve functions: wide enough that a one-function edit keeps the
#: warm hit rate at 11/12 > 90%.
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
int gcd(int a, int b) { while (b) { int t = a % b; a = b; b = t; } return a; }
int pow3(int n) { int p = 1; for (int i = 0; i < n; i++) p *= 3; return p; }
int minv(int *a, int n) {
    int m = a[0];
    for (int i = 1; i < n; i++) if (a[i] < m) m = a[i];
    return m;
}
int maxv(int *a, int n) {
    int m = a[0];
    for (int i = 1; i < n; i++) if (a[i] > m) m = a[i];
    return m;
}
int rev(int x) { int r = 0; while (x) { r = r * 10 + x % 10; x /= 10; } return r; }
int main() {
    int arr[8];
    int brr[8];
    for (int i = 0; i < 8; i++) { arr[i] = i * 3; brr[i] = i + 1; }
    int acc = mix(5, 40) + fib(9) + sum(arr, 8) + dot(arr, brr, 8);
    acc += scale(arr, 8, 2) + clamp(acc, 0, 1000);
    acc += gcd(84, 35) + pow3(7) + minv(brr, 8) + maxv(arr, 8) + rev(acc);
    return acc % 97;
}
"""

#: Inlining stays off so all thirteen functions survive — o3 collapses
#: this workload to two functions, which would starve the lowering
#: cache of work.
OPTS = OptOptions(level=2, inline=False)


def _optimized_module():
    module = compile_to_ir(SOURCE, name="lower_bench", config=None)
    clear_memo()
    optimize_module(module, OPTS)
    return module


def _cache_counters():
    counters = dict(obs.recorder().registry.counters)
    return {k.rsplit(".", 1)[-1]: v for k, v in counters.items()
            if k.startswith("lower.cache.")}


def test_bench_lower_cache_warm_recompile(benchmark):
    """Cold vs warm compile_ir; a one-function edit re-lowers exactly
    that function."""
    module = _optimized_module()
    nfuncs = len(module.functions)
    compile_ir(module)  # warm both code paths (and the phi-split keys)

    cold_s = None
    for _ in range(3):
        clear_lower_cache()
        start = time.perf_counter()
        cold_image = compile_ir(module)
        elapsed = time.perf_counter() - start
        cold_s = elapsed if cold_s is None else min(cold_s, elapsed)

    obs.enable(reset=True)
    try:
        start = time.perf_counter()
        warm_image = benchmark.pedantic(lambda: compile_ir(module),
                                        rounds=1, iterations=1)
        warm_s = time.perf_counter() - start
        for _ in range(2):
            start = time.perf_counter()
            compile_ir(module)
            warm_s = min(warm_s, time.perf_counter() - start)
        unchanged = _cache_counters()

        # One-function edit: everything else stays warm.
        victim = module.functions["rev"]
        victim.entry.insert(0, BinOp("add", Const(1), Const(2)))
        victim.invalidate()
        obs.enable(reset=True)
        edited_image = compile_ir(module)
        edited = _cache_counters()
    finally:
        obs.disable()

    assert warm_image.to_json() == cold_image.to_json()
    assert edited_image.to_json() != cold_image.to_json()

    assert unchanged.get("misses", 0) == 0
    assert unchanged.get("hits") == 3 * nfuncs  # three warm compiles
    relowered = edited.get("misses", 0)
    hit_rate = edited.get("hits", 0) / max(
        edited.get("hits", 0) + relowered, 1)
    assert relowered == 1, (
        f"one-function edit re-lowered {relowered} functions")
    assert hit_rate >= 0.9, f"warm hit rate {hit_rate:.0%} < 90%"

    speedup = cold_s / warm_s
    benchmark.extra_info["functions"] = nfuncs
    benchmark.extra_info["cold_seconds"] = cold_s
    benchmark.extra_info["warm_seconds"] = warm_s
    benchmark.extra_info["warm_speedup"] = speedup
    benchmark.extra_info["relowered_after_edit"] = relowered
    benchmark.extra_info["warm_hit_rate"] = hit_rate
    # Assembly/linking still runs warm, so the ceiling is lowering's
    # share of compile_ir; the hit-rate asserts above are the real gate.
    assert speedup >= 1.25, (
        f"warm compile speedup {speedup:.2f}x < 1.25x "
        f"(cold {cold_s*1e3:.1f}ms, warm {warm_s*1e3:.1f}ms)")
