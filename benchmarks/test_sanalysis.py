"""Static-analysis benches: warm reuse of the interprocedural summary
cache across repeated corroboration runs.

Runs as the sixth ``tools/bench.sh`` pass and lands in
``BENCH_sanalysis.json``.  The scenario mirrors the serve daemon's
steady state: the same lifted module is re-corroborated after every
incremental trace addition, but only the functions a refinement
actually touched changed — so per-function local summaries (the
expensive abstract-interpretation leg) must come from the
version-keyed cache, and a one-function edit must recompute exactly
that function's summary while every other function is reused.
"""

import time

import pytest

from repro import obs
from repro.ir import Builder, Const, Function, Module
from repro.ir.values import BinOp
from repro.sanalysis.interproc import summarize_module

pytestmark = pytest.mark.bench

REG_ORDER = ["eax", "ecx", "edx", "ebx", "ebp", "esi", "edi"]

#: Wide enough that a one-function edit keeps the reuse rate above
#: 95%, and that the cold abstract-interpretation sweep has real work.
N_WORKERS = 24
#: Straight-line frame traffic per worker; the region-tagged
#: interpreter walks every instruction each round until convergence.
N_SLOTS = 48


def _lifted_function(name, entry):
    f = Function(name, ["sp", *REG_ORDER], nresults=7)
    f.orig_entry = entry
    return f


def _leaf(name, entry):
    """A callee dereferencing a pointer argument: its footprint keeps
    the bottom-up propagation leg honest in every measured run."""
    f = _lifted_function(name, entry)
    b = Builder(f)
    b.position(f.add_block("entry"))
    p = b.load(b.add(f.params[0], Const(4)))
    for j in range(8):
        b.store(b.add(p, Const(4 * j)), Const(j))
    b.ret([Const(0)] * 7)
    return f


def _worker(name, entry, leaf):
    """Local frame traffic plus a call passing a frame pointer."""
    f = _lifted_function(name, entry)
    b = Builder(f)
    b.position(f.add_block("entry"))
    sp0 = f.params[0]
    acc = Const(0)
    for j in range(N_SLOTS):
        slot = b.add(sp0, Const(-4 * (j + 1)))
        b.store(slot, acc)
        acc = b.add(b.load(slot), Const(j))
    esp1 = b.sub(sp0, Const(4 * (N_SLOTS + 4)))
    buf = b.add(sp0, Const(-4 * N_SLOTS))
    b.store(b.add(esp1, Const(4)), buf)
    b.call(leaf, [esp1] + list(f.params[1:]), nresults=7)
    b.ret([acc] + [Const(0)] * 6)
    return f


def _build_module():
    module = Module("sanalysis_bench")
    leaf = _leaf("fn_9000", 0x9000)
    funcs = [leaf]
    root = _lifted_function("fn_8000", 0x8000)
    rb = Builder(root)
    rb.position(root.add_block("entry"))
    for i in range(N_WORKERS):
        worker = _worker(f"fn_{0x1000 + i:x}", 0x1000 + i, leaf)
        funcs.append(worker)
        esp1 = rb.sub(root.params[0], Const(64))
        rb.call(worker, [esp1] + list(root.params[1:]), nresults=7)
    rb.ret([Const(0)] * 7)
    funcs.append(root)
    for f in funcs:
        module.add_function(f)
        module.address_table[f.orig_entry] = f.name
    return module


def _summary_counters():
    counters = dict(obs.recorder().registry.counters)
    return {k.rsplit(".", 1)[-1]: v for k, v in counters.items()
            if k.startswith("sanalysis.summary.")}


def test_bench_summary_cache_warm_reuse(benchmark):
    """Cold vs warm summarize_module; a one-function edit recomputes
    exactly one local summary."""
    module = _build_module()
    nfuncs = len(module.functions)

    obs.enable(reset=True)
    try:
        start = time.perf_counter()
        cold_summaries = summarize_module(module)
        cold_s = time.perf_counter() - start
        cold = _summary_counters()

        obs.enable(reset=True)
        start = time.perf_counter()
        warm_summaries = benchmark.pedantic(
            lambda: summarize_module(module), rounds=1, iterations=1)
        warm_s = time.perf_counter() - start
        for _ in range(2):
            start = time.perf_counter()
            summarize_module(module)
            warm_s = min(warm_s, time.perf_counter() - start)
        warm = _summary_counters()

        # One-function edit: only the edited function recomputes.
        victim = module.functions["fn_1003"]
        victim.entry.insert(0, BinOp("add", Const(1), Const(2)))
        victim.invalidate()
        obs.enable(reset=True)
        start = time.perf_counter()
        edited_summaries = summarize_module(module)
        edit_s = time.perf_counter() - start
        edited = _summary_counters()
    finally:
        obs.disable()

    # The caches never change the answer.
    assert set(cold_summaries) == set(warm_summaries) \
        == set(edited_summaries)
    for name, fs in cold_summaries.items():
        assert warm_summaries[name].footprints == fs.footprints

    assert cold.get("computed") == nfuncs
    assert cold.get("reused", 0) == 0
    assert warm.get("computed", 0) == 0
    assert warm.get("reused") == 3 * nfuncs    # three warm sweeps
    assert edited.get("computed") == 1, (
        f"one-function edit recomputed {edited.get('computed')} "
        f"summaries")
    assert edited.get("reused") == nfuncs - 1
    reuse_rate = edited["reused"] / nfuncs

    speedup = cold_s / warm_s
    benchmark.extra_info["functions"] = nfuncs
    benchmark.extra_info["cold_seconds"] = cold_s
    benchmark.extra_info["warm_seconds"] = warm_s
    benchmark.extra_info["warm_speedup"] = speedup
    benchmark.extra_info["edit_seconds"] = edit_s
    benchmark.extra_info["recomputed_after_edit"] = edited["computed"]
    benchmark.extra_info["edit_reuse_rate"] = reuse_rate
    assert reuse_rate >= 0.95, f"reuse rate {reuse_rate:.0%} < 95%"
    # Warm runs still pay the (unmemoized) bottom-up propagation, so
    # the ceiling is the local-summary share of the sweep.
    assert speedup >= 2.0, (
        f"warm summary speedup {speedup:.2f}x < 2.0x "
        f"(cold {cold_s*1e3:.1f}ms, warm {warm_s*1e3:.1f}ms)")
