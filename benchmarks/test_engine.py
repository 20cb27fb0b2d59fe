"""Engine benches: tracing a binary on the cached-block machine, and
running a lifted module on the compiled IR interpreter."""

import pytest

from repro import obs
from repro.cc import compile_source
from repro.core.driver import wytiwyg_lift
from repro.emu import trace_binary
from repro.ir import Interpreter

SOURCE = r"""
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() {
    int acc = 0;
    int i;
    for (i = 0; i < 40; i++) acc += fib(10) & 7;
    printf("acc=%d\n", acc);
    return 0;
}
"""


@pytest.fixture(scope="module")
def image():
    return compile_source(SOURCE, "gcc12", "3", "engine_bench")


@pytest.fixture(scope="module")
def traces(image):
    return trace_binary(image.stripped(), [[]])


def test_bench_machine_blocks(benchmark, image):
    stripped = image.stripped()
    benchmark(lambda: trace_binary(stripped, [[]]))


def test_bench_interp_compiled(benchmark, traces):
    module, _, _, _ = wytiwyg_lift(traces)
    run_items = traces.inputs[0]
    benchmark(lambda: Interpreter(module, run_items).run())


def test_block_cache_hit_rate(image):
    """The superblock cache must serve >= 90% of dispatches on the bench
    workload — its loops re-enter the same compiled blocks, so anything
    lower means the cache is being dropped or bypassed."""
    stripped = image.stripped()  # fresh image -> cold block cache
    obs.enable(reset=True)
    try:
        trace_binary(stripped, [[]])
        counters = obs.recorder().registry.counters
        hits = counters.get("emu.block_cache.hit", 0)
        misses = counters.get("emu.block_cache.miss", 0)
    finally:
        obs.disable()
    assert hits + misses > 0
    assert hits / (hits + misses) >= 0.90
