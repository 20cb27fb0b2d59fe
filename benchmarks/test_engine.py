"""Engine benches: tracing a binary on the cached-block machine, and
running a lifted module on the compiled IR interpreter, warm and on
first entry."""

import pytest

from repro import obs
from repro.binary.image import BinaryImage
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


#: Straight-line calls whose blocks run a few times each, so a run costs
#: about what compiling its blocks on first entry costs.
COLD_SOURCE = r"""
int sq(int x) { return x * x; }
int mix(int a, int b) { if (a > b) return a - b; return b - a + 1; }
int pick(int v) {
    switch (v & 3) {
    case 0: return 10;
    case 1: return 20;
    case 2: return 30;
    default: return 40;
    }
}
int main() {
    int a = sq(3);
    int b = mix(a, 4);
    int c = mix(b, a);
    printf("%d %d %d %d\n", a, b, pick(c), pick(a + b));
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


def test_bench_first_entry(benchmark):
    """Each round traces a fresh copy of a small image (cold decoder and
    block cache), then runs a fresh interpreter over a freshly lifted
    module (cold layouts and blocks): what compiling blocks on their
    first entry costs both engines."""
    # ``stripped()`` is memoized, so a fresh copy comes from JSON.
    text = compile_source(COLD_SOURCE, "gcc12", "0",
                          "first_entry").stripped().to_json()
    expected = trace_binary(BinaryImage.from_json(text), [[]]).results

    def setup():
        traces = trace_binary(BinaryImage.from_json(text), [[]])
        module, _, _, _ = wytiwyg_lift(traces)
        return (BinaryImage.from_json(text), module), {}

    def first_entry(stripped, module):
        traced = trace_binary(stripped, [[]])
        return traced, Interpreter(module, traced.inputs[0]).run()

    args, _ = setup()
    obs.enable(reset=True)
    try:
        traced, result = first_entry(*args)
        counters = dict(obs.recorder().registry.counters)
    finally:
        obs.disable()
    assert traced.results == expected
    assert result.stdout == expected[0].stdout
    benchmark.extra_info["emu_blocks_compiled"] = \
        counters["emu.block_cache.compiled_blocks"]
    benchmark.extra_info["ir_blocks_compiled"] = \
        counters["ir.code_cache.compiles"]
    benchmark.extra_info["emu_instructions"] = expected[0].instructions
    benchmark.extra_info["ir_steps"] = result.steps
    benchmark.pedantic(first_entry, setup=setup, rounds=15)


def test_block_cache_hit_rate(image):
    """The superblock cache must serve >= 90% of dispatches on the bench
    workload — its loops re-enter the same compiled blocks, so anything
    lower means the cache is being dropped or bypassed."""
    # A new image object has a cold block cache; ``stripped()`` is
    # memoized, and the benches above have traced its result.
    stripped = BinaryImage.from_json(image.stripped().to_json())
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
