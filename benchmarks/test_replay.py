"""Replay-engine benches: refinement wall time with the replay
optimizations (input dedup + ``jobs`` fan-out, every replay run doubling
as a validation check) against the pre-engine baseline.

Runs as the third ``tools/bench.sh`` pass and lands in
``BENCH_replay.json``: each bench's ``extra_info`` records the baseline
and optimized refinement wall times, the speedup, the dedup count and
the replay run count, so a CI job can diff a run against a saved
baseline.

``REPRO_REPLAY_BASELINE=1`` turns input dedup off (every traced input
replays at every stage); the headline speedup is optimized ``jobs=4``
vs that baseline.  On a single-core runner the parallel fan-out
contributes nothing — the dedup win alone must carry the ratio, which
is why the workload carries duplicated inputs (as real trace sets do:
the same seed input is typically traced under several configurations).

Each stage compiles a block once for all of its runs, so the baseline's
duplicate runs reuse compiled code: it makes as many block compiles as
the deduplicated serial run, and only its interpretation time is extra.
"""

import os
import time

import pytest

from repro import obs
from repro.cc import compile_source
from repro.core.driver import wytiwyg_recompile
from repro.emu import trace_binary

pytestmark = pytest.mark.bench

#: Exit-code workload (no printf).  Each distinct input replays three
#: times (register observation, bounds run, final validation sweep), as
#: with variadic sites: the varargs refinement takes its argument counts
#: from the trace and makes no run.
SOURCE = r"""
int mix(int seed, int rounds) {
    int acc = seed;
    for (int i = 0; i < rounds; i++) {
        acc = acc * 31 + i;
        if (acc > 1000000) acc = acc % 1000003;
    }
    return acc;
}
int main() {
    int n = read_int();
    int seed = read_int();
    return mix(seed, n * 40) % 97;
}
"""

#: >= 4 distinct inputs, each traced twice (8 runs total).
DISTINCT = [[40, 1], [50, 2], [60, 3], [70, 4]]
INPUTS = DISTINCT + DISTINCT


@pytest.fixture(scope="module")
def workload():
    image = compile_source(SOURCE, "gcc12", "3", "replay_bench")
    traces = trace_binary(image, INPUTS)
    return image, traces


def _timed_recompile(image, traces, jobs, baseline=False):
    old = os.environ.get("REPRO_REPLAY_BASELINE")
    if baseline:
        os.environ["REPRO_REPLAY_BASELINE"] = "1"
    else:
        os.environ.pop("REPRO_REPLAY_BASELINE", None)
    try:
        start = time.perf_counter()
        result = wytiwyg_recompile(image, INPUTS, traces=traces,
                                   allow_fallback=False, jobs=jobs)
        return time.perf_counter() - start, result
    finally:
        if old is None:
            os.environ.pop("REPRO_REPLAY_BASELINE", None)
        else:
            os.environ["REPRO_REPLAY_BASELINE"] = old


def _counters(image, traces, baseline):
    """The obs counters of one serial recompile (untimed)."""
    obs.enable(reset=True)
    try:
        _timed_recompile(image, traces, jobs=1, baseline=baseline)
        return dict(obs.recorder().registry.counters)
    finally:
        obs.disable()


def test_bench_replay_speedup(benchmark, workload):
    """Optimized refinement (jobs=4) vs the pre-engine baseline; the
    outputs must be byte-identical and the win >= 1.5x."""
    image, traces = workload

    baseline_s, baseline_result = _timed_recompile(
        image, traces, jobs=1, baseline=True)
    serial_s, serial_result = _timed_recompile(image, traces, jobs=1)

    obs.enable(reset=True)
    try:
        jobs4_s, jobs4_result = benchmark.pedantic(
            lambda: _timed_recompile(image, traces, jobs=4),
            rounds=1, iterations=1)
        counters = dict(obs.recorder().registry.counters)
    finally:
        obs.disable()

    # Functional equivalence: every configuration recompiles the same
    # binary (the replay engine's determinism contract).
    assert serial_result.recovered.to_json() == \
        baseline_result.recovered.to_json()
    assert jobs4_result.recovered.to_json() == \
        serial_result.recovered.to_json()
    assert not jobs4_result.fallback

    deduped = counters.get("replay.deduped", 0)
    runs = counters.get("replay.runs", 0)
    assert deduped == len(INPUTS) - len(DISTINCT)
    assert runs == 3 * len(DISTINCT)
    # One interpreter per stage: the baseline's 8 runs per stage
    # compile no more blocks than the deduplicated 4 do.
    compiles = {}
    for baseline, nruns in ((True, len(INPUTS)), (False, len(DISTINCT))):
        counted = _counters(image, traces, baseline)
        assert counted.get("replay.runs") == 3 * nruns
        compiles[baseline] = counted.get("ir.code_cache.compiles", 0)
    assert compiles[True] == compiles[False] > 0

    speedup = baseline_s / jobs4_s
    benchmark.extra_info["baseline_seconds"] = baseline_s
    benchmark.extra_info["serial_seconds"] = serial_s
    benchmark.extra_info["jobs4_seconds"] = jobs4_s
    benchmark.extra_info["speedup_vs_baseline"] = speedup
    benchmark.extra_info["inputs_deduped"] = deduped
    benchmark.extra_info["replay_runs"] = runs
    benchmark.extra_info["block_compiles"] = compiles[False]
    assert speedup >= 1.5, (
        f"replay engine speedup {speedup:.2f}x < 1.5x "
        f"(baseline {baseline_s:.2f}s, jobs=4 {jobs4_s:.2f}s)")
