"""Replay-engine benches: refinement wall time with input dedup,
every replay run doubling as a validation check, the §4.2 tracing
runtime's share of a bounds run and the §4.1 observer's share of a
register observation run.

Runs as the third ``tools/bench.sh`` pass and lands in
``BENCH_replay.json``: each bench's ``extra_info`` records the
refinement wall time, the dedup count and the replay run count, so a
CI job can diff a run against a saved one.

The workload carries duplicated inputs, as real trace sets do (the same
seed input is typically traced under several configurations): each
distinct input replays once per stage.
"""

import time
from unittest import mock

import pytest

from repro import obs
from repro.cc import compile_source
from repro.core import driver
from repro.core.driver import wytiwyg_lift, wytiwyg_recompile
from repro.core.regsave import RegSavePlugin
from repro.core.runtime import TracingRuntime
from repro.emu import trace_binary
from repro.ir.interp import Interpreter
from repro.replay import ReplayEngine
from repro.workloads import WORKLOADS

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


def _timed_recompile(image, traces):
    start = time.perf_counter()
    result = wytiwyg_recompile(image, INPUTS, traces=traces,
                               allow_fallback=False)
    return time.perf_counter() - start, result


def test_bench_replay_refinement(benchmark, workload):
    """One observed serial refinement: each distinct input replayed
    once per stage."""
    image, traces = workload

    obs.enable(reset=True)
    try:
        serial_s, result = benchmark.pedantic(
            lambda: _timed_recompile(image, traces),
            rounds=1, iterations=1)
        counters = dict(obs.recorder().registry.counters)
    finally:
        obs.disable()
    assert not result.fallback

    deduped = counters.get("replay.deduped", 0)
    runs = counters.get("replay.runs", 0)
    assert deduped == len(INPUTS) - len(DISTINCT)
    assert runs == 3 * len(DISTINCT)

    benchmark.extra_info["serial_seconds"] = serial_s
    benchmark.extra_info["inputs_deduped"] = deduped
    benchmark.extra_info["replay_runs"] = runs


#: The bounds-run bench: mcf at gcc12-O3 on its ref input, the first
#: program of the e2e benchmark's long-trace workload.
OBSERVED_PROGRAM = ("mcf", "gcc12", "3")
#: Best of this many runs per configuration.
OBSERVED_ROUNDS = 3


def _bounds_run(module, items, runtime):
    """Seconds to run the instrumented ``module`` on ``items`` in a fresh
    interpreter (its blocks compile cold, as in the bounds stage), with
    ``runtime`` as the probe compiler or, when None, none."""
    start = time.perf_counter()
    with Interpreter(module, items, probes=runtime) as interp:
        if runtime is not None:
            runtime.bind(interp)
        interp.run()
    return time.perf_counter() - start


def _snapshot_doc(runtime):
    """A runtime's snapshot with its discovery order made explicit."""
    snap = runtime.snapshot()
    return (list(snap["stack_vars"].items()),
            list(snap["arg_accesses"].items()), snap["links"])


def test_bench_bounds_observer_share(benchmark):
    """The bounds stage's instrumented module, run with the tracing
    runtime and with no probe compiler: the difference is the runtime's
    bookkeeping.  Two runtime runs must observe the same facts."""
    program, compiler, opt = OBSERVED_PROGRAM
    workload = WORKLOADS[program]
    items = workload.inputs()[0]
    traces = trace_binary(workload.compile(compiler, opt).stripped(),
                          [items])
    timings: dict = {}
    real = ReplayEngine.run_instrumented

    def measured(engine, module, stage, classification):
        # ``module`` carries its probes only inside this call.
        snapshots = []
        for _ in range(OBSERVED_ROUNDS):
            runtime = TracingRuntime()
            timings.setdefault("runtime", []).append(
                _bounds_run(module, items, runtime))
            snapshots.append(_snapshot_doc(runtime))
            timings.setdefault("bare", []).append(
                _bounds_run(module, items, None))
        timings["snapshots"] = snapshots
        return real(engine, module, stage, classification)

    with mock.patch.object(ReplayEngine, "run_instrumented", measured):
        benchmark.pedantic(lambda: wytiwyg_lift(traces), rounds=1,
                           iterations=1)

    first, *rest = timings["snapshots"]
    assert first[0], "the bounds run recovered no stack variable"
    assert all(snap == first for snap in rest)
    runtime_s, bare_s = min(timings["runtime"]), min(timings["bare"])
    benchmark.extra_info["program"] = "{}@{}-O{}".format(*OBSERVED_PROGRAM)
    benchmark.extra_info["runtime_seconds"] = runtime_s
    benchmark.extra_info["no_probes_seconds"] = bare_s
    benchmark.extra_info["bookkeeping_seconds"] = runtime_s - bare_s
    benchmark.extra_info["runtime_over_no_probes"] = runtime_s / bare_s


def _regsave_run(module, items, plugin):
    """Seconds to run the promoted lifted ``module`` on ``items`` in a
    fresh interpreter, with ``plugin`` as the shadow plugin or, when
    None, none."""
    start = time.perf_counter()
    with Interpreter(module, items, shadow=plugin) as interp:
        interp.run()
    return time.perf_counter() - start


def _observation_doc(plugin):
    """A plugin's observations with their insertion order explicit."""
    return (list(plugin.used.items()),
            [(key, sorted(targets))
             for key, targets in plugin.forwarded.items()],
            list(plugin.modified.items()),
            sorted(plugin.indirect_targets),
            sorted(plugin.seen_functions))


def test_bench_regsave_observer_share(benchmark):
    """The §4.1 observation's module (lifted, varargs rewritten,
    registers promoted), run with the register plugin and with no
    plugin: the difference is the observer's cost, less what the shadow
    run saves by not computing dead values.  Two plugin runs must
    observe the same state."""
    program, compiler, opt = OBSERVED_PROGRAM
    workload = WORKLOADS[program]
    items = workload.inputs()[0]
    traces = trace_binary(workload.compile(compiler, opt).stripped(),
                          [items])
    timings: dict = {}
    real = driver.classify_registers

    def measured(module, inputs, check=None):
        # ``real`` promotes ``module`` before it observes it, and the
        # register rewrite changes it after this call returns.
        result = real(module, inputs, check)
        observations = []
        for _ in range(OBSERVED_ROUNDS):
            plugin = RegSavePlugin()
            timings.setdefault("plugin", []).append(
                _regsave_run(module, items, plugin))
            observations.append(_observation_doc(plugin))
            timings.setdefault("bare", []).append(
                _regsave_run(module, items, None))
        timings["observations"] = observations
        return result

    with mock.patch.object(driver, "classify_registers", measured):
        benchmark.pedantic(lambda: wytiwyg_lift(traces), rounds=1,
                           iterations=1)

    first, *rest = timings["observations"]
    assert first[4], "the observation saw no lifted function"
    assert all(doc == first for doc in rest)
    plugin_s, bare_s = min(timings["plugin"]), min(timings["bare"])
    benchmark.extra_info["program"] = "{}@{}-O{}".format(*OBSERVED_PROGRAM)
    benchmark.extra_info["plugin_seconds"] = plugin_s
    benchmark.extra_info["no_plugin_seconds"] = bare_s
    benchmark.extra_info["observer_seconds"] = plugin_s - bare_s
    benchmark.extra_info["plugin_over_no_plugin"] = plugin_s / bare_s
