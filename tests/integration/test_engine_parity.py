"""Engine-parity differentials on real workloads.

The acceptance property of the execution engines: the cached-block
machine and the compiled IR interpreter must be observationally
equivalent to their per-step reference paths — byte-identical program
output, equal merged trace sets, equal tracing-runtime observations after
the bounds runs, and equal recovered frame layouts.
"""

import copy

import pytest

from repro.core.driver import wytiwyg_lift
from repro.emu import trace_binary
from repro.ir.interp import Interpreter
from repro.replay import ReplayEngine
from repro.workloads import WORKLOADS
from tests.conftest import KERNEL_SOURCE, cached_image

PARITY_WORKLOADS = ("mcf", "gcc", "hmmer")


@pytest.fixture(scope="module", params=PARITY_WORKLOADS)
def traced_pair(request):
    workload = WORKLOADS[request.param]
    image = workload.compile("gcc12", "3").stripped()
    inputs = workload.inputs()
    blocks = trace_binary(image, inputs, use_blocks=True)
    steps = trace_binary(image, inputs, use_blocks=False)
    return blocks, steps


def test_run_results_byte_identical(traced_pair):
    blocks, steps = traced_pair
    assert len(blocks.results) == len(steps.results)
    for got, want in zip(blocks.results, steps.results, strict=True):
        assert got.stdout == want.stdout
        assert got.exit_code == want.exit_code
        assert got.cycles == want.cycles
        assert got.instructions == want.instructions


def test_merged_trace_sets_equal(traced_pair):
    blocks, steps = traced_pair
    assert blocks.executed == steps.executed
    assert blocks.transfers == steps.transfers
    assert blocks.inputs == steps.inputs
    assert blocks.vararg_counts == steps.vararg_counts
    assert blocks.vararg_counts


def test_recovered_layouts_equal(traced_pair):
    blocks, steps = traced_pair
    _, layouts_blocks, _, _ = wytiwyg_lift(blocks)
    _, layouts_steps, _, _ = wytiwyg_lift(steps)
    assert layouts_blocks == layouts_steps


def test_compiled_interpreter_layouts_match_reference(monkeypatch):
    # Same traces through the refinement pipeline with the compiled IR
    # engine on and off: identical layouts and notes.
    workload = WORKLOADS["mcf"]
    image = workload.compile("gcc12", "3").stripped()
    traces = trace_binary(image, workload.inputs())
    monkeypatch.setenv("REPRO_IR_COMPILED", "1")
    module_c, layouts_c, notes_c, _ = wytiwyg_lift(traces)
    monkeypatch.setenv("REPRO_IR_COMPILED", "0")
    module_r, layouts_r, notes_r, _ = wytiwyg_lift(traces)
    assert layouts_c == layouts_r
    assert notes_c == notes_r
    # And the refined modules behave identically on the traced inputs.
    for items, expected in zip(traces.inputs, traces.results,
                               strict=True):
        got_c = Interpreter(module_c, items).run()
        got_r = Interpreter(module_r, items).run()
        assert got_c.stdout == got_r.stdout == expected.stdout
        assert got_c.exit_code == got_r.exit_code == \
            expected.exit_code & 0xFFFFFFFF


@pytest.mark.parametrize("opt_level", ["0", "3"])
def test_compiled_and_reference_probes_leave_equal_runtimes(monkeypatch,
                                                            opt_level):
    # Both engines run the probes the tracing runtime compiles: after
    # the bounds runs their runtimes hold the same observations, in the
    # same first-touch order.
    image = cached_image(KERNEL_SOURCE, opt_level=opt_level)
    traces = trace_binary(image.stripped(), [[]])
    real = ReplayEngine.run_instrumented
    snapshots = {}

    def run_instrumented(self, module, stage):
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_IR_COMPILED", flag)
            runtime = real(self, module, stage)
            snapshots[flag] = copy.deepcopy(runtime.snapshot())
        return runtime

    monkeypatch.setattr(ReplayEngine, "run_instrumented", run_instrumented)
    wytiwyg_lift(traces)
    reference, compiled = snapshots["0"], snapshots["1"]
    assert compiled["stack_vars"] and compiled["arg_accesses"]
    assert compiled == reference
    for key in ("stack_vars", "arg_accesses"):
        assert list(compiled[key]) == list(reference[key])
