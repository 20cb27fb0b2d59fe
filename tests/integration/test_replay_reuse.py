"""Replay reuse across served requests: the ``replay`` store kind.

Each replay stage of a served request (the §4.1 observation, the §4.2
bounds runs and the final sweep) restores the state a ``replay`` record
holds for the module it runs and the longest stored prefix of its
distinct inputs, and runs and checks only the inputs after it.  A
request whose inputs extend no record replays them all.  Either way
the image equals a cold one-shot recompile, byte for byte, and the
restored observations equal a cold run's.
"""

import copy

import pytest

from repro import compile_source, obs, wytiwyg_recompile
from repro.core import driver
from repro.core.incremental import incremental_recompile
from repro.core.instrument import instrument_module
from repro.core.regsave import classify_registers
from repro.core.varargs import recover_vararg_calls
from repro.emu import trace_binary
from repro.ir.values import CallExt, Const, Intrinsic
from repro.lifting import lift_traces
from repro.replay import ReplayEngine, engine
from repro.replay.engine import module_text
from repro.store import ArtifactStore, image_key, lifted_module_key
from repro.workloads import WORKLOADS
from tests.conftest import e2e_cells
from tests.integration.test_backend_reuse import BASE, SOURCE

#: Replay stages per distinct input: observation, bounds, sweep.
STAGES = 3


@pytest.fixture(scope="module")
def image():
    return compile_source(SOURCE, "gcc12", "0", "extent")


def _distinct(runs) -> int:
    return len({repr(items) for items in runs})


def _serve(image, runs, store):
    """One served request with the recorder on: (result, counters)."""
    rec = obs.enable(reset=True)
    try:
        served = incremental_recompile(image, runs, store)
        counters = dict(rec.registry.counters)
    finally:
        obs.disable()
    return served, counters


def _replay_records(store) -> list:
    return [store.get("replay", key)
            for kind, key, *_ in store.entries() if kind == "replay"]


def _extent_case():
    """``fill``'s array extent is the larger base input's: a stage that
    lost the restored state would hold the added input's smaller one."""
    return (compile_source(SOURCE, "gcc12", "0", "extent"),
            BASE + [[6, 0, 5]], [[4, 0, 7]])


#: ``twice`` runs only on inputs whose ``k`` is not 0.
BRANCH_SOURCE = r"""
int twice(int v) { return v * 2; }
int main() {
    int k = read_int();
    int v = read_int();
    if (k) v = twice(v);
    printf("%d\n", v);
    return 0;
}
"""


def _branch_case():
    """The added input reaches no new code and calls none of the
    functions only a base input calls: a stage that lost the restored
    state would classify no ``twice``."""
    return (compile_source(BRANCH_SOURCE, "gcc12", "0", "branch"),
            [[1, 3], [0, 3]], [[0, 4]])


def _campaign_case():
    """The end-to-end benchmark's campaign-add xalancbmk cell."""
    cell = next(c for c in e2e_cells().build_cells("campaign-add", 1)
                if c.program == "xalancbmk")
    image = WORKLOADS[cell.program].compile(cell.compiler, cell.opt)
    return image, cell.runs[:cell.base], cell.runs[cell.base:]


@pytest.mark.parametrize("case", [_extent_case, _branch_case,
                                  _campaign_case],
                         ids=["extent", "branch", "campaign-add"])
def test_a_served_request_replays_only_the_added_inputs(case, tmp_path,
                                                        monkeypatch):
    image, base, added = case()
    store = ArtifactStore(tmp_path / "store")
    incremental_recompile(image, base, store)

    # Each pipeline run's §4.1 classification and §4.2 runtime state.
    observed = []
    real_classify = driver.classify_registers
    real_bounds = ReplayEngine.run_instrumented

    def classify_registers(module, inputs, **kw):
        result = real_classify(module, inputs, **kw)
        observed.append({"regsave": copy.deepcopy(result)})
        return result

    def run_instrumented(self, module, stage, classification):
        runtime = real_bounds(self, module, stage, classification)
        observed[-1]["bounds"] = copy.deepcopy(runtime.snapshot())
        return runtime

    monkeypatch.setattr(driver, "classify_registers", classify_registers)
    monkeypatch.setattr(ReplayEngine, "run_instrumented", run_instrumented)

    runs = base + added
    served, counters = _serve(image, runs, store)
    assert counters["replay.runs"] == counters["ir.runs"] \
        == STAGES * len(added)
    assert counters["replay.reused"] == served.stats.replay_reused \
        == STAGES * _distinct(base)

    cold = wytiwyg_recompile(image, runs)
    assert served.recovered.to_json() == cold.recovered.to_json()
    restored, fresh = observed
    assert restored["regsave"] == fresh["regsave"]
    assert restored["bounds"] == fresh["bounds"]
    # First-touch order too, which the layouts are built in.
    for part in ("stack_vars", "arg_accesses"):
        assert list(restored["bounds"][part]) == list(fresh["bounds"][part])


@pytest.mark.parametrize("base, runs", [
    # New code: every stage runs a module no record was made on.
    (BASE, BASE + [[4, 2, 5]]),
    # The same module, but no record holds a prefix of these inputs.
    (BASE + [[6, 0, 5]], [[6, 0, 5]] + BASE),
    (BASE + [[6, 0, 5]], BASE),
], ids=["new-code", "reordered", "shorter"])
def test_inputs_that_extend_no_record_replay_in_full(image, tmp_path, base,
                                                     runs):
    store = ArtifactStore(tmp_path / "store")
    incremental_recompile(image, base, store)
    served, counters = _serve(image, runs, store)
    assert counters["replay.runs"] == STAGES * _distinct(runs)
    assert "replay.reused" not in counters
    assert served.stats.replay_reused == 0
    cold = wytiwyg_recompile(image, runs)
    assert served.recovered.to_json() == cold.recovered.to_json()


def test_a_corrupt_replay_record_is_counted_and_recomputed(image,
                                                           tmp_path):
    store = ArtifactStore(tmp_path / "store")
    incremental_recompile(image, BASE, store)
    paths = [path for kind, _key, path, *_ in store.entries()
             if kind == "replay"]
    assert len(paths) == STAGES
    for path in paths:
        path.write_bytes(b"not a pickle")

    runs = BASE + [[6, 0, 5]]
    served, counters = _serve(image, runs, store)
    assert counters["store.corrupt"] == STAGES
    assert counters["replay.runs"] == STAGES * _distinct(runs)
    assert served.stats.replay_reused == 0
    cold = wytiwyg_recompile(image, runs)
    assert served.recovered.to_json() == cold.recovered.to_json()

    # The request recorded its own state, which the next one resumes.
    served, counters = _serve(image, runs + [[4, 0, 7]], store)
    assert counters["replay.runs"] == STAGES
    assert served.stats.replay_reused == STAGES * _distinct(runs)


def test_a_stage_whose_check_fails_writes_no_record(image, tmp_path,
                                                    monkeypatch):
    real = driver.instrument_module

    def instrument_module(module):
        # The instrumented program exits 123, so the bounds run's check
        # fails on the first input.
        mi = real(module)
        for func in module.functions.values():
            for instr in func.instructions():
                if isinstance(instr, CallExt) and instr.ext_name == "exit":
                    instr.ops = [Const(123)]
                    instr.stack_args = False
            func.invalidate()
        return mi

    monkeypatch.setattr(driver, "instrument_module", instrument_module)
    store = ArtifactStore(tmp_path / "store")
    served = incremental_recompile(image, BASE, store)
    assert served.fallback
    assert "register refinement broke functionality" in served.notes[0]
    # Only the §4.1 observation passed, so only its record exists: no
    # runtime snapshot and no sweep verdict.
    record, = _replay_records(store)
    assert set(record) == {"used", "forwarded", "modified",
                           "indirect_targets", "seen_functions"}


def test_the_module_key_text_covers_what_a_run_reads_beyond_the_printed_text(
        image):
    module = lift_traces(trace_binary(image.stripped(), BASE))
    instrument_module(module)
    text = module_text(module)
    probe = next(instr for func in module.functions.values()
                 for instr in func.instructions()
                 if isinstance(instr, Intrinsic))
    probe.meta["ghost"] = 1
    assert module_text(module) != text
    del probe.meta["ghost"]
    module.metadata["ghost"] = "1"
    assert module_text(module) != text
    del module.metadata["ghost"]
    module.address_table[0x1234] = "ghost"
    assert module_text(module) != text
    del module.address_table[0x1234]
    # No run, optimizer pass or lowering reads a function's meta.
    func = next(iter(module.functions.values()))
    func.meta["inline_serial"] = 7
    assert module_text(module) == text


@pytest.mark.parametrize("added", [[6, 0, 5], [4, 2, 5]],
                         ids=["same-code", "new-code"])
def test_a_served_request_prints_only_the_symbolized_module(
        image, tmp_path, monkeypatch, added):
    store = ArtifactStore(tmp_path / "store")
    incremental_recompile(image, BASE, store)
    printed = []
    real = engine.module_text

    def counting(module):
        printed.append(module)
        return real(module)

    monkeypatch.setattr(engine, "module_text", counting)
    served = incremental_recompile(image, BASE + [added], store)
    assert len(printed) == 1
    cold = wytiwyg_recompile(image, BASE + [added])
    assert served.recovered.to_json() == cold.recovered.to_json()


def test_equal_coverage_in_another_order_lifts_the_module_of_its_key(image):
    # The lifted module's key reads only the trace coverage: two input
    # orders that cover the same code share a key, and the lifter, the
    # varargs rewrite and the register promotion build one module.
    runs = BASE + [[6, 0, 5], [4, 0, 7]]
    modules, keys = [], set()
    for order in (runs, runs[::-1]):
        traces = trace_binary(image, order)
        module = lift_traces(traces)
        recover_vararg_calls(module, traces)
        classify_registers(module, [])
        modules.append(module_text(module))
        keys.add(lifted_module_key(image_key(image), traces))
    assert len(keys) == 1
    assert modules[0] == modules[1]
