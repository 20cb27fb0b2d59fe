"""Instrumentation pass structure: probes inserted, strippable."""

from types import SimpleNamespace

import pytest

from repro.core.instrument import instrument_module, strip_probes
from repro.core.sp0fold import fold_module_stack_refs
from repro.core.regsave import apply_register_classification, \
    classify_registers
from repro.core.varargs import recover_vararg_calls
from repro.core.driver import _canonicalize
from repro.emu import run_binary, trace_binary
from repro.ir import Interpreter, run_module, verify_module
from repro.ir.values import Intrinsic
from repro.lifting import lift_traces
from tests.conftest import FEATURE_SOURCE, KERNEL_SOURCE, cached_image


def prepared_module(source=KERNEL_SOURCE, opt_level="3"):
    image = cached_image(source, opt_level=opt_level)
    traces = trace_binary(image.stripped(), [[]])
    module = lift_traces(traces)
    recover_vararg_calls(module, traces)
    apply_register_classification(
        module, classify_registers(module, traces.inputs))
    _canonicalize(module)
    fold_module_stack_refs(module)
    return image, traces, module


def probes(module):
    return [i for f in module.functions.values()
            for i in f.instructions()
            if isinstance(i, Intrinsic) and i.intrinsic.startswith("wyt.")]


def test_probe_kinds_present():
    image, traces, module = prepared_module()
    mi = instrument_module(module)
    kinds = {p.intrinsic for p in probes(module)}
    for expected in ("wyt.fnenter", "wyt.fnexit", "wyt.stackref",
                     "wyt.load", "wyt.store", "wyt.callargs",
                     "wyt.callres", "wyt.extcall"):
        assert expected in kinds, expected
    assert mi.functions


def test_probes_do_not_change_behaviour():
    image, traces, module = prepared_module()
    baseline = run_binary(image)
    instrument_module(module)
    verify_module(module)
    seen = []
    count_probes = SimpleNamespace(
        compile=lambda instr, evs: lambda frame: seen.append(1))
    result = Interpreter(module, [], probes=count_probes).run()
    assert result.stdout == baseline.stdout
    assert seen  # probes actually fired


def test_strip_restores_module():
    image, traces, module = prepared_module()
    before = run_module(module).stdout
    instrument_module(module)
    removed = strip_probes(module)
    assert removed > 0
    assert not probes(module)
    verify_module(module)
    assert run_module(module).stdout == before


def test_ref_ids_unique_across_functions():
    image, traces, module = prepared_module()
    mi = instrument_module(module)
    all_ids = [rid for fi in mi.functions.values() for rid in fi.refs]
    assert len(all_ids) == len(set(all_ids))


def test_callsites_registered():
    image, traces, module = prepared_module()
    mi = instrument_module(module)
    from repro.ir.values import Call
    ncalls = sum(1 for f in module.functions.values()
                 for i in f.instructions()
                 if isinstance(i, Call)
                 and i.callee.name in mi.functions)
    nsites = sum(len(fi.callsites) for fi in mi.functions.values())
    assert nsites >= 1
    assert nsites <= ncalls + 1


@pytest.mark.parametrize("opt_level", ["0", "3"])
@pytest.mark.parametrize("source", [KERNEL_SOURCE, FEATURE_SOURCE],
                         ids=["kernel", "feature"])
def test_fnenter_runs_before_every_other_probe(source, opt_level):
    # The runtime keeps an activation's record on its frame from
    # ``fnenter`` on, with no fallback for a frame that lacks one: each
    # instrumented function's entry block starts with ``fnenter``, and
    # no block branches back to it.
    _image, _traces, module = prepared_module(source, opt_level)
    mi = instrument_module(module)
    assert mi.functions
    for name in mi.functions:
        func = module.functions[name]
        first = func.entry.instrs[0]
        assert isinstance(first, Intrinsic), name
        assert first.intrinsic == "wyt.fnenter", name
        assert first.meta["nvids"] == len(mi.functions[name].vids)
        assert all(func.entry not in block.successors()
                   for block in func.blocks), name
