"""Alignment capture through `and` derives (paper §4.2.2: "for and
instructions, we capture the alignment factor in the associated
StackVar")."""

from operator import itemgetter
from types import SimpleNamespace

from repro.core.instrument import _probe
from repro.core.runtime import TracingRuntime


def fire(rt, fr, probe, args):
    fr.values = dict(enumerate(args))
    rt.compile(probe, [itemgetter(k) for k in range(len(args))])(fr)


def test_and_derive_records_alignment():
    rt = TracingRuntime()
    fr = SimpleNamespace(frame_id=1,
                         function=SimpleNamespace(name="f"),
                         values={})
    fire(rt, fr, _probe("fnenter", [], {"func": "f",
                                        "param_vids": []}), [1000])
    fire(rt, fr, _probe("stackref", [], {
        "ref_id": 0, "offset": -64, "vid": 10, "is_sp0": False}), [936])
    # Align-down to 16: and ptr, ~15.
    fire(rt, fr, _probe("derive", [], {
        "op": "and", "const": 0xFFFFFFF0, "result_vid": 11,
        "base_vid": 10}), [928, 936])
    assert rt.stack_vars[0].align >= 16
    # The aligned pointer still tracks the same variable.
    fire(rt, fr, _probe("store", [], {
        "size": 4, "addr_vid": 11, "value_vid": -1}), [928, 1])
    assert rt.stack_vars[0].defined


def test_alignment_survives_into_layout():
    from repro.core.layout import build_frame_layout
    from repro.core.runtime import StackVar
    rt = TracingRuntime()
    var = StackVar(0, "f", -64, 0, 32, align=16)
    rt.stack_vars[0] = var
    layout = build_frame_layout("f", {0: (None, -64)}, rt)
    assert layout.variables[0].align == 16
