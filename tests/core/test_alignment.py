"""Alignment capture through `and` derives (paper §4.2.2: "for and
instructions, we capture the alignment factor in the associated
StackVar")."""

from operator import itemgetter
from types import SimpleNamespace

import pytest

from repro import wytiwyg_recompile
from repro.cc import compile_source
from repro.core.instrument import _probe
from repro.core.runtime import TracingRuntime


def fire(rt, fr, probe, args):
    fr.values = dict(enumerate(args))
    rt.compile(probe, [itemgetter(k) for k in range(len(args))])(fr)


def test_and_derive_records_alignment():
    rt = TracingRuntime()
    fr = SimpleNamespace(frame_id=1,
                         function=SimpleNamespace(name="f"),
                         values={}, probe=None)
    fire(rt, fr, _probe("fnenter", [], {"func": "f", "param_vids": [],
                                        "nvids": 12}), [1000])
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


#: ``((int)p) & 3`` reads the low bits of a pointer into ``buf``; it
#: does not align it.
LOW_BITS = r"""
int main() {
    int buf[4];
    int k;
    int *p;
    int low;
    k = read_int();
    buf[0] = k;
    buf[1] = k + 1;
    buf[2] = 7;
    buf[3] = 9;
    p = &buf[1];
    low = ((int)p) & 3;
    printf("%d %d\n", buf[k & 3], low);
    return 0;
}
"""


@pytest.mark.parametrize("opt", ["0", "3"])
def test_low_bit_mask_keeps_recompiled_frames_small(opt):
    # Read as an alignment, the mask gave buf's variable align 4096 and
    # grew every recompiled frame from 32 bytes to 4,112-4,128.
    image = compile_source(LOW_BITS, "gcc12", opt, "low_bits")
    result = wytiwyg_recompile(image, [[1], [2]], collect_accuracy=False)
    assert not result.fallback
    assert {v.align for lo in result.layouts.values()
            for v in lo.variables} == {4}
    assert {f.frame_size for f in result.recovered.ground_truth} == {32}
