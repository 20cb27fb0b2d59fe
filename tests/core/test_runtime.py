"""The tracing runtime in isolation: StackVar bounds, PointerInfo flow,
links, address map, constraints (paper §4.2)."""

import pickle
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.core.instrument import _probe
from repro.core.runtime import ArgAccess, StackVar, TracingRuntime


#: The vid count the tests' ``fnenter`` metas give each function: the
#: vids they use are below it.
NVIDS = 100


def frame(fid=1, fname="f"):
    """A fake activation: ``probe`` starts None, as on an interpreter
    frame, until ``fnenter`` puts the runtime's record there."""
    return SimpleNamespace(frame_id=fid,
                           function=SimpleNamespace(name=fname),
                           values={}, probe=None)


def compile_probe(rt, name, meta, nargs):
    """Compile probe ``name``; its operands read the frame's
    ``values[0]`` .. ``values[nargs - 1]``."""
    return rt.compile(_probe(name, [], meta),
                      [itemgetter(k) for k in range(nargs)])


def run(probe, fr, args=()):
    fr.values = dict(enumerate(args))
    probe(fr)


def fire(rt, fr, name, meta, args=()):
    run(compile_probe(rt, name, meta, len(args)), fr, args)


def enter(rt, fr, sp0=1000, params=(0,)):
    fire(rt, fr, "fnenter", {"func": fr.function.name,
                             "param_vids": list(params),
                             "nvids": NVIDS}, [sp0])


def test_stackvar_deferred_bounds():
    var = StackVar(0, "f", -16)
    assert not var.defined
    var.touch(4, 4)
    assert (var.low, var.high) == (4, 8)
    var.touch(0, 2)
    assert (var.low, var.high) == (0, 8)


#: Dereferences ``(offset, size)`` of one variable or argument area,
#: packed close enough that later ones often overlap, contain or extend
#: the interval the earlier ones touched.
accesses = st.lists(st.tuples(st.integers(-16, 16),
                              st.sampled_from([1, 2, 4, 8, 16, 32])),
                    max_size=24)


def min_max(seq):
    """The bounds by their definition: the least offset and the greatest
    end of the accesses, None before the first."""
    if not seq:
        return None, None
    return (min(off for off, _ in seq),
            max(off + size for off, size in seq))


def walked(seq):
    """An argument area's flag by its definition: some access is
    sub-word or unaligned."""
    return any(size != 4 or off % 4 for off, size in seq)


def touch_all(seq):
    """A stack variable and an argument area, each touched by ``seq``."""
    var, area = StackVar(0, "f", -64), ArgAccess(0)
    for off, size in seq:
        var.touch(off, size)
        area.touch(off, size)
    return var, area


@given(accesses)
def test_touch_keeps_the_min_max_bounds(seq):
    var, area = touch_all(seq)
    assert (var.low, var.high) == min_max(seq)
    assert (area.low, area.high) == min_max(seq)
    assert area.walked == walked(seq)


#: Dereferences through the load and store probes: ``(offset, size,
#: store?, derive a fresh pointer first?)``.  Without a fresh derive,
#: an access at the previous offset reuses the previous info object.
probe_accesses = st.lists(st.tuples(st.integers(-16, 16),
                                    st.sampled_from([1, 2, 4, 8]),
                                    st.booleans(), st.booleans()),
                          max_size=24)


@given(probe_accesses)
def test_load_and_store_probes_keep_the_min_max_bounds(seq):
    # Each load or store site widens a variable inline and skips an
    # info object it widened last; the bounds must still be the least
    # offset and the greatest end of every dereference.
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    fire(rt, fr, "stackref", {"ref_id": 1, "offset": -64, "vid": 10,
                              "is_sp0": False}, [936])
    sites = {}
    current = None
    for offset, size, store, fresh in seq:
        if fresh or offset != current:
            fire(rt, fr, "derive", {"op": "add",
                                    "const": offset & 0xFFFFFFFF,
                                    "result_vid": 11, "base_vid": 10},
                 [936 + offset, 936])
            current = offset
        if (size, store) not in sites:
            meta = {"size": size, "addr_vid": 11,
                    **({"value_vid": -1} if store
                       else {"result_vid": 12})}
            sites[size, store] = compile_probe(
                rt, "store" if store else "load", meta, 2)
        run(sites[size, store], fr, [936 + offset, 0])
    var = rt.stack_vars[1]
    assert (var.low, var.high) == min_max([(off, size)
                                           for off, size, _, _ in seq])


def test_stackref_creates_var_and_info():
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    fire(rt, fr, "stackref", {"ref_id": 5, "offset": -16, "vid": 10,
                              "is_sp0": False}, [984])
    assert rt.stack_vars[5].sp0_offset == -16
    assert not rt.stack_vars[5].defined  # no dereference yet


def test_derive_and_deref_updates_bounds():
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    fire(rt, fr, "stackref", {"ref_id": 1, "offset": -32, "vid": 10,
                              "is_sp0": False}, [968])
    fire(rt, fr, "derive", {"op": "add", "const": 8, "result_vid": 11,
                            "base_vid": 10}, [976, 968])
    # Derivation alone must not define bounds (false derives, §4.2.3).
    assert not rt.stack_vars[1].defined
    fire(rt, fr, "load", {"size": 4, "addr_vid": 11, "result_vid": 12},
         [976, 0])
    assert (rt.stack_vars[1].low, rt.stack_vars[1].high) == (8, 12)


def test_out_of_bounds_base_pointer_deferred():
    # Base pointer one past the array (Figure 3): the first deref is at
    # a negative offset.
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    fire(rt, fr, "stackref", {"ref_id": 2, "offset": -8, "vid": 10,
                              "is_sp0": False}, [992])
    fire(rt, fr, "derive", {"op": "sub", "const": 4, "result_vid": 11,
                            "base_vid": 10}, [988, 992])
    fire(rt, fr, "store", {"size": 4, "addr_vid": 11, "value_vid": -1},
         [988, 7])
    assert (rt.stack_vars[2].low, rt.stack_vars[2].high) == (-4, 0)


def test_derive2_with_runtime_values():
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    fire(rt, fr, "stackref", {"ref_id": 3, "offset": -64, "vid": 10,
                              "is_sp0": False}, [936])
    fire(rt, fr, "derive2", {"op": "add", "result_vid": 11,
                             "lhs_vid": 10, "rhs_vid": 99},
         [956, 936, 20])
    fire(rt, fr, "load", {"size": 4, "addr_vid": 11, "result_vid": 12},
         [956, 0])
    assert (rt.stack_vars[3].low, rt.stack_vars[3].high) == (20, 24)


def test_pointer_subtraction_links_vars():
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    for rid, off, vid, val in ((1, -32, 10, 968), (2, -16, 11, 984)):
        fire(rt, fr, "stackref", {"ref_id": rid, "offset": off,
                                  "vid": vid, "is_sp0": False}, [val])
    fire(rt, fr, "derive2", {"op": "sub", "result_vid": 12,
                             "lhs_vid": 11, "rhs_vid": 10},
         [16, 984, 968])
    assert frozenset((1, 2)) in rt.links


def test_comparison_links_vars():
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    for rid, off, vid, val in ((1, -32, 10, 968), (2, -16, 11, 984)):
        fire(rt, fr, "stackref", {"ref_id": rid, "offset": off,
                                  "vid": vid, "is_sp0": False}, [val])
    fire(rt, fr, "link", {"lhs_vid": 10, "rhs_vid": 11}, [968, 984])
    assert frozenset((1, 2)) in rt.links


def test_a_restored_runtime_iterates_its_links_as_one_that_ran_all():
    # A set iterates in an order that its insertion order can change:
    # the first four links unpickled as a set, which re-adds them in
    # iteration order, then given the fifth, iterate unlike the set that
    # saw all five in the order found.
    pairs = [(13, 6), (2, 20), (0, 1), (18, 38), (20, 28)]
    whole, first = TracingRuntime(), TracingRuntime()
    for rt, upto in ((whole, 5), (first, 4)):
        for a, b in pairs[:upto]:
            rt._link(StackVar(a, "f", 0), StackVar(b, "f", 0))
    rebuilt = pickle.loads(pickle.dumps(first.links))
    rebuilt.add(frozenset(pairs[4]))
    assert list(rebuilt) != list(whole.links)
    resumed = TracingRuntime()
    resumed.restore(pickle.loads(pickle.dumps(first.state())))
    resumed._link(StackVar(20, "f", 0), StackVar(28, "f", 0))
    assert list(resumed.links) == list(whole.links)
    assert resumed.snapshot() == whole.snapshot()


def test_address_map_store_load_round_trip():
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    fire(rt, fr, "stackref", {"ref_id": 1, "offset": -32, "vid": 10,
                              "is_sp0": False}, [968])
    # Spill the pointer to memory, reload it elsewhere.
    fire(rt, fr, "store", {"size": 4, "addr_vid": -1, "value_vid": 10},
         [2000, 968])
    fire(rt, fr, "load", {"size": 4, "addr_vid": -1, "result_vid": 20},
         [2000, 968])
    fire(rt, fr, "load", {"size": 4, "addr_vid": 20, "result_vid": 21},
         [968, 0])
    assert rt.stack_vars[1].defined  # deref through the reloaded pointer


def test_overwrite_clears_address_map():
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    fire(rt, fr, "stackref", {"ref_id": 1, "offset": -32, "vid": 10,
                              "is_sp0": False}, [968])
    fire(rt, fr, "store", {"size": 4, "addr_vid": -1, "value_vid": 10},
         [2000, 968])
    fire(rt, fr, "store", {"size": 4, "addr_vid": -1, "value_vid": -1},
         [2000, 42])  # overwrite with non-pointer
    fire(rt, fr, "load", {"size": 4, "addr_vid": -1, "result_vid": 20},
         [2000, 42])
    fr2_info = fr.probe.infos[20]
    assert fr2_info is None


def test_argument_area_recording():
    rt = TracingRuntime()
    caller = frame(1, "caller")
    callee = frame(2, "callee")
    enter(rt, caller, sp0=2000)
    fire(rt, caller, "callargs", {"callsite_id": 7, "arg_vids": [50]},
         [])
    fire(rt, callee, "fnenter", {"func": "callee", "param_vids": [0],
                                 "nvids": NVIDS}, [996])
    # Callee touches [sp0+4] and [sp0+8]: two argument slots.
    fire(rt, callee, "stackref", {"ref_id": 9, "offset": 4, "vid": 10,
                                  "is_sp0": False}, [1000])
    fire(rt, callee, "load", {"size": 4, "addr_vid": 10,
                              "result_vid": 11}, [1000, 0])
    fire(rt, callee, "stackref", {"ref_id": 10, "offset": 8, "vid": 12,
                                  "is_sp0": False}, [1004])
    fire(rt, callee, "load", {"size": 4, "addr_vid": 12,
                              "result_vid": 13}, [1004, 0])
    access = rt.arg_accesses[7]
    assert access.callees == {"callee"}
    assert (access.low, access.high) == (0, 8)
    assert not access.walked


def test_walked_argument_area():
    rt = TracingRuntime()
    caller = frame(1, "caller")
    callee = frame(2, "callee")
    enter(rt, caller, sp0=2000)
    fire(rt, caller, "callargs", {"callsite_id": 3, "arg_vids": []}, [])
    fire(rt, callee, "fnenter", {"func": "callee", "param_vids": [],
                                 "nvids": NVIDS}, [996])
    fire(rt, callee, "stackref", {"ref_id": 9, "offset": 4, "vid": 10,
                                  "is_sp0": False}, [1000])
    fire(rt, callee, "derive", {"op": "add", "const": 4,
                                "result_vid": 11, "base_vid": 10},
         [1004, 1000])
    assert rt.arg_accesses[3].walked


def test_false_derive_through_or_is_harmless():
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    fire(rt, fr, "stackref", {"ref_id": 1, "offset": -32, "vid": 10,
                              "is_sp0": False}, [968])
    # Sub-register merge: and-mask then or with a fresh byte.
    fire(rt, fr, "derive", {"op": "and", "const": 0xFFFFFF00,
                            "result_vid": 11, "base_vid": 10},
         [968 & 0xFFFFFF00, 968])
    fire(rt, fr, "derive2", {"op": "or", "result_vid": 12,
                             "lhs_vid": 11, "rhs_vid": 99},
         [0x12345678, 968 & 0xFFFFFF00, 0x78])
    # The result carries a (stale) association, but no deref happens, so
    # bounds stay undefined.
    assert not rt.stack_vars[1].defined


@pytest.mark.parametrize("const, align", [
    (0xFFFFFFF0, 16),     # p & -16: align down to 16
    (0xFFFFFFFC, 4),
    (3, 4),               # p & 3: the low bits, not an alignment
    (0xFF, 4),
    (0x7FFFFFFF, 4),
    (0xFFFFFF0F, 4),      # clears bits, but not a run of low ones
])
def test_only_a_low_bit_clearing_mask_records_alignment(const, align):
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    fire(rt, fr, "stackref", {"ref_id": 1, "offset": -32, "vid": 10,
                              "is_sp0": False}, [968])
    fire(rt, fr, "derive", {"op": "and", "const": const,
                            "result_vid": 11, "base_vid": 10},
         [968 & const, 968])
    assert rt.stack_vars[1].align == align
    # Either way the result still points into the variable.
    assert fr.probe.infos[11][0] is rt.stack_vars[1]


def test_extcall_object_size_constraint():
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    fire(rt, fr, "stackref", {"ref_id": 1, "offset": -64, "vid": 10,
                              "is_sp0": False}, [936])
    # read_buf(ptr, 48): ObjectSize(arg0, arg1).
    fire(rt, fr, "extcall", {"name": "read_buf", "arg_vids": [10, -1],
                             "result_vid": 20}, [936, 48, 48])
    assert (rt.stack_vars[1].low, rt.stack_vars[1].high) == (0, 48)


def test_extcall_derive_constraint():
    rt = TracingRuntime()
    fr = frame()
    enter(rt, fr)
    fire(rt, fr, "stackref", {"ref_id": 1, "offset": -64, "vid": 10,
                              "is_sp0": False}, [936])
    # memset returns its first argument.
    fire(rt, fr, "extcall",
         {"name": "memset", "arg_vids": [10, -1, -1],
          "result_vid": 20}, [936, 0, 16, 936])
    var, offset = fr.probe.infos[20]
    assert var is rt.stack_vars[1] and offset == 0
    assert (rt.stack_vars[1].low, rt.stack_vars[1].high) == (0, 16)


def test_recursion_distinct_frames_same_var():
    rt = TracingRuntime()
    outer = frame(1, "f")
    inner = frame(2, "f")
    enter(rt, outer, sp0=2000)
    fire(rt, outer, "stackref", {"ref_id": 1, "offset": -16, "vid": 10,
                                 "is_sp0": False}, [1984])
    fire(rt, outer, "callargs", {"callsite_id": 0, "arg_vids": []}, [])
    fire(rt, inner, "fnenter", {"func": "f", "param_vids": [],
                                "nvids": NVIDS}, [1900])
    fire(rt, inner, "stackref", {"ref_id": 1, "offset": -16, "vid": 10,
                                 "is_sp0": False}, [1884])
    fire(rt, inner, "store", {"size": 4, "addr_vid": 10,
                              "value_vid": -1}, [1884, 1])
    fire(rt, inner, "fnexit", {"ret_vids": []}, [])
    # Same static StackVar accumulated bounds from the inner activation.
    assert rt.stack_vars[1].defined
    # The outer frame's vid metadata still points at the same var.
    assert outer.probe.infos[10][0] is rt.stack_vars[1]


def test_bind_clears_the_address_map_between_runs():
    # One runtime serves every run of a bounds stage, its probes
    # compiled once: a stack pointer run A stored at 2000 must not reach
    # run B, which loads that word and dereferences it.
    rt = TracingRuntime()
    fnenter = compile_probe(rt, "fnenter", {"func": "f",
                                            "param_vids": [0],
                                            "nvids": NVIDS}, 1)
    stackref = compile_probe(rt, "stackref", {
        "ref_id": 1, "offset": -32, "vid": 10, "is_sp0": False}, 1)
    spill = compile_probe(rt, "store", {"size": 4, "addr_vid": -1,
                                        "value_vid": 10}, 2)
    reload = compile_probe(rt, "load", {"size": 4, "addr_vid": -1,
                                        "result_vid": 20}, 2)
    deref = compile_probe(rt, "load", {"size": 4, "addr_vid": 20,
                                       "result_vid": 21}, 2)
    run_a = frame()
    rt.bind(None)
    run(fnenter, run_a, [1000])
    run(stackref, run_a, [968])
    run(spill, run_a, [2000, 968])
    run_b = frame()
    rt.bind(None)
    run(fnenter, run_b, [1000])
    run(reload, run_b, [2000, 968])
    run(deref, run_b, [968, 0])
    assert run_b.probe.infos[20] is None
    assert not rt.stack_vars[1].defined


def test_an_ignored_result_does_not_reach_a_constant_operand():
    # A constant operand has vid -1, and so has a call result that no
    # ``Result`` extracts.  The callee returns its own stack reference;
    # the caller ignores it and loads a global, whose address is a
    # constant: the load must not dereference the callee's variable.
    rt = TracingRuntime()
    caller = frame(1, "caller")
    callee = frame(2, "callee")
    enter(rt, caller, sp0=2000)
    fire(rt, caller, "callargs", {"callsite_id": 0, "arg_vids": []}, [])
    fire(rt, callee, "fnenter", {"func": "callee", "param_vids": [],
                                 "nvids": NVIDS}, [1900])
    fire(rt, callee, "stackref", {"ref_id": 1, "offset": -16, "vid": 10,
                                  "is_sp0": False}, [1884])
    fire(rt, callee, "fnexit", {"ret_vids": [10]}, [])
    fire(rt, caller, "callres", {"result_vids": [-1]}, [])
    fire(rt, caller, "load", {"size": 4, "addr_vid": -1,
                              "result_vid": 20}, [0x0D000000, 0])
    assert not rt.stack_vars[1].defined
