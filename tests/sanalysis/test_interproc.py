"""Unit tests for the interprocedural summary/escape/extern machinery."""

import pytest

from repro import obs
from repro.core.layout import FrameLayout, FrameVariable
from repro.ir import Builder, Const, Function, GlobalVar, Module
from repro.sanalysis import analyze_function
from repro.sanalysis.interproc import (
    BOT_P,
    NUM_TOP_P,
    TOP_P,
    PVal,
    build_call_graph,
    check_escapes,
    interproc_corroborate,
    interproc_enabled,
    local_summary,
    pjoin,
    pwiden,
    recover_extern_sigs,
    strongly_connected,
    summarize_module,
)

REG_ORDER = ["eax", "ecx", "edx", "ebx", "ebp", "esi", "edi"]


def lifted_function(name="fn_1000", entry=0x1000):
    f = Function(name, ["sp", *REG_ORDER], nresults=7)
    f.orig_entry = entry
    return f


def module_with(*funcs):
    module = Module("m")
    for i, f in enumerate(funcs):
        module.add_function(f)
        module.address_table[f.orig_entry] = f.name
    return module


def lifted_call(b, f, callee, sp_delta, stores):
    """Emit the lifted calling idiom: esp1 = sp0 - sp_delta, argument
    stores at esp1 + 4 + 4j, then the threaded call."""
    sp0 = f.params[0]
    esp1 = b.sub(sp0, Const(sp_delta))
    for j, value in stores:
        slot = b.add(esp1, Const(4 + 4 * j))
        b.store(slot, value)
    return b.call(callee, [esp1] + list(f.params[1:]), nresults=7)


# -- domain algebra ----------------------------------------------------------


def test_pjoin_bot_identity_and_top_dominates():
    v = PVal.ptr("sp", -8, -8)
    assert pjoin(BOT_P, v) == v
    assert pjoin(v, BOT_P) == v
    assert pjoin(TOP_P, v) == TOP_P


def test_pjoin_mixed_regions_is_top():
    a = PVal.ptr(("sarg", 0), 0, 0)
    b = PVal.ptr(("sarg", 1), 0, 0)
    assert pjoin(a, b) == TOP_P
    assert pjoin(a, PVal.const(4)) == TOP_P


def test_pjoin_same_region_takes_hull():
    assert pjoin(PVal.ptr("sp", -16, -12), PVal.ptr("sp", -8, -4)) \
        == PVal.ptr("sp", -16, -4)


def test_pwiden_growing_bound_to_infinity():
    old = PVal.ptr(("sarg", 0), 0, 0)
    grown = PVal.ptr(("sarg", 0), 0, 4)
    assert pwiden(old, grown) == PVal.ptr(("sarg", 0), 0, None)


# -- the region-tagged interpreter ------------------------------------------


def run_interp(f):
    from repro.sanalysis.interproc import _PInterpreter
    return _PInterpreter(f).run()


def test_incoming_slot_load_is_fresh_region():
    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    slot = b.add(f.params[0], Const(4))
    p = b.load(slot)
    deref = b.load(p)
    b.ret([deref] + [Const(0)] * 6)
    values = run_interp(f)
    assert values[p] == PVal.ptr(("sarg", 0), 0, 0)


def test_clobbered_slot_is_not_a_region():
    # The function overwrites its own incoming slot before (in abstract
    # round order) the load: scratch reuse, not a pristine argument.
    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    slot = b.add(f.params[0], Const(4))
    b.store(slot, Const(7))
    p = b.load(slot)
    b.ret([p] + [Const(0)] * 6)
    values = run_interp(f)
    assert values[p] == NUM_TOP_P


def test_scaled_region_value_degrades_to_number():
    # An integer argument loads exactly like a pointer argument; the
    # moment it is scaled it must degrade to a number so base + 4*i
    # keeps the base's region.
    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    p = b.load(b.add(f.params[0], Const(4)))
    i = b.load(b.add(f.params[0], Const(8)))
    scaled = b.mul(i, Const(4))
    addr = b.add(p, scaled)
    b.store(addr, Const(1))
    b.ret([Const(0)] * 7)
    values = run_interp(f)
    assert values[scaled].kind == "num"
    assert values[addr].region == ("sarg", 0)
    summary = local_summary(f)
    accs = summary.accesses[("sarg", 0)]
    assert any(a.hi is None and a.kind == "store" for a in accs)


# -- local summaries ---------------------------------------------------------


def test_summary_records_slot_values_and_call_sites():
    callee = lifted_function("fn_2000", 0x2000)
    cb = Builder(callee)
    cb.position(callee.add_block("entry"))
    cb.ret([Const(0)] * 7)

    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    buf = b.sub(f.params[0], Const(32))
    lifted_call(b, f, "fn_2000", 48, [(0, buf), (1, Const(5))])
    b.ret([Const(0)] * 7)

    summary = local_summary(f)
    assert len(summary.calls) == 1
    site = summary.calls[0]
    assert site.callees == ("fn_2000",)
    assert site.sp_off == -48
    assert summary.slot_values[-44].pval == PVal.ptr("sp", -32, -32)
    assert summary.slot_values[-40].pval == PVal.const(5)


def test_summary_is_memoized_per_version():
    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.ret([Const(0)] * 7)
    obs.enable(reset=True)
    try:
        first = local_summary(f)
        assert local_summary(f) is first
        f.invalidate()
        assert local_summary(f) is not first
        doc = obs.export(obs.recorder())
        counters = doc["metrics"]["counters"]
        assert counters["sanalysis.summary.computed"] == 2
        assert counters["sanalysis.summary.reused"] == 1
    finally:
        obs.disable()


def test_stored_region_pointer_marks_escape_to_unknown():
    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    p = b.load(b.add(f.params[0], Const(4)))
    q = b.load(b.add(f.params[0], Const(8)))
    b.store(q, p)   # *q = p: p's region leaks somewhere unpinnable
    b.ret([Const(0)] * 7)
    summary = local_summary(f)
    assert ("sarg", 0) in summary.stored_regions


# -- call graph / SCC condensation ------------------------------------------


def test_call_graph_and_reverse_topo_sccs():
    a, bfn, c = (lifted_function(f"fn_{i}", i)
                 for i in (0x10, 0x20, 0x30))
    for callee_name, f in (("fn_32", a), ("fn_48", bfn), (None, c)):
        bb = Builder(f)
        bb.position(f.add_block("entry"))
        if callee_name:
            lifted_call(bb, f, callee_name, 16, [])
        bb.ret([Const(0)] * 7)
    module = module_with(a, bfn, c)
    locals_ = {f.name: local_summary(f) for f in (a, bfn, c)}
    graph = build_call_graph(module, locals_)
    assert graph["fn_16"] == ("fn_32",)
    assert graph["fn_32"] == ("fn_48",)
    sccs = strongly_connected(graph)
    order = [scc[0] for scc in sccs]
    # Reverse-topological: the leaf comes before its callers.
    assert order.index("fn_48") < order.index("fn_32") \
        < order.index("fn_16")


def test_recursion_forms_one_scc_and_converges():
    f = lifted_function("fn_16", 0x10)
    b = Builder(f)
    b.position(f.add_block("entry"))
    p = b.load(b.add(f.params[0], Const(4)))
    b.store(p, Const(1))
    lifted_call(b, f, "fn_16", 24, [(0, p)])
    b.ret([Const(0)] * 7)
    module = module_with(f)
    summaries = summarize_module(module)
    sccs = strongly_connected(
        build_call_graph(module, {"fn_16": summaries["fn_16"].local}))
    assert sccs == [["fn_16"]]
    # The recursive footprint converged to a widened entry, not one
    # entry per unrolled call depth.
    foot = summaries["fn_16"].footprint(("sarg", 0))
    assert len(foot) <= 3
    assert any(a.hi is None for a in foot)


def test_indirect_call_bounded_by_address_table():
    target_a = lifted_function("fn_4096", 0x1000)
    target_b = lifted_function("fn_8192", 0x2000)
    for t in (target_a, target_b):
        tb = Builder(t)
        tb.position(t.add_block("entry"))
        tb.ret([Const(0)] * 7)
    caller = lifted_function("fn_16", 0x10)
    b = Builder(caller)
    b.position(caller.add_block("entry"))
    esp1 = b.sub(caller.params[0], Const(16))
    b.call_indirect(Const(0x1000), [esp1] + list(caller.params[1:]),
                    nresults=7)
    b.ret([Const(0)] * 7)
    module = module_with(target_a, target_b, caller)
    locals_ = {f.name: local_summary(f)
               for f in (target_a, target_b, caller)}
    graph = build_call_graph(module, locals_)
    # The constant target bounds the candidates to the one entry whose
    # address falls inside the interval.
    assert graph["fn_16"] == ("fn_4096",)


# -- footprint translation + the escaped-split check -------------------------


def escape_pair(write_hi=32, sp_delta=48, buf_off=-32):
    """Caller passes sp0+buf_off into a callee that stores
    [0, write_hi) through the pointer; returns (module, caller name)."""
    callee = lifted_function("fn_2000", 0x2000)
    cb = Builder(callee)
    cb.position(callee.add_block("entry"))
    p = cb.load(cb.add(callee.params[0], Const(4)))
    for off in range(0, write_hi, 4):
        cb.store(cb.add(p, Const(off)), Const(off))
    cb.ret([Const(0)] * 7)

    caller = lifted_function()
    b = Builder(caller)
    b.position(caller.add_block("entry"))
    buf = b.sub(caller.params[0], Const(-buf_off))
    lifted_call(b, caller, "fn_2000", sp_delta, [(0, buf)])
    b.ret([Const(0)] * 7)
    return module_with(caller, callee), caller.name


def test_translated_footprint_flags_split_variable():
    module, caller = escape_pair(write_hi=32)
    layout = FrameLayout(caller)
    layout.variables = [FrameVariable(-32, -20)]   # traced 12 of 32
    summaries = summarize_module(module)
    findings, suggestions, escapes = check_escapes(
        caller, summaries[caller], summaries, layout,
        analyze_function(module.functions[caller]))
    assert [f.kind for f in findings] == ["escaped-split"]
    finding = findings[0]
    assert finding.severity == "error"
    assert finding.provenance["chain"] == [caller, "fn_2000"]
    assert "fn_2000" in finding.message
    assert suggestions and suggestions[0].start == -32
    assert suggestions[0].end == 0
    assert escapes and escapes[0][:2] == (-32, 0)


def test_contained_footprint_is_clean():
    module, caller = escape_pair(write_hi=32)
    layout = FrameLayout(caller)
    layout.variables = [FrameVariable(-32, 0)]     # full extent traced
    summaries = summarize_module(module)
    findings, _suggestions, escapes = check_escapes(
        caller, summaries[caller], summaries, layout,
        analyze_function(module.functions[caller]))
    assert findings == []
    assert escapes                    # still recorded for the sanitizer


def test_two_level_chain_is_propagated():
    # A -> B -> C: B forwards its pointer argument to C, C dereferences.
    c = lifted_function("fn_3000", 0x3000)
    cb = Builder(c)
    cb.position(c.add_block("entry"))
    p = cb.load(cb.add(c.params[0], Const(4)))
    for off in (0, 4, 8, 12):
        cb.store(cb.add(p, Const(off)), Const(off))
    cb.ret([Const(0)] * 7)

    mid = lifted_function("fn_2000", 0x2000)
    mb = Builder(mid)
    mb.position(mid.add_block("entry"))
    q = mb.load(mb.add(mid.params[0], Const(4)))
    lifted_call(mb, mid, "fn_3000", 32, [(0, q)])
    mb.ret([Const(0)] * 7)

    top = lifted_function()
    tb = Builder(top)
    tb.position(top.add_block("entry"))
    buf = tb.sub(top.params[0], Const(16))
    lifted_call(tb, top, "fn_2000", 40, [(0, buf)])
    tb.ret([Const(0)] * 7)

    module = module_with(top, mid, c)
    layout = FrameLayout(top.name)
    layout.variables = [FrameVariable(-16, -8)]    # 8 of 16 traced
    summaries = summarize_module(module)
    findings, _s, _e = check_escapes(
        top.name, summaries[top.name], summaries, layout,
        analyze_function(top))
    assert any(f.provenance["chain"] ==
               [top.name, "fn_2000", "fn_3000"] for f in findings)


def test_interproc_corroborate_stashes_escape_meta():
    module, caller = escape_pair(write_hi=16)
    layouts = {caller: FrameLayout(caller)}
    layouts[caller].variables = [FrameVariable(-32, -16)]
    accesses = {name: analyze_function(f)
                for name, f in module.functions.items()}
    findings, _ = interproc_corroborate(module, layouts, accesses)
    meta = module.functions[caller].meta.get("interproc_escapes")
    assert meta and meta[0][0] == -32
    assert meta[0][2] == [caller, "fn_2000"]


# -- extern-signature recovery -----------------------------------------------


def extern_caller(name, ext, stores, sp_delta=32):
    f = lifted_function(name, 0x1000)
    b = Builder(f)
    b.position(f.add_block("entry"))
    esp1 = b.sub(f.params[0], Const(sp_delta))
    for j, value in stores:
        b.store(b.add(esp1, Const(4 * j)), value)
    b.call_external(ext, [], sp=esp1)
    b.ret([Const(0)] * 7)
    return f


def test_extern_agreement_with_modeled_db_is_clean():
    # puts(char*): one pointer argument, witnessed by the stack store
    # of a global's address at the argument base.
    from repro.ir.values import GlobalRef
    f = extern_caller("fn_2000", "puts", [(0, GlobalRef("msg"))])
    module = module_with(f)
    module.add_global(GlobalVar("msg", 16, fixed_addr=0x4000))
    summaries = summarize_module(module)
    findings, inferred = recover_extern_sigs(module, summaries)
    assert [f_.kind for f_ in findings] == []
    assert inferred["puts"].nargs == 1
    assert inferred["puts"].ptr_args == {0}


def test_extern_underwitnessed_args_is_divergence():
    # memcpy is modeled with 3 args; witnessing only one slot at the
    # call site is confident disagreement.
    f = extern_caller("fn_1000", "memcpy", [(0, Const(5))])
    module = module_with(f)
    summaries = summarize_module(module)
    findings, _ = recover_extern_sigs(module, summaries)
    assert [f_.kind for f_ in findings] == ["extern-divergence"]
    assert findings[0].severity == "error"
    assert "memcpy" in findings[0].message


def test_extern_number_in_pointer_position_is_divergence():
    # puts' single argument is modeled as a pointer; an exact small
    # integer outside every global is conclusively not one.
    f = extern_caller("fn_1000", "puts", [(0, Const(7))])
    module = module_with(f)
    module.add_global(GlobalVar("msg", 16, fixed_addr=0x4000))
    summaries = summarize_module(module)
    findings, _ = recover_extern_sigs(module, summaries)
    assert [f_.kind for f_ in findings] == ["extern-divergence"]
    assert findings[0].provenance["arg"] == 0


def test_unmodeled_extern_becomes_candidate():
    from repro.ir.values import GlobalRef
    f1 = extern_caller("fn_1000", "mystery",
                       [(0, GlobalRef("msg")), (1, Const(2))])
    f2 = extern_caller("fn_2000", "mystery",
                       [(0, GlobalRef("msg")), (1, Const(3)),
                        (2, Const(4))])
    f2.orig_entry = 0x2000
    module = module_with(f1, f2)
    module.add_global(GlobalVar("msg", 16, fixed_addr=0x4000))
    summaries = summarize_module(module)
    findings, inferred = recover_extern_sigs(module, summaries)
    kinds = [f_.kind for f_ in findings]
    assert kinds == ["extern-candidate"]
    assert findings[0].severity == "info"
    sig = inferred["mystery"]
    assert sig.nargs == 2 and sig.vararg
    assert 0 in sig.ptr_args and 1 in sig.int_args
    assert sig.sites == 2


# -- env gate ----------------------------------------------------------------


def test_interproc_enabled_env(monkeypatch):
    monkeypatch.delenv("REPRO_INTERPROC", raising=False)
    assert interproc_enabled()
    monkeypatch.setenv("REPRO_INTERPROC", "0")
    assert not interproc_enabled()
    monkeypatch.setenv("REPRO_INTERPROC", "1")
    assert interproc_enabled()


def test_finding_kind_registry_accepts_new_kinds():
    from repro.sanalysis.report import Finding
    for kind in ("escaped-split", "extern-divergence",
                 "extern-candidate"):
        sev = "info" if kind == "extern-candidate" else "error"
        Finding(sev, kind, "fn", "msg")
    with pytest.raises(ValueError):
        Finding("error", "not-a-kind", "fn", "msg")
