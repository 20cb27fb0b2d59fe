"""Unit tests for the IR sanitizer lints (symbolized IR)."""

from hypothesis import given, seed, settings, strategies as st

from repro.ir import Builder, Const, Function
from repro.ir.values import Alloca, Load, Store
from repro.opt.alias import AliasAnalysis
from repro.sanalysis import sanitize_function
from repro.sanalysis.report import UNINIT_READ, Finding
from repro.sanalysis.sanitize import (
    _add_interval,
    _alloca_roots,
    _check_escapes,
    _check_uninit,
    _covers,
    _describe,
    _intersect,
)


def fresh(name="f", params=()):
    f = Function(name, list(params))
    b = Builder(f)
    b.position(f.add_block("entry"))
    return f, b


def kinds(findings):
    return {(f.severity, f.kind) for f in findings}


# -- uninit-read -------------------------------------------------------------


def test_store_then_load_is_clean():
    f, b = fresh()
    a = b.alloca(4, 4, "x")
    b.store(a, Const(1), 4)
    v = b.load(a, 4)
    b.ret([v])
    assert sanitize_function(f) == []


def test_load_before_store_warns():
    f, b = fresh()
    a = b.alloca(4, 4, "x")
    v = b.load(a, 4)
    b.store(a, Const(1), 4)
    b.ret([v])
    assert ("warning", "uninit-read") in kinds(sanitize_function(f))


def test_partial_initialization_warns_on_wider_load():
    f, b = fresh()
    a = b.alloca(8, 4, "pair")
    b.store(a, Const(1), 4)      # only [0, 4) initialized
    wide = b.add(a, Const(4))
    v = b.load(wide, 4)          # [4, 8) never stored
    b.ret([v])
    assert ("warning", "uninit-read") in kinds(sanitize_function(f))


def test_join_requires_init_on_all_paths():
    f, b = fresh(params=("c",))
    a = None
    entry = f.entry
    then = f.add_block("then")
    els = f.add_block("els")
    out = f.add_block("out")
    b.position(entry)
    a = b.alloca(4, 4, "x")
    b.condbr(f.params[0], then, els)
    b.position(then)
    b.store(a, Const(1), 4)
    b.br(out)
    b.position(els)
    b.br(out)                     # no store on this path
    b.position(out)
    v = b.load(a, 4)
    b.ret([v])
    assert ("warning", "uninit-read") in kinds(sanitize_function(f))


def test_init_on_both_paths_is_clean():
    f, b = fresh(params=("c",))
    entry = f.entry
    then = f.add_block("then")
    els = f.add_block("els")
    out = f.add_block("out")
    b.position(entry)
    a = b.alloca(4, 4, "x")
    b.condbr(f.params[0], then, els)
    b.position(then)
    b.store(a, Const(1), 4)
    b.br(out)
    b.position(els)
    b.store(a, Const(2), 4)
    b.br(out)
    b.position(out)
    v = b.load(a, 4)
    b.ret([v])
    assert sanitize_function(f) == []


def test_variable_offset_store_initializes_whole_alloca():
    f, b = fresh(params=("i",))
    a = b.alloca(16, 4, "arr")
    slot = b.add(a, f.params[0])
    b.store(slot, Const(0), 4)
    v = b.load(a, 4)
    b.ret([v])
    assert not [x for x in sanitize_function(f)
                if x.kind == "uninit-read"]


def _dense_check_uninit(func, aa):
    """The must-init dataflow with a dense join, which intersects every
    alloca either side holds on every edge: the oracle for the sparse
    state of :func:`_check_uninit`."""
    tracked = [i for i in func.instructions()
               if isinstance(i, Alloca) and i not in aa.escaped]
    if not tracked:
        return []
    tracked_set = set(tracked)

    def transfer_block(block, state, findings):
        state = dict(state)
        reported = set()
        for instr in block.instrs:
            if isinstance(instr, Store):
                fact = aa.fact_for(instr.addr)
                if fact[0] == "alloca" and fact[1] in tracked_set:
                    alloca, offset = fact[1], fact[2]
                    if offset is None:
                        state[alloca] = ((0, alloca.size),)
                    else:
                        state[alloca] = _add_interval(
                            state.get(alloca, ()), offset,
                            offset + instr.size)
            elif isinstance(instr, Load) and findings is not None:
                fact = aa.fact_for(instr.addr)
                if fact[0] != "alloca" or fact[1] not in tracked_set:
                    continue
                alloca, offset = fact[1], fact[2]
                init = state.get(alloca, ())
                if offset is not None:
                    bad = not _covers(init, offset, offset + instr.size)
                else:
                    bad = not init
                key = (id(alloca), offset)
                if bad and key not in reported:
                    reported.add(key)
                    where = "" if offset is None \
                        else f" at offset {offset}"
                    findings.append(Finding(
                        "warning", UNINIT_READ, func.name,
                        f"load from {_describe(alloca)}{where} may "
                        f"read uninitialized bytes",
                        offset=offset, width=instr.size,
                        provenance={"pass": "sanitize", "variable":
                                    _describe(alloca),
                                    "block": block.name}))
        return state

    def join(a, b):
        if a is None:
            return dict(b)
        return {alloca: _intersect(a.get(alloca, ()),
                                   b.get(alloca, ()))
                for alloca in set(a) | set(b)}

    in_states = {b: None for b in func.blocks}
    in_states[func.entry] = {}
    out_states = {}
    work = list(func.blocks)
    while work:
        block = work.pop(0)
        in_state = in_states[block]
        if in_state is None:
            continue
        out = transfer_block(block, in_state, None)
        if out_states.get(block) == out:
            continue
        out_states[block] = out
        if not block.is_terminated:
            continue
        for succ in block.successors():
            joined = join(in_states[succ], out)
            if joined != in_states[succ]:
                in_states[succ] = joined
                if succ not in work:
                    work.append(succ)

    findings = []
    for block in func.blocks:
        in_state = in_states[block]
        if in_state is not None:
            transfer_block(block, in_state, findings)
    return findings


#: One memory access: (kind, alloca index, width, offset seed).
_ACCESS = st.tuples(st.sampled_from(("store", "store", "store", "vstore",
                                     "load", "load", "vload")),
                    st.sampled_from((0, 0, 0, 1, 2)),
                    st.sampled_from((1, 2, 4)), st.integers(0, 7))
#: The CFG shapes a function chains, with their number of blocks.
_SHAPES = {"block": 1, "diamond": 4, "loop": 3}


@st.composite
def _must_init_cfgs(draw):
    sizes = draw(st.lists(st.sampled_from((4, 8)), min_size=1,
                          max_size=3))
    shapes = draw(st.lists(st.sampled_from(sorted(_SHAPES)), min_size=1,
                           max_size=4))
    accesses = st.lists(_ACCESS, max_size=4)
    return sizes, [(shape, [draw(accesses)
                            for _ in range(_SHAPES[shape])])
                   for shape in shapes]


def _build_cfg(sizes, shapes):
    """``entry`` holds the allocas; then each shape follows the last:
    a block, a diamond (head, two arms, join) or a loop (header, body
    back to the header, exit).  Each block makes its accesses, at
    constant offsets inside the alloca or a variable offset."""
    f, b = fresh(params=("i", "c"))
    allocas = [b.alloca(size, 4, f"v{n}") for n, size in enumerate(sizes)]
    tail = f.entry
    for n, (shape, block_accesses) in enumerate(shapes):
        bbs = [f.add_block(f"s{n}_{k}") for k in range(len(block_accesses))]
        b.position(tail)
        b.br(bbs[0])
        for bb, accesses in zip(bbs, block_accesses, strict=True):
            b.position(bb)
            for kind, which, width, seed_ in accesses:
                alloca = allocas[which % len(allocas)]
                if kind.startswith("v"):
                    addr = b.add(alloca, f.params[0])
                else:
                    offset = seed_ % (alloca.size - width + 1)
                    addr = b.add(alloca, Const(offset)) if offset \
                        else alloca
                if kind.endswith("store"):
                    b.store(addr, Const(7), width)
                else:
                    b.load(addr, width)
        cond = f.params[1]
        if shape == "diamond":
            head, then, els, tail = bbs
            b.position(head)
            b.condbr(cond, then, els)
            for arm in (then, els):
                b.position(arm)
                b.br(tail)
        elif shape == "loop":
            header, body, tail = bbs
            b.position(header)
            b.condbr(cond, body, tail)
            b.position(body)
            b.br(header)
        else:
            tail = bbs[0]
    b.position(tail)
    b.ret([Const(0)])
    return f


@seed(33)
@settings(max_examples=300, deadline=None)
@given(_must_init_cfgs())
def test_sparse_must_init_matches_the_dense_join(cfg):
    f = _build_cfg(*cfg)
    aa = AliasAnalysis(f)
    assert _check_uninit(f, aa) == _dense_check_uninit(f, aa)


# -- oob-access --------------------------------------------------------------


def test_constant_offset_past_end_is_error():
    f, b = fresh()
    a = b.alloca(8, 4, "x")
    b.store(a, Const(1), 4)
    past = b.add(a, Const(8))
    v = b.load(past, 4)
    b.ret([v])
    assert ("error", "oob-access") in kinds(sanitize_function(f))


def test_negative_offset_is_error():
    f, b = fresh()
    a = b.alloca(8, 4, "x")
    before = b.sub(a, Const(4))
    b.store(before, Const(1), 4)
    b.ret([Const(0)])
    assert ("error", "oob-access") in kinds(sanitize_function(f))


def test_in_bounds_tail_access_is_clean():
    f, b = fresh()
    a = b.alloca(8, 4, "x")
    b.store(a, Const(1), 4)
    tail = b.add(a, Const(4))
    b.store(tail, Const(2), 4)
    v = b.load(tail, 4)
    b.ret([v])
    assert sanitize_function(f) == []


# -- escapes -----------------------------------------------------------------


def test_escaping_address_is_reported_info():
    f, b = fresh()
    a = b.alloca(4, 4, "x")
    b.store(a, Const(1), 4)
    b.call_external("puts", [a])
    b.ret([Const(0)])
    findings = sanitize_function(f)
    assert ("info", "escaped-frame-pointer") in kinds(findings)
    # Alias analysis agrees the alloca escapes: no divergence error.
    assert "alias-divergence" not in {x.kind for x in findings}


def test_escape_site_is_named_by_opcode_and_block():
    f, b = fresh()
    a = b.alloca(4, 4, "x")
    b.store(a, Const(1), 4)
    b.call_external("puts", [a])
    b.ret([Const(0)])
    escape = next(x for x in sanitize_function(f)
                  if x.kind == "escaped-frame-pointer")
    assert escape.message == ("address of x passed to a call (callext in "
                              "block entry); mem2reg/DSE must treat it "
                              "as shared")


def test_stored_address_escapes():
    f, b = fresh()
    a = b.alloca(4, 4, "x")
    cell = b.alloca(4, 4, "cell")
    b.store(a, Const(1), 4)
    b.store(cell, a, 4)           # the *address* of x stored as a value
    b.ret([Const(0)])
    findings = sanitize_function(f)
    assert ("info", "escaped-frame-pointer") in kinds(findings)


def test_alias_divergence_flagged_when_alias_misses_escape():
    f, b = fresh()
    a = b.alloca(4, 4, "x")
    b.store(a, Const(1), 4)
    b.call_external("puts", [a])
    b.ret([Const(0)])
    aa = AliasAnalysis(f)
    aa.escaped.discard(a)         # simulate an unsound alias result
    findings = _check_escapes(f, aa, _alloca_roots(f))
    assert ("error", "alias-divergence") in kinds(findings)


def test_function_without_allocas_is_skipped():
    f, b = fresh(params=("x",))
    b.ret([f.params[0]])
    assert sanitize_function(f) == []


# -- interprocedural escape cross-check --------------------------------------


def test_interproc_escape_vs_private_alloca_diverges():
    # The interproc summaries proved [-32, -8) escapes via a callee,
    # but nothing in the symbolized body passes the address anywhere:
    # alias analysis calls the alloca private, which is exactly the
    # divergence the cross-check must surface.
    f, b = fresh()
    a = b.alloca(12, 4, "sv_m32")
    b.store(a, Const(1), 4)
    v = b.load(a, 4)
    b.ret([v])
    f.meta["interproc_escapes"] = [[-32, -8, ["main", "fill"]]]
    findings = sanitize_function(f)
    assert ("error", "alias-divergence") in kinds(findings)
    div = next(x for x in findings if x.kind == "alias-divergence")
    assert div.provenance["chain"] == ["main", "fill"]
    assert "main -> fill" in div.message
    assert a.var_name in div.message


def test_interproc_escape_agreeing_with_alias_is_clean():
    f, b = fresh()
    a = b.alloca(12, 4, "sv_m32")
    b.store(a, Const(1), 4)
    b.call_external("use", [a])   # alias analysis sees the escape too
    b.ret([Const(0)])
    f.meta["interproc_escapes"] = [[-32, -8, ["main", "fill"]]]
    findings = sanitize_function(f)
    assert "alias-divergence" not in {x.kind for x in findings}


def test_interproc_escape_outside_every_alloca_is_ignored():
    f, b = fresh()
    a = b.alloca(12, 4, "sv_m32")
    b.store(a, Const(1), 4)
    v = b.load(a, 4)
    b.ret([v])
    f.meta["interproc_escapes"] = [[-100, -80, ["main", "fill"]]]
    findings = sanitize_function(f)
    assert "alias-divergence" not in {x.kind for x in findings}


def test_unnamed_alloca_is_not_matched_by_region():
    # Only sv_m/sv_p-named allocas have a known frame offset; others
    # cannot be correlated with sp0-relative escape regions.
    f, b = fresh()
    a = b.alloca(12, 4, "tmp")
    b.store(a, Const(1), 4)
    v = b.load(a, 4)
    b.ret([v])
    f.meta["interproc_escapes"] = [[-32, -8, ["main", "fill"]]]
    findings = sanitize_function(f)
    assert "alias-divergence" not in {x.kind for x in findings}
