"""IR sanitizer suite: flow-sensitive lints over symbolized IR.

Runs after stack symbolization (recovered variables are native allocas)
and before the optimizer, extending the structural checks of
:mod:`repro.ir.verifier` with semantic lints:

* **uninit-read** — a load from a local with a path from entry on which
  no store covered the loaded bytes (must-init forward dataflow, joins
  intersect);
* **oob-access** — a constant-offset load/store that lands outside its
  recovered alloca's byte range: the dynamic layout under-sized an
  object the code provably addresses;
* **escaped-frame-pointer** — a local's address flowing into a call, a
  stored value, or a return; such allocas must not be treated as
  private by mem2reg/DSE.  The scan is written independently of
  :class:`repro.opt.alias.AliasAnalysis` and cross-checked against it:
  an alloca this pass proves escaping that alias analysis calls private
  is an ``alias-divergence`` error (the optimizer would miscompile).

A third, interprocedural corroborator rides on the same kind: the
escape summaries of :mod:`.interproc` stash each function's escaped
frame regions (with the call chain that pinned them) in
``func.meta["interproc_escapes"]`` *before* symbolization; after
symbolization those sp0-relative regions map onto allocas by the
``sv_m<off>`` naming, and an alloca the summaries mark escaped that
alias analysis still calls private is the same ``alias-divergence``
error — two independent escape analyses disagreeing about the fact the
optimizer depends on.
"""

from __future__ import annotations

import re
from collections import deque

from ..ir.module import Block, Function, Module
from ..ir.values import (
    Alloca,
    BinOp,
    Call,
    CallExt,
    CallInd,
    Instr,
    Load,
    Phi,
    Ret,
    Store,
    Value,
)
from ..opt.alias import AliasAnalysis
from .report import (
    ALIAS_DIVERGENCE,
    ESCAPED_FRAME_POINTER,
    OOB_ACCESS,
    UNINIT_READ,
    Finding,
)

# -- byte-interval sets (sorted disjoint (lo, hi) tuples) -------------------


def _add_interval(intervals: tuple, lo: int, hi: int) -> tuple:
    if hi <= lo:
        return intervals
    merged = []
    for i_lo, i_hi in intervals:
        if i_hi < lo or hi < i_lo:
            merged.append((i_lo, i_hi))
        else:
            lo, hi = min(lo, i_lo), max(hi, i_hi)
    merged.append((lo, hi))
    return tuple(sorted(merged))


def _covers(intervals: tuple, lo: int, hi: int) -> bool:
    for i_lo, i_hi in intervals:
        if i_lo <= lo and hi <= i_hi:
            return True
    return False


def _intersect(a: tuple, b: tuple) -> tuple:
    out = []
    for a_lo, a_hi in a:
        for b_lo, b_hi in b:
            lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
            if lo < hi:
                out.append((lo, hi))
    return tuple(out)


def _join(a: dict, b: dict) -> dict:
    """Must-init join of two states, each mapping an alloca to its
    initialized bytes and holding only allocas with some: an alloca
    stays where both sides initialized part of it, an equal entry is
    kept as it is, and an empty intersection is dropped."""
    if len(b) < len(a):
        a, b = b, a
    out = {}
    for alloca, init in a.items():
        other = b.get(alloca)
        if other is None:
            continue
        if other is not init and other != init:
            init = _intersect(init, other)
            if not init:
                continue
        out[alloca] = init
    return out


# -- independent escape scan ------------------------------------------------


def _alloca_roots(func: Function) -> dict[Value, Alloca]:
    """Which alloca each value is derived from, tracked through
    constant and variable pointer arithmetic and phis.  Intentionally a
    separate implementation from :class:`AliasAnalysis` so the two can
    corroborate each other."""
    roots: dict[Value, Alloca] = {}
    derived = []
    for instr in func.instructions():
        if isinstance(instr, Alloca):
            roots[instr] = instr
        elif isinstance(instr, Phi) or (isinstance(instr, BinOp)
                                        and instr.opcode in ("add", "sub")):
            derived.append(instr)
    for _ in range(12):
        changed = False
        for instr in derived:
            if instr in roots:
                continue
            ops = [op for op in instr.operands() if op is not instr]
            found = {roots[op] for op in ops if op in roots}
            if len(found) == 1:
                roots[instr] = found.pop()
                changed = True
        if not changed:
            break
    return roots


def _escape_sites(func: Function,
                  roots: dict[Value, Alloca]) -> list[tuple[Alloca,
                                                            str, Instr]]:
    sites = []
    for instr in func.instructions():
        if isinstance(instr, Store):
            root = roots.get(instr.value)
            if root is not None:
                sites.append((root, "stored as a value", instr))
        elif isinstance(instr, (Call, CallInd, CallExt)):
            for arg in instr.args:
                root = roots.get(arg)
                if root is not None:
                    sites.append((root, "passed to a call", instr))
        elif isinstance(instr, Ret):
            for op in instr.ops:
                root = roots.get(op)
                if root is not None:
                    sites.append((root, "returned", instr))
    return sites


# -- the lints --------------------------------------------------------------


def _describe(alloca: Alloca) -> str:
    return alloca.var_name or f"alloca[{alloca.size}]"


def _check_oob(func: Function, aa: AliasAnalysis) -> list[Finding]:
    findings = []
    seen = set()
    for instr in func.instructions():
        if isinstance(instr, Load):
            addr, size, kind = instr.addr, instr.size, "load"
        elif isinstance(instr, Store):
            addr, size, kind = instr.addr, instr.size, "store"
        else:
            continue
        fact = aa.fact_for(addr)
        if fact[0] != "alloca" or fact[2] is None:
            continue
        alloca, offset = fact[1], fact[2]
        if 0 <= offset and offset + size <= alloca.size:
            continue
        key = (id(alloca), offset, size, kind)
        if key in seen:
            continue
        seen.add(key)
        findings.append(Finding(
            "error", OOB_ACCESS, func.name,
            f"constant-offset {kind} [{offset}, {offset + size}) is "
            f"out of bounds for {_describe(alloca)} of "
            f"{alloca.size} bytes",
            offset=offset, width=size,
            provenance={"pass": "sanitize", "variable":
                        _describe(alloca), "alloca_size": alloca.size}))
    return findings


def _check_escapes(func: Function, aa: AliasAnalysis,
                   roots: dict[Value, Alloca]) -> list[Finding]:
    findings = []
    seen = set()
    for alloca, how, site in _escape_sites(func, roots):
        key = (id(alloca), how)
        if key in seen:
            continue
        seen.add(key)
        findings.append(Finding(
            "info", ESCAPED_FRAME_POINTER, func.name,
            f"address of {_describe(alloca)} {how} ({site.opcode} in "
            f"block {site.block.name}); mem2reg/DSE must treat it as "
            f"shared",
            provenance={"pass": "sanitize",
                        "variable": _describe(alloca)}))
        if alloca not in aa.escaped:
            findings.append(Finding(
                "error", ALIAS_DIVERGENCE, func.name,
                f"{_describe(alloca)} escapes ({how}) but alias "
                f"analysis classifies it private — optimizer "
                f"assumptions are unsound",
                provenance={"pass": "sanitize",
                            "variable": _describe(alloca)}))
    return findings


_VAR_NAME_RE = re.compile(r"^sv_([mp])(\d+)$")


def _alloca_start(alloca: Alloca) -> int | None:
    """Invert the ``FrameVariable.name`` scheme (``sv_m84`` -> -84)."""
    m = _VAR_NAME_RE.match(alloca.var_name or "")
    if m is None:
        return None
    off = int(m.group(2))
    return -off if m.group(1) == "m" else off


def _check_interproc_escapes(func: Function,
                             aa: AliasAnalysis) -> list[Finding]:
    """Cross-check the interprocedural escape summaries against alias
    analysis: an alloca whose sp0-region the summaries proved escaped
    (its address flowed into a callee that dereferences it) must be in
    ``aa.escaped`` too, or the optimizer is working from an unsound
    no-alias fact."""
    regions = func.meta.get("interproc_escapes") or []
    if not regions:
        return []
    findings = []
    seen = set()
    for lo, hi, chain in regions:
        for instr in func.instructions():
            if not isinstance(instr, Alloca):
                continue
            start = _alloca_start(instr)
            if start is None:
                continue
            if start >= hi or lo >= start + instr.size:
                continue
            if instr in aa.escaped:
                continue
            key = (id(instr), tuple(chain))
            if key in seen:
                continue
            seen.add(key)
            arrow = " -> ".join(chain)
            findings.append(Finding(
                "error", ALIAS_DIVERGENCE, func.name,
                f"{_describe(instr)} escapes interprocedurally "
                f"(callee footprint [{lo}, {hi}) via {arrow}) but "
                f"alias analysis classifies it private — optimizer "
                f"assumptions are unsound",
                offset=lo, width=hi - lo,
                provenance={"pass": "interproc",
                            "variable": _describe(instr),
                            "chain": list(chain)}))
    return findings


def _check_uninit(func: Function, aa: AliasAnalysis) -> list[Finding]:
    """Must-init forward dataflow over tracked (non-escaping) allocas.

    A state maps each tracked alloca with initialized bytes to them
    (sorted disjoint byte intervals); an alloca it does not hold has
    none, so a state costs what the path initialized, not one entry per
    tracked alloca."""
    # Each block's loads and stores of tracked (non-escaping) allocas,
    # resolved once: (instr, alloca, offset or None); the fixpoint
    # revisits blocks.
    accesses: dict[Block, list] = {}
    for block in func.blocks:
        found = []
        for instr in block.instrs:
            if isinstance(instr, (Load, Store)):
                fact = aa.fact_for(instr.addr)
                if fact[0] == "alloca" and fact[1] not in aa.escaped:
                    found.append((instr, fact[1], fact[2]))
        accesses[block] = found
    if not any(accesses.values()):
        return []

    def transfer_block(block: Block, state: dict,
                       findings: list | None) -> dict:
        state = dict(state)
        reported = set()
        for instr, alloca, offset in accesses[block]:
            if isinstance(instr, Store):
                if offset is None:
                    # Variable-offset store: assume it may have
                    # initialized anything (anti-false-positive).
                    state[alloca] = ((0, alloca.size),)
                else:
                    init = _add_interval(state.get(alloca, ()), offset,
                                         offset + instr.size)
                    if init:
                        state[alloca] = init
            elif findings is not None:
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

    in_states: dict[Block, dict | None] = {b: None for b in func.blocks}
    in_states[func.entry] = {}
    out_states: dict[Block, dict] = {}
    work = deque(func.blocks)
    queued = set(work)
    while work:
        block = work.popleft()
        queued.discard(block)
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
            old = in_states[succ]
            joined = out if old is None else _join(old, out)
            if joined != old:
                in_states[succ] = joined
                if succ not in queued:
                    queued.add(succ)
                    work.append(succ)

    findings: list[Finding] = []
    for block in func.blocks:
        in_state = in_states[block]
        if in_state is not None:
            transfer_block(block, in_state, findings)
    return findings


def sanitize_function(func: Function,
                      module: Module | None = None) -> list[Finding]:
    """All sanitizer findings for one symbolized function."""
    if not any(isinstance(i, Alloca) for i in func.instructions()):
        return []
    aa = AliasAnalysis(func, module)
    roots = _alloca_roots(func)
    findings = _check_oob(func, aa)
    findings.extend(_check_escapes(func, aa, roots))
    findings.extend(_check_interproc_escapes(func, aa))
    findings.extend(_check_uninit(func, aa))
    return findings


def sanitize_module(module: Module) -> list[Finding]:
    findings: list[Finding] = []
    for func in module.functions.values():
        findings.extend(sanitize_function(func, module))
    return findings
