"""Interprocedural corroboration: call-graph summaries, escape
analysis, and EFACT-style external-signature recovery.

The per-function corroboration of :mod:`.corroborate` is blind to the
paper's sharpest soundness hazard: a frame variable whose *address*
leaves its function.  The callee's accesses through that pointer are
parameter-relative, so the caller's single-function abstract
interpretation never sees them, and the dynamic layout only covers what
the traces happened to touch — a callee that walks past the traced
extent splits or truncates an object invisibly.  This module closes
that gap with whole-module machinery (Macaw's reusable-analysis shape,
EFACT's call-site signature recovery; see PAPERS.md):

* **pointer-region interpretation** (:class:`_PInterpreter`) — the
  VSA-lite interval domain of :mod:`.absint` generalized from the
  single ``sp0`` region to one region per *pointer source*: the ``sp``
  parameter, each register parameter, and each incoming stack-argument
  slot (a load from ``sp0 + 4 + 4j`` in the lifted ABI).  Accesses
  through a region produce region-relative footprints;
* **local summaries** (:class:`LocalSummary`) — one pure, per-function
  fact bundle: region footprints, the abstract value stored into every
  exact frame slot (the outgoing-argument evidence), internal and
  external call sites, and regions that escape by being stored or
  returned.  Memoized per :attr:`~repro.ir.module.Function.version` in
  the versioned CFG-analysis cache, so a one-function edit re-computes
  exactly one summary;
* **bottom-up propagation** (:func:`summarize_module`) — a call graph
  over the lifted module (direct calls, plus indirect sites bounded by
  the target's interval against the address table) is condensed into
  SCCs and walked callees-first; inside an SCC the footprint
  translation iterates to a capped fixpoint with interval widening.  A
  callee access at ``arg_j + e`` becomes a caller access at ``b + e``
  when the caller stored ``sp0 + b`` into slot ``j`` — each translated
  access carries the call chain that produced it;
* **escaped-split check** (:func:`check_escapes`) — translated callee
  footprints are diffed against the caller's *dynamic* layout with the
  same clamp rule the per-function pass uses: an escaped access that
  crosses a recovered variable's boundary is an ``escaped-split``
  error naming the exact call chain, paired with a widening suggestion
  that every recompile applies to repair the layout;
* **extern-signature recovery** (:func:`recover_extern_sigs`) — at
  every external call site the argument-slot stores and their abstract
  values independently witness the callee's arity and pointer-ness.
  For functions modeled in :data:`repro.core.extfuncs.EXTERNAL_DB` the
  evidence is cross-checked (confident disagreement is an
  ``extern-divergence`` error); unmodeled names become ``ExtSig``
  candidates (``extern-candidate`` info findings) — the starting point
  for the ROADMAP's auto-synthesized extern stubs.

Every recompile runs the pass.  Nothing here mutates IR beyond
stashing findings metadata in ``func.meta``; the pass changes a
recompiled image only through the widening suggestions it adds, so
with a trace that already covers every escaped footprint the image is
byte-identical to one built without the pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..ir.module import Function, Module
from ..ir.values import (
    BinOp,
    Call,
    CallExt,
    CallInd,
    Const,
    GlobalRef,
    ICmp,
    Instr,
    Load,
    Phi,
    Ret,
    Store,
    Unary,
    Value,
)
from ..opt.analysis import cached_analysis, loop_headers
from .absint import FrameAccessSet, _add, _max, _min
from .corroborate import WideningSuggestion, _clamp_set
from .report import (
    ESCAPED_SPLIT,
    EXTERN_CANDIDATE,
    EXTERN_DIVERGENCE,
    Finding,
)


def _sp0fold():
    """Deferred import: :mod:`repro.core` imports this package from its
    driver, so importing it back at module scope would be a cycle."""
    from ..core import sp0fold
    return sp0fold


def _external_db():
    from ..core.extfuncs import EXTERNAL_DB
    return EXTERNAL_DB


# -- the region-tagged abstract domain ---------------------------------------

#: Region of the threaded stack pointer (``params[0]``): offsets are
#: sp0-relative, exactly the :mod:`.absint` SP region.
SP_REGION = "sp"

BOT = "bot"
NUM = "num"
PTR = "ptr"
TOP = "top"


@dataclass(frozen=True)
class PVal:
    """An abstract value: region tag + inclusive interval.

    ``region`` is :data:`SP_REGION`, ``("reg", i)`` for register
    parameter ``i``, or ``("sarg", j)`` for the value loaded from
    incoming stack-argument slot ``j``; it is only meaningful for
    ``kind == "ptr"``.
    """

    kind: str
    region: object = None
    lo: int | None = None
    hi: int | None = None

    @staticmethod
    def num(lo: int | None, hi: int | None) -> "PVal":
        return PVal(NUM, None, lo, hi)

    @staticmethod
    def const(value: int) -> "PVal":
        return PVal(NUM, None, value, value)

    @staticmethod
    def ptr(region, lo: int | None, hi: int | None) -> "PVal":
        return PVal(PTR, region, lo, hi)

    @property
    def is_exact(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def __repr__(self) -> str:
        if self.kind in (BOT, TOP):
            return self.kind
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        base = f"{self.region}+" if self.kind == PTR else ""
        return f"{base}[{lo}, {hi}]"


BOT_P = PVal(BOT)
TOP_P = PVal(TOP)
NUM_TOP_P = PVal(NUM, None, None, None)


def pjoin(a: PVal, b: PVal) -> PVal:
    if a.kind == BOT:
        return b
    if b.kind == BOT:
        return a
    if a.kind == TOP or b.kind == TOP:
        return TOP_P
    if a.kind != b.kind or a.region != b.region:
        return TOP_P
    return PVal(a.kind, a.region, _min(a.lo, b.lo), _max(a.hi, b.hi))


def pwiden(old: PVal, new: PVal) -> PVal:
    if old.kind in (BOT, TOP) or new.kind in (BOT, TOP) \
            or old.kind != new.kind or old.region != new.region:
        return pjoin(old, new)
    lo = old.lo
    if new.lo is None or (lo is not None and new.lo < lo):
        lo = None
    hi = old.hi
    if new.hi is None or (hi is not None and new.hi > hi):
        hi = None
    return PVal(new.kind, new.region, lo, hi)


_UNARY_RANGES = {
    "sext8": (-128, 127), "sext16": (-32768, 32767),
    "zext8": (0, 255), "zext16": (0, 65535),
    "trunc8": (0, 255), "trunc16": (0, 65535),
}


def _transfer_binop(instr: BinOp, val) -> PVal:
    a, b = val(instr.lhs), val(instr.rhs)
    if a.kind == BOT or b.kind == BOT:
        return BOT_P
    op = instr.opcode
    if op == "add":
        if a.kind == PTR and b.kind == NUM:
            return PVal(PTR, a.region, _add(a.lo, b.lo), _add(a.hi, b.hi))
        if a.kind == NUM and b.kind == PTR:
            return PVal(PTR, b.region, _add(b.lo, a.lo), _add(b.hi, a.hi))
        if a.kind == NUM and b.kind == NUM:
            return PVal(NUM, None, _add(a.lo, b.lo), _add(a.hi, b.hi))
        return TOP_P
    if op == "sub":
        if a.kind == PTR and b.kind == NUM:
            neg_hi = None if b.lo is None else -b.lo
            neg_lo = None if b.hi is None else -b.hi
            return PVal(PTR, a.region, _add(a.lo, neg_lo),
                        _add(a.hi, neg_hi))
        if a.kind == PTR and b.kind == PTR:
            # Same-region pointer difference is a plain number; mixed
            # regions are meaningless arithmetic.
            return NUM_TOP_P if a.region == b.region else TOP_P
        if a.kind == NUM and b.kind == NUM:
            neg_hi = None if b.lo is None else -b.lo
            neg_lo = None if b.hi is None else -b.hi
            return PVal(NUM, None, _add(a.lo, neg_lo), _add(a.hi, neg_hi))
        return TOP_P
    if op == "mul":
        if a.kind == NUM and b.kind == NUM:
            if a.bounded and b.bounded:
                prods = [a.lo * b.lo, a.lo * b.hi,
                         a.hi * b.lo, a.hi * b.hi]
                return PVal(NUM, None, min(prods), max(prods))
            return NUM_TOP_P
        # A scaled "pointer" was really an integer we mis-tagged at a
        # pristine argument-slot load (indices arrive the same way
        # addresses do); degrade to a number so `base + 4*i` keeps the
        # base's region instead of collapsing to TOP.
        return NUM_TOP_P
    # Masks/shifts on a pointer keep the region, lose the offset.
    if a.kind == PTR:
        return PVal(PTR, a.region, None, None)
    if b.kind == PTR:
        return PVal(PTR, b.region, None, None)
    return NUM_TOP_P


class _PInterpreter:
    """Region-tagged interval interpretation of one lifted function.

    Mirrors :class:`repro.sanalysis.absint._Interpreter` (same rounds,
    same loop-header widening) but seeds *every* parameter as the root
    of its own pointer region and materializes a fresh region for each
    load of a pristine incoming stack-argument slot.
    """

    def __init__(self, func: Function):
        self.func = func
        self.values: dict[Value, PVal] = {}
        self.headers = loop_headers(func)
        #: Incoming arg slots this function itself overwrites lose
        #: their pristine-argument meaning (scratch reuse).
        self.clobbered_slots: set[int] = set()

    def val(self, v: Value) -> PVal:
        if isinstance(v, Const):
            return PVal.const(v.signed)
        if self.func.params:
            if v is self.func.params[0]:
                return PVal.ptr(SP_REGION, 0, 0)
            for i, p in enumerate(self.func.params[1:], start=1):
                if v is p:
                    return PVal.ptr(("reg", i), 0, 0)
        return self.values.get(v, BOT_P)

    def _slot_of(self, fact: PVal) -> int | None:
        """Incoming stack-argument slot index of an exact sp0 address
        (``sp0 + 4 + 4j``; slot 0 sits just above the return address)."""
        if fact.kind != PTR or fact.region != SP_REGION \
                or not fact.is_exact:
            return None
        e = fact.lo
        if e is None or e < 4 or (e - 4) % 4:
            return None
        return (e - 4) // 4

    def _transfer(self, instr: Instr) -> PVal:
        if isinstance(instr, BinOp):
            return _transfer_binop(instr, self.val)
        if isinstance(instr, Phi):
            out = BOT_P
            for op in instr.ops:
                if op is instr:
                    continue
                out = pjoin(out, self.val(op))
            return out
        if isinstance(instr, Unary):
            if instr.opcode == "neg":
                src = self.val(instr.src)
                if src.kind == NUM:
                    neg_hi = None if src.lo is None else -src.lo
                    neg_lo = None if src.hi is None else -src.hi
                    return PVal(NUM, None, neg_lo, neg_hi)
                return TOP_P if src.kind in (PTR, TOP) else BOT_P
            rng = _UNARY_RANGES.get(instr.opcode)
            if rng is not None:
                return PVal(NUM, None, rng[0], rng[1])
            return NUM_TOP_P
        if isinstance(instr, ICmp):
            return PVal(NUM, None, 0, 1)
        if isinstance(instr, Load):
            slot = self._slot_of(self.val(instr.addr))
            if slot is not None and slot not in self.clobbered_slots \
                    and instr.size == 4:
                return PVal.ptr(("sarg", slot), 0, 0)
            return NUM_TOP_P
        if isinstance(instr, CallExt):
            return NUM_TOP_P
        if instr.has_result:
            return NUM_TOP_P
        return BOT_P

    def run(self) -> dict[Value, PVal]:
        for _round in range(16):
            changed = False
            for block in self.func.blocks:
                at_header = block in self.headers
                for instr in block.instrs:
                    if isinstance(instr, Store):
                        slot = self._slot_of(self.val(instr.addr))
                        if slot is not None \
                                and slot not in self.clobbered_slots:
                            self.clobbered_slots.add(slot)
                            changed = True
                        continue
                    new = self._transfer(instr)
                    old = self.values.get(instr, BOT_P)
                    if at_header and isinstance(instr, Phi):
                        new = pwiden(old, new)
                    else:
                        new = pjoin(old, new)
                    if new != old:
                        self.values[instr] = new
                        changed = True
            if not changed:
                return self.values
        for block in self.func.blocks:
            for instr in block.instrs:
                if instr.has_result:
                    new = self._transfer(instr)
                    old = self.values.get(instr, BOT_P)
                    if pjoin(old, new) != old:
                        self.values[instr] = TOP_P
        return self.values


# -- local summaries ---------------------------------------------------------


@dataclass(frozen=True)
class RAccess:
    """One access through a pointer region, region-relative.

    ``hi`` is ``None`` for derived accesses (interval unbounded above);
    ``lo`` falls back to the lowest witnessed offset (0 for a fresh
    argument pointer).
    """

    lo: int
    hi: int | None
    width: int
    kind: str                 # "load" | "store"
    exact: bool = False

    def shifted(self, delta: int) -> "RAccess":
        return RAccess(self.lo + delta,
                       None if self.hi is None else self.hi + delta,
                       self.width, self.kind, self.exact)


@dataclass(frozen=True)
class SlotValue:
    """Joined evidence about the value stored into one exact frame
    slot: its abstract value plus whether any store put a
    global-address constant there (pointer-ness evidence the interval
    domain alone cannot carry)."""

    pval: PVal
    global_addr: bool = False

    @property
    def is_pointer(self) -> bool:
        return self.pval.kind == PTR or self.global_addr


@dataclass
class CallSite:
    """One internal call (direct or indirect) as summary input."""

    callees: tuple[str, ...]          # direct: the lifted name
    sp_off: int | None                # exact sp0 offset of args[0]
    reg_args: dict = field(default_factory=dict)   # reg index -> PVal
    indirect: bool = False
    target_interval: tuple | None = None   # indirect: (lo, hi) or None


@dataclass
class ExternSite:
    """One external call with its argument-area evidence."""

    name: str
    base: int | None                  # sp0 offset of argument slot 0
    stack_switched: bool
    declared_args: int | None         # len(args) of the explicit form


@dataclass
class LocalSummary:
    """Pure per-function facts, safe to memoize per mutation epoch."""

    func_name: str
    #: region tag -> region-relative accesses through that region.
    accesses: dict = field(default_factory=dict)
    #: exact sp0 offset -> joined :class:`SlotValue` of stored values.
    slot_values: dict = field(default_factory=dict)
    calls: list = field(default_factory=list)
    externs: list = field(default_factory=list)
    #: non-sp regions whose pointer is stored to memory (escapes to an
    #: unknown consumer) — propagation must widen these to "anything".
    stored_regions: set = field(default_factory=set)
    #: result index -> (region, exact offset) for returned pointers.
    returned: dict = field(default_factory=dict)


def local_summary(func: Function) -> LocalSummary:
    """One function's :class:`LocalSummary`, memoized per mutation
    epoch in the versioned CFG-analysis cache."""
    computed = []

    def build(f: Function) -> LocalSummary:
        computed.append(True)
        return _build_local_summary(f)

    out = cached_analysis(func, "interproc.local", build)
    if computed:
        obs.count("sanalysis.summary.computed")
        obs.event("sanalysis.summary", func=func.name,
                  regions=len(out.accesses), calls=len(out.calls),
                  externs=len(out.externs))
    else:
        obs.count("sanalysis.summary.reused")
    return out


def _build_local_summary(func: Function) -> LocalSummary:
    out = LocalSummary(func.name)
    if not _sp0fold().is_lifted_function(func):
        return out
    interp = _PInterpreter(func)
    values = interp.run()
    # region -> the accesses already in out.accesses[region]
    recorded: dict = {}

    def val(v: Value) -> PVal:
        if isinstance(v, Const):
            return PVal.const(v.signed)
        if func.params:
            if v is func.params[0]:
                return PVal.ptr(SP_REGION, 0, 0)
            for i, p in enumerate(func.params[1:], start=1):
                if v is p:
                    return PVal.ptr(("reg", i), 0, 0)
        return values.get(v, BOT_P)

    def record_access(fact: PVal, width: int, kind: str) -> None:
        if fact.kind != PTR:
            return
        lo = fact.lo if fact.lo is not None else 0
        if fact.hi is None:
            acc = RAccess(lo, None, width, kind)
        else:
            acc = RAccess(lo, fact.hi + width, width, kind,
                          exact=fact.is_exact)
        seen = recorded.get(fact.region)
        if seen is None:
            seen = recorded[fact.region] = set()
            out.accesses[fact.region] = []
        if acc not in seen:
            seen.add(acc)
            out.accesses[fact.region].append(acc)

    def record_slot(off: int, value: Value) -> None:
        pv = val(value)
        glob = isinstance(value, GlobalRef)
        prev = out.slot_values.get(off)
        if prev is None:
            out.slot_values[off] = SlotValue(pv, glob)
        else:
            out.slot_values[off] = SlotValue(
                pjoin(prev.pval, pv), prev.global_addr or glob)

    for block in func.blocks:
        for instr in block.instrs:
            if isinstance(instr, Load):
                record_access(val(instr.addr), instr.size, "load")
            elif isinstance(instr, Store):
                fact = val(instr.addr)
                record_access(fact, instr.size, "store")
                vfact = val(instr.value)
                if fact.kind == PTR and fact.region == SP_REGION \
                        and fact.is_exact:
                    record_slot(fact.lo, instr.value)
                elif vfact.kind == PTR and vfact.region != SP_REGION:
                    # A region pointer stored through an address we
                    # cannot pin: it escapes to an unknown consumer.
                    out.stored_regions.add(vfact.region)
            elif isinstance(instr, Call):
                sp_fact = val(instr.args[0]) if instr.args else BOT_P
                site = CallSite(
                    callees=(instr.callee.name,),
                    sp_off=sp_fact.lo if sp_fact.kind == PTR
                    and sp_fact.region == SP_REGION
                    and sp_fact.is_exact else None,
                    reg_args={i: val(a) for i, a in
                              enumerate(instr.args[1:], start=1)})
                out.calls.append(site)
            elif isinstance(instr, CallInd):
                tfact = val(instr.target)
                sp_fact = val(instr.args[0]) if instr.args else BOT_P
                site = CallSite(
                    callees=(),
                    sp_off=sp_fact.lo if sp_fact.kind == PTR
                    and sp_fact.region == SP_REGION
                    and sp_fact.is_exact else None,
                    reg_args={i: val(a) for i, a in
                              enumerate(instr.args[1:], start=1)},
                    indirect=True,
                    target_interval=(tfact.lo, tfact.hi)
                    if tfact.kind == NUM and tfact.bounded else None)
                out.calls.append(site)
            elif isinstance(instr, CallExt):
                if instr.stack_args:
                    sp_fact = val(instr.sp)
                    base = sp_fact.lo if sp_fact.kind == PTR \
                        and sp_fact.region == SP_REGION \
                        and sp_fact.is_exact else None
                    out.externs.append(ExternSite(
                        instr.ext_name, base, True, None))
                else:
                    # Explicit-args form: recover the argument area
                    # from args that are still loads of exact slots.
                    base = None
                    for i, arg in enumerate(instr.args):
                        if not isinstance(arg, Load):
                            continue
                        afact = val(arg.addr)
                        if afact.kind == PTR \
                                and afact.region == SP_REGION \
                                and afact.is_exact:
                            base = afact.lo - 4 * i
                            break
                    out.externs.append(ExternSite(
                        instr.ext_name, base, False, len(instr.args)))
            elif isinstance(instr, Ret):
                for i, op in enumerate(instr.ops):
                    fact = val(op)
                    if fact.kind == PTR and fact.region != SP_REGION \
                            and fact.is_exact:
                        out.returned[i] = (fact.region, fact.lo)
    return out


# -- call graph + SCC condensation -------------------------------------------


def _indirect_candidates(module: Module,
                         interval: tuple | None) -> tuple[str, ...]:
    """Lifted functions an indirect call may reach, bounded by the
    target interval against the address table (unbounded: all)."""
    names = []
    for addr in sorted(module.address_table):
        if interval is not None:
            lo, hi = interval
            if not (lo <= addr <= hi):
                continue
        name = module.address_table[addr]
        if name in module.functions:
            names.append(name)
    return tuple(names)


def build_call_graph(module: Module,
                     locals_: dict[str, LocalSummary]) -> dict[str, tuple]:
    """``caller -> candidate callees`` over the lifted module."""
    graph: dict[str, tuple] = {}
    for name, summary in locals_.items():
        edges: list[str] = []
        for site in summary.calls:
            if site.indirect:
                edges.extend(_indirect_candidates(
                    module, site.target_interval))
            else:
                edges.extend(c for c in site.callees
                             if c in module.functions)
        graph[name] = tuple(dict.fromkeys(edges))
    return graph


def strongly_connected(graph: dict[str, tuple]) -> list[list[str]]:
    """Tarjan SCCs in reverse-topological order (callees before
    callers), iterative to keep deep call chains off the Python
    recursion limit."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            advanced = False
            for succ in edges:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs


# -- bottom-up summary propagation -------------------------------------------

#: Cap on footprint entries per region and on SCC fixpoint rounds;
#: recursion that keeps shifting offsets is widened past these.
_FOOTPRINT_CAP = 64
_SCC_ROUNDS = 8


@dataclass
class FunctionSummary:
    """A function's local facts plus its *effective* footprints:
    region tag -> ``{RAccess: chain}`` where the chain names the call
    path (starting at this function itself) that contributed a
    translated access.  Keying on the access keeps recursive SCCs from
    accumulating one entry per unrolled chain length — the first
    (shortest) chain for an access wins."""

    name: str
    local: LocalSummary
    footprints: dict = field(default_factory=dict)

    def footprint(self, region) -> dict:
        return self.footprints.get(region, {})


def _slot_value(summary: LocalSummary, site: CallSite,
                slot: int) -> SlotValue | None:
    """What the caller put into callee stack-arg slot ``slot`` at this
    site: the store at ``sp_off + 4 + 4*slot`` (args[0] is ``esp1``,
    the callee's sp0; slot 0 sits above the pushed return address)."""
    if site.sp_off is None:
        return None
    return summary.slot_values.get(site.sp_off + 4 + 4 * slot)


def _arg_pval(summary: LocalSummary, site: CallSite, region) -> PVal | None:
    """The abstract value the caller passed for a callee region."""
    if isinstance(region, tuple) and region[0] == "sarg":
        sv = _slot_value(summary, site, region[1])
        return sv.pval if sv is not None else None
    if isinstance(region, tuple) and region[0] == "reg":
        return site.reg_args.get(region[1])
    return None


def _propagate_one(fs: FunctionSummary,
                   summaries: dict[str, "FunctionSummary"]) -> bool:
    """Fold callee footprints into ``fs`` (one round); True if grown."""
    changed = False
    for site in fs.local.calls:
        for callee in site.callees:
            callee_fs = summaries.get(callee)
            if callee_fs is None:
                continue
            for c_region, entries in callee_fs.footprints.items():
                if c_region == SP_REGION:
                    continue   # the sp threading is ABI linkage, not
                               # an escaped variable address
                passed = _arg_pval(fs.local, site, c_region)
                if passed is None or passed.kind != PTR:
                    continue
                region, delta = passed.region, passed.lo
                if region == SP_REGION:
                    continue   # checked at the caller, not propagated
                bucket = fs.footprints.setdefault(region, {})
                for acc, chain in list(entries.items()):
                    if fs.name in chain:
                        # Recursion: widen instead of re-shifting
                        # forever, and keep the chain as-is so the
                        # cycle is not unrolled into ever-longer paths.
                        t = RAccess(min(acc.lo, 0), None, acc.width,
                                    acc.kind)
                        new_chain = chain
                    elif delta is not None and passed.is_exact:
                        t = acc.shifted(delta)
                        new_chain = (fs.name, *chain)
                    else:
                        t = RAccess(acc.lo, None, acc.width, acc.kind)
                        new_chain = (fs.name, *chain)
                    if t not in bucket \
                            and len(bucket) < _FOOTPRINT_CAP:
                        bucket[t] = new_chain
                        changed = True
    return changed


def summarize_module(module: Module) -> dict[str, FunctionSummary]:
    """Bottom-up function summaries over SCCs to fixpoint.

    Local summaries come from the versioned analysis cache (one
    interpretation per mutation epoch); the propagation itself is
    cheap list-folding and recomputes per call.
    """
    lifted = _sp0fold().is_lifted_function
    locals_: dict[str, LocalSummary] = {}
    with obs.span("sanalysis.summaries"):
        for func in module.functions.values():
            if lifted(func):
                locals_[func.name] = local_summary(func)
    graph = build_call_graph(module, locals_)
    summaries: dict[str, FunctionSummary] = {}
    for scc in strongly_connected(graph):
        for name in scc:
            fs = FunctionSummary(name, locals_[name])
            fs.footprints = {
                region: {acc: (name,) for acc in accs}
                for region, accs in locals_[name].accesses.items()}
            summaries[name] = fs
        for _round in range(_SCC_ROUNDS):
            changed = False
            for name in scc:
                if _propagate_one(summaries[name], summaries):
                    changed = True
            if not changed:
                break
    return summaries


# -- the escaped-split check -------------------------------------------------


def _clamped(lo: int, hi: int | None, clamps: list[int]) -> int | None:
    """Concrete upper bound for a translated access: derived extents
    stop at the next independently-evidenced frame offset."""
    if hi is not None:
        return min(hi, 0) if hi > 0 and lo < 0 else hi
    for bound in clamps:
        if bound > lo:
            return bound
    return None


def check_escapes(func_name: str,
                  summary: FunctionSummary,
                  summaries: dict[str, FunctionSummary],
                  layout,
                  access_set: FrameAccessSet,
                  ) -> tuple[list[Finding], list[WideningSuggestion],
                             list[tuple]]:
    """Diff translated callee footprints against the caller's dynamic
    layout.  Returns findings, widening suggestions, and the escaped
    regions ``(start, end, chain)`` for the sanitizer cross-check."""
    findings: list[Finding] = []
    suggestions: list[WideningSuggestion] = []
    escapes: list[tuple] = []
    variables = sorted(layout.variables, key=lambda v: v.start)
    clamps = _clamp_set(access_set, layout)
    seen = set()

    for site in summary.local.calls:
        for callee in site.callees:
            callee_fs = summaries.get(callee)
            if callee_fs is None:
                continue
            for c_region, entries in callee_fs.footprints.items():
                if c_region == SP_REGION:
                    continue
                passed = _arg_pval(summary.local, site, c_region)
                if passed is None or passed.kind != PTR \
                        or passed.region != SP_REGION \
                        or not passed.is_exact:
                    continue
                # Union the translated footprint first: a callee that
                # touches p[0], p[1], ... p[7] with aligned exact
                # accesses never straddles a variable boundary with any
                # *single* access, but the union of its reach does.
                base = passed.lo
                ext_lo = ext_hi = None
                best_chain = None
                derived = False
                kinds: set[str] = set()
                for acc, chain in entries.items():
                    t_lo = base + acc.lo
                    t_hi = None if acc.hi is None else base + acc.hi
                    if t_lo >= 0:
                        continue      # argument/return-address side
                    hi = _clamped(t_lo, t_hi, clamps)
                    if hi is None or hi <= t_lo:
                        continue
                    obs.count("sanalysis.escape.checked")
                    kinds.add(acc.kind)
                    if ext_lo is None or t_lo < ext_lo:
                        ext_lo = t_lo
                    if ext_hi is None or hi > ext_hi:
                        ext_hi = hi
                        best_chain = chain
                        derived = acc.hi is None
                if ext_lo is None:
                    continue
                chain_full = (func_name, *best_chain)
                escapes.append((ext_lo, ext_hi, chain_full))
                overlapping = [v for v in variables
                               if v.start < ext_hi and ext_lo < v.end]
                if any(v.start <= ext_lo and ext_hi <= v.end
                       for v in overlapping):
                    continue          # contained: corroborated
                if not overlapping:
                    continue          # fully untraced region: the
                                      # caller-side gap pass owns it
                key = (ext_lo, ext_hi, chain_full)
                if key in seen:
                    continue
                seen.add(key)
                v = overlapping[0]
                kind = next(iter(kinds)) if len(kinds) == 1 \
                    else "access"
                arrow = " -> ".join(chain_full)
                findings.append(Finding(
                    "error", ESCAPED_SPLIT, func_name,
                    f"&frame[{base}] escapes via {arrow}; the "
                    f"callee may {kind} [{ext_lo}, {ext_hi}) but the "
                    f"dynamic layout bounds the variable at "
                    f"[{v.start}, {v.end})",
                    offset=ext_lo, width=ext_hi - ext_lo,
                    provenance={"pass": "interproc",
                                "chain": list(chain_full),
                                "region": [ext_lo, ext_hi],
                                "variable": [v.start, v.end],
                                "derived": derived}))
                obs.count("sanalysis.escape.findings")
                obs.event("sanalysis.escape", func=func_name,
                          chain=list(chain_full),
                          region=[ext_lo, ext_hi],
                          variable=[v.start, v.end])
                s_start = min([ext_lo] + [ov.start
                                          for ov in overlapping])
                s_end = max([ext_hi] + [ov.end for ov in overlapping])
                suggestion = WideningSuggestion(
                    func_name, s_start, s_end,
                    reason=f"escaped pointer footprint via {arrow}")
                if suggestion not in suggestions:
                    suggestions.append(suggestion)
    return findings, suggestions, escapes


# -- extern-signature recovery -----------------------------------------------


@dataclass
class InferredExtSig:
    """Call-site evidence for one external function, module-wide."""

    name: str
    #: Per-site contiguous argument-slot evidence counts.
    site_counts: list = field(default_factory=list)
    #: Slot indices whose stored value is statically a pointer.
    ptr_args: set = field(default_factory=set)
    #: Slot indices whose stored value is statically a plain number.
    int_args: set = field(default_factory=set)
    sites: int = 0

    @property
    def nargs(self) -> int:
        return min(self.site_counts) if self.site_counts else 0

    @property
    def vararg(self) -> bool:
        return len(set(self.site_counts)) > 1

    def to_candidate(self) -> dict:
        return {"name": self.name, "nargs": self.nargs,
                "vararg": self.vararg,
                "ptr_args": sorted(self.ptr_args),
                "sites": self.sites}


def _global_ranges(module: Module) -> list[tuple[int, int]]:
    ranges = []
    for g in module.globals.values():
        if g.fixed_addr is not None:
            ranges.append((g.fixed_addr, g.fixed_addr + g.size))
    return sorted(ranges)


def _slot_is_pointer(sv: SlotValue,
                     ranges: list[tuple[int, int]]) -> bool | None:
    """True/False when the evidence is conclusive, None when not."""
    if sv.is_pointer:
        return True
    pv = sv.pval
    if pv.kind == NUM and pv.is_exact:
        return any(lo <= pv.lo < hi for lo, hi in ranges)
    return None


def recover_extern_sigs(module: Module,
                        summaries: dict[str, FunctionSummary],
                        ) -> tuple[list[Finding],
                                   dict[str, InferredExtSig]]:
    """EFACT-style signature recovery from call-site evidence.

    The argument area of an external call is witnessed by the stores
    the caller issued into it: contiguous stored slots starting at the
    argument base bound the arity from below, and the stored values'
    abstract kinds witness pointer-ness.  Modeled functions are
    cross-checked against :data:`~repro.core.extfuncs.EXTERNAL_DB`
    (fewer witnessed slots than the model requires, or a conclusive
    non-pointer in a modeled pointer position, is an
    ``extern-divergence`` error); unknown names become ``ExtSig``
    candidates.
    """
    db = _external_db()
    ranges = _global_ranges(module)
    findings: list[Finding] = []
    inferred: dict[str, InferredExtSig] = {}
    seen_div = set()

    for fs in summaries.values():
        summary = fs.local
        for site in summary.externs:
            obs.count("sanalysis.extern.sites")
            sig = inferred.setdefault(site.name,
                                      InferredExtSig(site.name))
            sig.sites += 1
            if site.base is None:
                continue
            count = 0
            while (site.base + 4 * count) in summary.slot_values:
                sv = summary.slot_values[site.base + 4 * count]
                is_ptr = _slot_is_pointer(sv, ranges)
                if is_ptr is True:
                    sig.ptr_args.add(count)
                elif is_ptr is False:
                    sig.int_args.add(count)
                count += 1
            sig.site_counts.append(count)
            model = db.get(site.name)
            if model is None:
                continue
            # -- cross-check against the modeled ground truth --------
            if count < model.nargs:
                key = (site.name, summary.func_name, site.base)
                if key not in seen_div:
                    seen_div.add(key)
                    findings.append(Finding(
                        "error", EXTERN_DIVERGENCE, summary.func_name,
                        f"call to {site.name} witnesses {count} "
                        f"argument slot(s) at sp0{site.base:+d} but "
                        f"the external database models "
                        f"{model.nargs}",
                        offset=site.base, width=4 * model.nargs,
                        provenance={"pass": "interproc",
                                    "extern": site.name,
                                    "witnessed": count,
                                    "modeled": model.nargs}))
                continue
            for constraint in model.constraints:
                for pos in constraint.args:
                    if pos < 0 or pos >= model.nargs:
                        continue
                    sv = summary.slot_values.get(site.base + 4 * pos)
                    if sv is None:
                        continue
                    if _slot_is_pointer(sv, ranges) is False:
                        key = (site.name, summary.func_name,
                               site.base, pos)
                        if key in seen_div:
                            continue
                        seen_div.add(key)
                        findings.append(Finding(
                            "error", EXTERN_DIVERGENCE,
                            summary.func_name,
                            f"call to {site.name} passes a plain "
                            f"number in argument {pos}, which the "
                            f"external database models as a pointer "
                            f"({constraint.kind})",
                            offset=site.base + 4 * pos, width=4,
                            provenance={"pass": "interproc",
                                        "extern": site.name,
                                        "arg": pos,
                                        "constraint": constraint.kind}))

    for name, sig in sorted(inferred.items()):
        if name in db or not sig.site_counts:
            continue
        obs.count("sanalysis.extern.candidates")
        obs.event("sanalysis.extern", extern=name,
                  nargs=sig.nargs, vararg=sig.vararg,
                  ptr_args=sorted(sig.ptr_args), sites=sig.sites)
        findings.append(Finding(
            "info", EXTERN_CANDIDATE, "<module>",
            f"unmodeled external {name}: inferred "
            f"{sig.nargs} argument(s)"
            f"{' (vararg)' if sig.vararg else ''}, pointer args "
            f"{sorted(sig.ptr_args)} from {sig.sites} call site(s)",
            provenance={"pass": "interproc",
                        "candidate": sig.to_candidate()}))
    return findings, inferred


# -- driver entry point ------------------------------------------------------


def interproc_corroborate(module: Module,
                          layouts: dict,
                          accesses: dict[str, FrameAccessSet],
                          ) -> tuple[list[Finding],
                                     list[WideningSuggestion]]:
    """The whole interprocedural pass: summaries, escaped-split
    corroboration against the dynamic layouts, and extern-signature
    recovery.  Stashes each function's escaped regions in
    ``func.meta["interproc_escapes"]`` for the sanitizer's alias
    cross-check."""
    summaries = summarize_module(module)
    findings: list[Finding] = []
    suggestions: list[WideningSuggestion] = []
    for name in sorted(summaries):
        layout = layouts.get(name)
        access_set = accesses.get(name)
        if layout is None or access_set is None:
            continue
        fs, ss, escapes = check_escapes(
            name, summaries[name], summaries, layout, access_set)
        findings.extend(fs)
        suggestions.extend(ss)
        func = module.functions.get(name)
        if func is not None and escapes:
            func.meta["interproc_escapes"] = [
                [lo, hi, list(chain)] for lo, hi, chain in escapes]
    efindings, _inferred = recover_extern_sigs(module, summaries)
    findings.extend(efindings)
    return findings, suggestions
