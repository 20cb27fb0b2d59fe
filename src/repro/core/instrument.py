"""Instrumentation pass: inserts the ``wyt.*`` probes (paper §4.2.2).

The pass runs on canonicalized lifted IR (vcpu registers already in SSA,
direct stack references annotated by :mod:`repro.core.sp0fold`) and
inserts probe intrinsics that the IR interpreter dispatches to the
:class:`~repro.core.runtime.TracingRuntime`:

========  ==================================================================
probe     inserted at
========  ==================================================================
fnenter   function entry (frame descriptor push, argument info marshal)
fnexit    before every return (return info marshal, frame pop)
callargs  before every internal call (stage argument PointerInfo)
callres   after every internal call (adopt returned PointerInfo)
stackref  after every direct stack reference (base pointer registration)
derive    after add/sub/and with one constant operand
derive2   after add/sub with two non-constant operands
link      after pointer comparisons
copy      on phi edges (predecessor ends)
load      after loads; store before stores
extcall   after external calls (constraint application)
========  ==================================================================

Probes never produce program-visible values, so stripping them after the
analysis restores the exact input IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.module import Block, Function, Module
from ..ir.values import (
    BinOp,
    Call,
    CallExt,
    CallInd,
    Const,
    ICmp,
    Instr,
    Intrinsic,
    Load,
    Ret,
    Result,
    Store,
    Value,
)
from .sp0fold import is_lifted_function


@dataclass
class FunctionInstrumentation:
    """Bookkeeping produced while instrumenting one function."""

    func: Function
    vids: dict[Value, int] = field(default_factory=dict)
    #: ref_id -> (value, sp0 offset)
    refs: dict[int, tuple[Value, int]] = field(default_factory=dict)
    #: callsite_id -> call instruction
    callsites: dict[int, Instr] = field(default_factory=dict)


@dataclass
class ModuleInstrumentation:
    functions: dict[str, FunctionInstrumentation] \
        = field(default_factory=dict)
    next_ref_id: int = 0
    next_callsite_id: int = 0


def _probe(name: str, args: list[Value], meta: dict) -> Intrinsic:
    return Intrinsic(f"wyt.{name}", args, meta)


class _FunctionInstrumenter:
    def __init__(self, func: Function, module_inst: ModuleInstrumentation):
        self.func = func
        self.mi = module_inst
        self.fi = FunctionInstrumentation(func)
        self._assign_vids()

    def _assign_vids(self) -> None:
        counter = 0
        for param in self.func.params:
            self.fi.vids[param] = counter
            counter += 1
        for instr in self.func.instructions():
            if instr.has_result:
                self.fi.vids[instr] = counter
                counter += 1

    def _vid(self, v: Value) -> int:
        return self.fi.vids.get(v, -1)

    def run(self) -> FunctionInstrumentation:
        refs: dict[Value, int] = self.func.meta.get("stack_refs", {})
        ref_ids: dict[Value, int] = {}
        for value, offset in refs.items():
            ref_ids[value] = self.mi.next_ref_id
            self.fi.refs[self.mi.next_ref_id] = (value, offset)
            self.mi.next_ref_id += 1
        chain = self.func.meta.get("sp0_offsets", {})

        for block in self.func.blocks:
            self._instrument_block(block, refs, ref_ids, chain)
        self._insert_entry_probes(refs, ref_ids)
        self._insert_phi_copies()
        return self.fi

    # -- entry -----------------------------------------------------------------

    def _insert_entry_probes(self, refs, ref_ids) -> None:
        entry = self.func.entry
        probes: list[Intrinsic] = []
        sp0 = self.func.params[0] if self.func.params else Const(0)
        probes.append(_probe("fnenter", [sp0], {
            "func": self.func.name,
            "param_vids": [self._vid(p) for p in self.func.params],
        }))
        for param in self.func.params:
            if param in refs:
                probes.append(_probe("stackref", [param], {
                    "ref_id": ref_ids[param],
                    "offset": refs[param],
                    "vid": self._vid(param),
                    "is_sp0": param is self.func.params[0],
                }))
        # Insert after leading phis (entry has none, but be safe).
        pos = len(entry.phis())
        for probe in reversed(probes):
            probe.block = entry
            entry.instrs.insert(pos, probe)

    # -- per instruction -----------------------------------------------------

    def _instrument_block(self, block: Block, refs, ref_ids,
                          chain) -> None:
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            before, after = self._probes_for(instr, refs, ref_ids, chain)
            for p in before:
                p.block = block
                new_instrs.append(p)
            new_instrs.append(instr)
            for p in after:
                p.block = block
                new_instrs.append(p)
        block.instrs = new_instrs

    def _probes_for(self, instr: Instr, refs, ref_ids, chain):
        before: list[Intrinsic] = []
        after: list[Intrinsic] = []
        if isinstance(instr, Ret):
            before.append(_probe("fnexit", list(instr.ops), {
                "ret_vids": [self._vid(v) for v in instr.ops],
            }))
            return before, after

        if instr in refs:
            after.append(_probe("stackref", [instr], {
                "ref_id": ref_ids[instr],
                "offset": refs[instr],
                "vid": self._vid(instr),
                "is_sp0": False,
            }))
            # A base pointer needs no derive probe for its own chain.
            return before, after

        if isinstance(instr, BinOp) and instr.opcode in ("add", "sub",
                                                         "and", "or"):
            if instr in chain:
                return before, after  # constant-offset chain: static
            lhs_const = isinstance(instr.lhs, Const)
            rhs_const = isinstance(instr.rhs, Const)
            if rhs_const or (lhs_const and instr.opcode in ("add",
                                                            "or")):
                base = instr.lhs if rhs_const else instr.rhs
                const = (instr.rhs if rhs_const else instr.lhs).value
                after.append(_probe("derive", [instr, base], {
                    "op": instr.opcode,
                    "const": const,
                    "result_vid": self._vid(instr),
                    "base_vid": self._vid(base),
                }))
            elif not lhs_const and not rhs_const:
                after.append(_probe(
                    "derive2", [instr, instr.lhs, instr.rhs], {
                        "op": instr.opcode,
                        "result_vid": self._vid(instr),
                        "lhs_vid": self._vid(instr.lhs),
                        "rhs_vid": self._vid(instr.rhs),
                    }))
            return before, after

        if isinstance(instr, ICmp):
            if not isinstance(instr.lhs, Const) \
                    and not isinstance(instr.rhs, Const):
                after.append(_probe("link", [instr.lhs, instr.rhs], {
                    "lhs_vid": self._vid(instr.lhs),
                    "rhs_vid": self._vid(instr.rhs),
                }))
            return before, after

        if isinstance(instr, Load):
            after.append(_probe("load", [instr.addr, instr], {
                "size": instr.size,
                "addr_vid": self._vid(instr.addr),
                "result_vid": self._vid(instr),
            }))
            return before, after

        if isinstance(instr, Store):
            before.append(_probe("store", [instr.addr, instr.value], {
                "size": instr.size,
                "addr_vid": self._vid(instr.addr),
                "value_vid": self._vid(instr.value),
            }))
            return before, after

        if isinstance(instr, (Call, CallInd)):
            callsite_id = self.mi.next_callsite_id
            self.mi.next_callsite_id += 1
            self.fi.callsites[callsite_id] = instr
            args = instr.args
            before.append(_probe("callargs", [], {
                "callsite_id": callsite_id,
                "arg_vids": [self._vid(a) for a in args],
            }))
            # callres: the call's direct value (single result) or its
            # Result extractions carry the returned PointerInfo.
            result_vids = self._result_vids(instr)
            after.append(_probe("callres", [], {
                "result_vids": result_vids,
            }))
            return before, after

        if isinstance(instr, CallExt):
            sig_args = list(instr.args)
            after.append(_probe("extcall", [*sig_args, instr], {
                "name": instr.ext_name,
                "arg_vids": [self._vid(a) for a in sig_args],
                "result_vid": self._vid(instr),
            }))
            return before, after

        return before, after

    def _result_vids(self, call: Instr) -> list[int]:
        if call.nresults == 1:
            return [self._vid(call)]
        block = call.block
        by_index: dict[int, int] = {}
        for instr in block.instrs:
            if isinstance(instr, Result) and instr.call is call:
                by_index[instr.index] = self._vid(instr)
        return [by_index.get(i, -1) for i in range(call.nresults)]

    # -- phi copies -------------------------------------------------------------

    def _insert_phi_copies(self) -> None:
        for block in self.func.blocks:
            phis = block.phis()
            if not phis:
                continue
            for phi in phis:
                for pred, value in phi.incomings():
                    probe = _probe("copy", [], {
                        "dst_vid": self._vid(phi),
                        "src_vid": self._vid(value),
                    })
                    probe.block = pred
                    # Before the terminator (and before other probes that
                    # may already sit there -- order among copies is
                    # irrelevant, they read pre-state vids... which phis
                    # violate for swaps; stage via dedicated two-phase
                    # handling below).
                    pred.instrs.insert(len(pred.instrs) - 1, probe)


def _fixup_phi_copy_order(func: Function) -> None:
    """Make phi-edge copy probes read their sources atomically.

    Copies at a predecessor end read vids that other copies of the same
    edge may overwrite (swap patterns).  Rewrite each run of consecutive
    copy probes into a staged form understood by the runtime: mark them
    with a shared group id; the runtime reads all sources before writing.
    """
    for block in func.blocks:
        run: list[Intrinsic] = []
        for instr in block.instrs:
            if isinstance(instr, Intrinsic) and \
                    instr.intrinsic == "wyt.copy":
                run.append(instr)
            else:
                _mark_group(run)
                run = []
        _mark_group(run)


def _mark_group(run: list[Intrinsic]) -> None:
    if len(run) <= 1:
        return
    for i, probe in enumerate(run):
        probe.meta["group_size"] = len(run)
        probe.meta["group_index"] = i


def instrument_module(module: Module) -> ModuleInstrumentation:
    mi = ModuleInstrumentation()
    for func in module.functions.values():
        if not is_lifted_function(func):
            continue
        fi = _FunctionInstrumenter(func, mi).run()
        _fixup_phi_copy_order(func)
        mi.functions[func.name] = fi
        func.invalidate()  # probes were spliced into instr lists directly
    return mi


def strip_probes(module: Module) -> int:
    """Remove every wyt.* probe; returns the number removed."""
    removed = 0
    for func in module.functions.values():
        func_removed = 0
        for block in func.blocks:
            kept = [i for i in block.instrs
                    if not (isinstance(i, Intrinsic)
                            and i.intrinsic.startswith("wyt."))]
            func_removed += len(block.instrs) - len(kept)
            block.instrs = kept
        if func_removed:
            func.invalidate()
        removed += func_removed
    return removed
