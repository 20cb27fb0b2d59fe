"""The WYTIWYG tracing runtime (paper §4.2.1-§4.2.5, Figure 5).

This is the library that instrumented lifted programs "link against".
The paper links it into the lifted program, so each probe's target and
constants are fixed before the program runs.  Here the IR interpreter
calls :meth:`TracingRuntime.compile` once per ``wyt.*`` probe, when the
probe's block compiles; the returned closure has the probe's metadata
bound and runs on every execution of the probe.  The runtime maintains

* one :class:`StackVar` per static base pointer (direct stack reference),
  recording the interval of offsets actually dereferenced through
  pointers derived from it — with bounds deferred until the first
  dereference (out-of-bounds base pointers, §4.2.4) and never updated by
  derivation alone (false derives, §4.2.3);
* per-activation :data:`PointerInfo` metadata for IR values, a plain
  ``(var, offset)`` tuple, in a list indexed by vid (the
  instrumenter's number for an IR value) that ``wyt.fnenter`` puts on
  the activation's :class:`~repro.ir.interp.Frame` (``frame.probe``),
  because one static value points to different objects in recursive
  activations;
* an address map from memory addresses to the PointerInfo stored there;
* linked-variable pairs from pointer subtraction/comparison;
* per-call-site argument-area intervals and callee sets (§4.2.5);
* external-call constraint application (§5.3).

The bookkeeping runs on every probe execution, hundreds of thousands per
traced input, and records almost nothing, so its common paths allocate
and call little.  A probe reads its frame's record from the frame and a
value's info by list index; vid -1, which the instrumenter gives every
constant operand and a call result that no ``Result`` extracts, indexes
the list's last entry, a sink that no probe writes, so it always reads
None.  A pointer info is a tuple.  The load and store probes widen a
stack variable's bounds inline, writing a bound only when it grows, and
not at all when the site sees the info it widened last: a site's access
size is fixed, so a second widening by the same ``(var, offset)``
changes nothing.  An argument area is widened through
:meth:`ArgAccess.touch`, which also marks it walked.

One runtime serves a whole bounds stage, whose one interpreter compiles
the probes once.  :meth:`TracingRuntime.bind` starts each traced input's
run: it resets the per-run state (the address map, staged call
arguments and results) in place, because the compiled probes capture
those containers, and keeps the cross-run observations (stack
variables, argument areas, links), which accumulate over the inputs.
The frame records need no reset: each lives on its frame.
The observations only grow, and what a run adds to them does not
depend on what they already hold, so a runtime that restores the
:meth:`TracingRuntime.state` taken after some inputs
(:meth:`TracingRuntime.restore`) and then runs the rest ends where one
runtime that ran them all does, down to the order its variables and
links iterate in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..emu.libc import parse_format
from ..ir.interp import Frame, Interpreter
from ..ir.values import Intrinsic
from .extfuncs import EXTERNAL_DB, RET


def _signed(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


@dataclass
class StackVar:
    """Observed extent of one base pointer's object.

    ``low``/``high`` are offsets relative to the base pointer; they stay
    ``None`` until a derived pointer is dereferenced.
    """

    ref_id: int
    func_name: str
    sp0_offset: int
    low: int | None = None
    high: int | None = None
    align: int = 4

    @property
    def defined(self) -> bool:
        return self.low is not None

    def touch(self, offset: int, size: int) -> None:
        """Widen the bounds to cover ``[offset, offset + size)``,
        writing only a bound that grows.  The load and store probes do
        the same inline; the external-call constraints call this."""
        low = self.low
        if low is None:
            self.low, self.high = offset, offset + size
            return
        if offset < low:
            self.low = offset
        end = offset + size
        if end > self.high:
            self.high = end


@dataclass
class ArgAccess:
    """Observed argument-area use at one call site (paper §4.2.5)."""

    callsite_id: int
    low: int | None = None   # byte offsets relative to the first arg slot
    high: int | None = None
    callees: set[str] = field(default_factory=set)
    #: True when the area was traversed via derived pointers or accessed
    #: at sub-word granularity -- it must then stay one contiguous
    #: object (indirect varargs access, paper §4.2.6).
    walked: bool = False

    def touch(self, offset: int, size: int) -> None:
        """As :meth:`StackVar.touch`; a sub-word or unaligned access
        also marks the area walked."""
        if size != 4 or offset % 4:
            self.walked = True
        low = self.low
        if low is None:
            self.low, self.high = offset, offset + size
            return
        if offset < low:
            self.low = offset
        end = offset + size
        if end > self.high:
            self.high = end


#: A value's association with a stack variable or an argument area:
#: ``(var, offset)``, the offset relative to the var's base pointer.  A
#: plain tuple, because the derive probes build one for every pointer
#: they see; nothing compares or hashes it.
PointerInfo = tuple[StackVar | ArgAccess, int]


#: A compiled probe: runs on each execution of its ``wyt.*`` intrinsic.
Probe = Callable[[Frame], None]


@dataclass(slots=True)
class _FrameRec:
    """One activation's probe state, which ``wyt.fnenter`` keeps on its
    frame (``frame.probe``): the call site that entered it and the
    PointerInfo of its IR values, a list indexed by vid.  The list has
    one entry more than the function has vids, the sink vid -1 indexes.
    ``fnenter`` is the first instruction of every instrumented
    function, in its entry block, which no block branches to, so every
    other probe of the activation finds the record."""

    callsite_id: int | None
    infos: list[PointerInfo | None]


def _no_constraints(frame: Frame) -> None:
    """An external call whose callee has no constraints to apply."""
    return None


class TracingRuntime:
    """State shared across all traced executions of one module."""

    def __init__(self) -> None:
        self.stack_vars: dict[int, StackVar] = {}
        self.arg_accesses: dict[int, ArgAccess] = {}
        self.links: set[frozenset[int]] = set()
        #: ``links`` in the order the runs found them, which fixes the
        #: set's iteration order, the order the layouts read them in.
        self._link_order: list[frozenset[int]] = []
        # Per-run state.  Compiled probes capture these containers, so
        # they are cleared in place, never replaced.
        self._addr_map: dict[int, PointerInfo] = {}
        self._pending_args: list[tuple[int, list]] = []
        self._pending_rets: list[list] = []
        self._copy_stage: list = []
        self._interp: Interpreter | None = None

    def snapshot(self) -> dict:
        """The cross-run analysis state: stack variables, argument
        areas and links.

        Per-execution state (the frame records, the address map, staged
        call arguments, the bound interpreter) is excluded: it is reset
        by :meth:`bind` or dies with its frame, and is never read across
        runs.
        """
        return {
            "stack_vars": self.stack_vars,
            "arg_accesses": self.arg_accesses,
            "links": self.links,
        }

    def state(self) -> dict:
        """The :meth:`snapshot` with its links listed in the order the
        runs found them: what :meth:`restore` continues from."""
        return {**self.snapshot(), "links": self._link_order}

    def restore(self, state: dict) -> None:
        """Continue from a :meth:`state` taken after earlier inputs'
        runs: the next runs widen its bounds and add to its argument
        areas and links as they would have in the same runtime.  The
        links are added in the order they were found, so the set
        iterates as the same runtime's would.  Call it before the first
        run: a probe keeps the variable it first found."""
        self.stack_vars.update(state["stack_vars"])
        self.arg_accesses.update(state["arg_accesses"])
        for pair in state["links"]:
            self._add_link(pair)

    def bind(self, interp: Interpreter) -> None:
        """Start a run on ``interp``, whose memory the string
        constraints read: reset the per-run state, keeping the
        cross-run observations."""
        self._interp = interp
        self._addr_map.clear()
        self._pending_args.clear()
        self._pending_rets.clear()
        self._copy_stage.clear()

    # -- probe compilation ----------------------------------------------------

    def compile(self, instr: Intrinsic, evs: list) -> Probe:
        """The closure that runs probe ``instr``: ``evs`` evaluate its
        operands against a frame's values, one per operand.  Called
        once per probe, when its block compiles."""
        compile_probe = _PROBE_COMPILERS.get(instr.intrinsic)
        if compile_probe is None:
            raise ValueError(f"unknown probe {instr.intrinsic}")
        return compile_probe(self, instr.meta, evs)

    # -- frames and calls ------------------------------------------------------

    def _fnenter(self, meta: dict, evs: list) -> Probe:
        pending_args = self._pending_args
        arg_accesses = self.arg_accesses
        param_vids = meta["param_vids"]
        # The function's vids, then the sink.
        blank = [None] * (meta["nvids"] + 1)

        def fnenter(frame: Frame) -> None:
            infos = blank.copy()
            callsite_id = None
            if pending_args:
                callsite_id, staged = pending_args.pop()
                for vid, info in zip(param_vids, staged, strict=False):
                    infos[vid] = info
                access = arg_accesses.get(callsite_id)
                if access is not None:
                    access.callees.add(frame.function.name)
            frame.probe = _FrameRec(callsite_id, infos)
        return fnenter

    def _fnexit(self, meta: dict, evs: list) -> Probe:
        pending_rets = self._pending_rets
        ret_vids = meta["ret_vids"]

        def fnexit(frame: Frame) -> None:
            infos = frame.probe.infos
            pending_rets.append([infos[vid] for vid in ret_vids])
        return fnexit

    def _callargs(self, meta: dict, evs: list) -> Probe:
        pending_args = self._pending_args
        arg_accesses = self.arg_accesses
        callsite_id = meta["callsite_id"]
        arg_vids = meta["arg_vids"]

        def callargs(frame: Frame) -> None:
            infos = frame.probe.infos
            pending_args.append(
                (callsite_id, [infos[vid] for vid in arg_vids]))
            if callsite_id not in arg_accesses:
                arg_accesses[callsite_id] = ArgAccess(callsite_id)
        return callargs

    def _callres(self, meta: dict, evs: list) -> Probe:
        pending_rets = self._pending_rets
        result_vids = meta["result_vids"]

        def callres(frame: Frame) -> None:
            if pending_rets:
                infos = frame.probe.infos
                for vid, info in zip(result_vids, pending_rets.pop(),
                                     strict=False):
                    # A result no ``Result`` extracts has vid -1, the
                    # sink: it stays None.
                    if vid >= 0:
                        infos[vid] = info
        return callres

    # -- pointer tracking -------------------------------------------------------

    def _stackref(self, meta: dict, evs: list) -> Probe:
        offset = meta["offset"]
        vid = meta["vid"]
        if 0 <= offset < 4 and meta.get("is_sp0"):
            def sp0(frame: Frame) -> None:
                frame.probe.infos[vid] = None
            return sp0
        if offset >= 4:
            # Access above sp0: the caller's argument area; recorded per
            # call site (paper §4.2.5).
            arg_accesses = self.arg_accesses
            arg_offset = offset - 4

            def arg_area(frame: Frame) -> None:
                rec = frame.probe
                callsite_id = rec.callsite_id
                if callsite_id is None:
                    rec.infos[vid] = None
                    return
                access = arg_accesses.get(callsite_id)
                if access is None:
                    access = arg_accesses[callsite_id] = \
                        ArgAccess(callsite_id)
                rec.infos[vid] = (access, arg_offset)
            return arg_area
        stack_vars = self.stack_vars
        ref_id = meta["ref_id"]
        # Once the variable exists, every activation shares one info
        # for the base pointer.
        info: PointerInfo | None = None

        def stackref(frame: Frame) -> None:
            nonlocal info
            if info is None:
                var = stack_vars.get(ref_id)
                if var is None:
                    var = stack_vars[ref_id] = StackVar(
                        ref_id, frame.function.name, offset)
                info = (var, 0)
            frame.probe.infos[vid] = info
        return stackref

    def _derive(self, meta: dict, evs: list) -> Probe:
        op = meta["op"]
        const = meta["const"]
        result_vid = meta["result_vid"]
        base_vid = meta["base_vid"]
        if op in ("add", "sub"):
            delta = _signed(const) if op == "add" else -_signed(const)

            def derive(frame: Frame) -> None:
                infos = frame.probe.infos
                base = infos[base_vid]
                if base is None:
                    infos[result_vid] = None
                    return
                var, offset = base
                if isinstance(var, ArgAccess):
                    var.walked = True
                infos[result_vid] = (var, offset + delta)
            return derive
        # ``or`` is a low-bit merge (sub-register writes): the result
        # *appears* derived (paper §4.2.3); bounds stay deferred until a
        # real dereference, so a false derive is harmless.  ``and`` with
        # a mask that clears a run of low bits (``p & -16``) is an
        # alignment operation: the offset is approximated unchanged and
        # the mask's alignment recorded.  Any other ``and`` (``p & 3``
        # extracts low bits) and every ``or`` record none, as every
        # alignment is at least 1.
        low_bits = ~const & 0xFFFFFFFF
        align = min(low_bits + 1, 4096) \
            if op == "and" and const & 0xFFFFFFFF \
            and not low_bits & (low_bits + 1) else 0

        def merge_or_align(frame: Frame) -> None:
            infos = frame.probe.infos
            base = infos[base_vid]
            if base is not None:
                var = base[0]
                if isinstance(var, ArgAccess):
                    var.walked = True
                elif var.align < align:
                    var.align = align
            infos[result_vid] = base
        return merge_or_align

    def _derive2(self, meta: dict, evs: list) -> Probe:
        op = meta["op"]
        result_vid = meta["result_vid"]
        lhs_vid = meta["lhs_vid"]
        rhs_vid = meta["rhs_vid"]
        lhs_value, rhs_value = evs[1], evs[2]
        link = self._link

        # Each ``combine(values, lhs, rhs)`` sees at least one pointer.
        if op == "add":
            def combine(values, lhs, rhs):
                if rhs is None:
                    var, offset = lhs
                    return (var, offset + _signed(rhs_value(values)))
                if lhs is None:
                    var, offset = rhs
                    return (var, offset + _signed(lhs_value(values)))
                return None
        elif op == "sub":
            def combine(values, lhs, rhs):
                if lhs is None:
                    return None
                if rhs is None:
                    var, offset = lhs
                    return (var, offset - _signed(rhs_value(values)))
                link(lhs[0], rhs[0])
                return None
        else:  # or, and
            # False-derive shape: keep the (possibly stale) association,
            # offset unchanged; only a dereference will confirm it.
            def combine(values, lhs, rhs):
                if rhs is None:
                    return lhs
                if lhs is None:
                    return rhs
                return None

        def derive2(frame: Frame) -> None:
            infos = frame.probe.infos
            lhs = infos[lhs_vid]
            rhs = infos[rhs_vid]
            if lhs is None and rhs is None:
                infos[result_vid] = None
                return
            for side in (lhs, rhs):
                if side is not None and isinstance(side[0], ArgAccess):
                    side[0].walked = True
            infos[result_vid] = combine(frame.values, lhs, rhs)
        return derive2

    def _link_probe(self, meta: dict, evs: list) -> Probe:
        lhs_vid = meta["lhs_vid"]
        rhs_vid = meta["rhs_vid"]
        link = self._link

        def link_vars(frame: Frame) -> None:
            infos = frame.probe.infos
            lhs = infos[lhs_vid]
            if lhs is not None:
                rhs = infos[rhs_vid]
                if rhs is not None:
                    link(lhs[0], rhs[0])
        return link_vars

    def _link(self, a: object, b: object) -> None:
        if a is b:
            return
        if isinstance(a, StackVar) and isinstance(b, StackVar):
            self._add_link(frozenset((a.ref_id, b.ref_id)))

    def _add_link(self, pair: frozenset[int]) -> None:
        if pair not in self.links:
            self.links.add(pair)
            self._link_order.append(pair)

    def _copy(self, meta: dict, evs: list) -> Probe:
        dst_vid = meta["dst_vid"]
        src_vid = meta["src_vid"]
        group = meta.get("group_size")
        if group is None:
            def copy(frame: Frame) -> None:
                infos = frame.probe.infos
                infos[dst_vid] = infos[src_vid]
            return copy
        # Parallel phi-edge copies: read all sources before any write
        # (swap patterns would otherwise observe half-updated state).
        stage = self._copy_stage
        first = meta["group_index"] == 0
        last = meta["group_index"] == group - 1

        def staged_copy(frame: Frame) -> None:
            infos = frame.probe.infos
            if first:
                stage.clear()
            stage.append((dst_vid, infos[src_vid]))
            if last:
                for vid, info in stage:
                    infos[vid] = info
                stage.clear()
        return staged_copy

    def _load(self, meta: dict, evs: list) -> Probe:
        addr_map = self._addr_map
        size = meta["size"]
        addr_vid = meta["addr_vid"]
        result_vid = meta["result_vid"]
        addr_value = evs[0]
        word = size == 4
        # The info this site widened last (see the module docstring).
        widened = None

        def load(frame: Frame) -> None:
            nonlocal widened
            infos = frame.probe.infos
            info = infos[addr_vid]
            if info is not None and info is not widened:
                widened = info
                var, offset = info
                if var.__class__ is StackVar:
                    end = offset + size
                    low = var.low
                    if low is None:
                        var.low, var.high = offset, end
                    else:
                        if offset < low:
                            var.low = offset
                        if end > var.high:
                            var.high = end
                else:
                    var.touch(offset, size)
            infos[result_vid] = addr_map.get(addr_value(frame.values)) \
                if word and addr_map else None
        return load

    def _store(self, meta: dict, evs: list) -> Probe:
        addr_map = self._addr_map
        size = meta["size"]
        addr_vid = meta["addr_vid"]
        # Only a word store spills a pointer; the others read the sink.
        value_vid = meta["value_vid"] if size == 4 else -1
        addr_value = evs[0]
        # The info this site widened last (see the module docstring).
        widened = None

        def store(frame: Frame) -> None:
            nonlocal widened
            infos = frame.probe.infos
            info = infos[addr_vid]
            if info is not None and info is not widened:
                widened = info
                var, offset = info
                if var.__class__ is StackVar:
                    end = offset + size
                    low = var.low
                    if low is None:
                        var.low, var.high = offset, end
                    else:
                        if offset < low:
                            var.low = offset
                        if end > var.high:
                            var.high = end
                else:
                    var.touch(offset, size)
            value_info = infos[value_vid]
            if value_info is not None:
                addr_map[addr_value(frame.values)] = value_info
            elif addr_map:
                addr_map.pop(addr_value(frame.values), None)
        return store

    # -- external calls (constraint application, §5.3) ---------------------------

    def _extcall(self, meta: dict, evs: list) -> Probe:
        sig = EXTERNAL_DB.get(meta["name"])
        if sig is None:
            return _no_constraints
        arg_vids = meta["arg_vids"]
        result_vid = meta["result_vid"]
        apply = self._apply_constraints

        def extcall(frame: Frame) -> None:
            values = frame.values
            apply(frame.probe.infos, sig, arg_vids, result_vid,
                  [ev(values) for ev in evs])
        return extcall

    def _apply_constraints(self, infos: list, sig, arg_vids: list[int],
                           result_vid: int, args: list[int]) -> None:
        arg_values = args[:len(arg_vids)]
        result_value = args[len(arg_vids)] if len(args) > len(arg_vids) \
            else 0

        def arg_info(index: int) -> PointerInfo | None:
            if index == RET:
                return None
            if index < len(arg_vids):
                return infos[arg_vids[index]]
            return None

        def arg_value(index: int) -> int:
            if index == RET:
                return result_value
            return arg_values[index] if index < len(arg_values) else 0

        for c in sig.constraints:
            if c.kind == "ObjectSize":
                info = arg_info(c.args[0])
                nbytes = arg_value(c.args[1])
                if len(c.args) > 2:
                    nbytes *= arg_value(c.args[2])
                if info is not None and nbytes:
                    var, offset = info
                    var.touch(offset, nbytes)
            elif c.kind == "ZeroTerminated":
                self._zero_terminated(arg_info(c.args[0]),
                                      arg_value(c.args[0]))
            elif c.kind == "Derive":
                dst_i, src_i = c.args
                src = arg_info(src_i)
                if src is not None and dst_i == RET:
                    delta = _signed(result_value - arg_value(src_i))
                    var, offset = src
                    infos[result_vid] = (var, offset + delta)
            elif c.kind == "Clear":
                ptr = arg_value(c.args[0])
                if len(c.args) > 1:
                    size = arg_value(c.args[1])
                else:
                    size = self._cstring_len(ptr) + 1
                for addr in range(ptr, ptr + size):
                    self._addr_map.pop(addr, None)
            elif c.kind == "Copy":
                dst, src = arg_value(c.args[0]), arg_value(c.args[1])
                size = arg_value(c.args[2]) if len(c.args) > 2 else 0
                for k in range(0, size, 4):
                    info = self._addr_map.get(src + k)
                    if info is not None:
                        self._addr_map[dst + k] = info
                    else:
                        self._addr_map.pop(dst + k, None)
            elif c.kind == "FormatStr":
                self._format_str(infos, sig, c.args[0], arg_vids,
                                 arg_values)

    def _zero_terminated(self, info: PointerInfo | None,
                         ptr: int) -> None:
        if info is None:
            return
        var, offset = info
        var.touch(offset, self._cstring_len(ptr) + 1)

    def _cstring_len(self, ptr: int) -> int:
        if self._interp is None or ptr == 0:
            return 0
        return len(self._interp.mem.read_cstring(ptr))

    def _format_str(self, infos: list, sig, fmt_index: int,
                    arg_vids: list[int], arg_values: list[int]) -> None:
        if self._interp is None:
            return
        fmt = self._interp.mem.read_cstring(arg_values[fmt_index])
        kinds = parse_format(fmt)
        for i, kind in enumerate(kinds):
            arg_i = sig.nargs + i
            if kind == "str" and arg_i < len(arg_values):
                self._zero_terminated(
                    infos[arg_vids[arg_i]]
                    if arg_i < len(arg_vids) else None,
                    arg_values[arg_i])


_PROBE_COMPILERS = {
    "wyt.fnenter": TracingRuntime._fnenter,
    "wyt.fnexit": TracingRuntime._fnexit,
    "wyt.callargs": TracingRuntime._callargs,
    "wyt.callres": TracingRuntime._callres,
    "wyt.stackref": TracingRuntime._stackref,
    "wyt.derive": TracingRuntime._derive,
    "wyt.derive2": TracingRuntime._derive2,
    "wyt.link": TracingRuntime._link_probe,
    "wyt.copy": TracingRuntime._copy,
    "wyt.load": TracingRuntime._load,
    "wyt.store": TracingRuntime._store,
    "wyt.extcall": TracingRuntime._extcall,
}
