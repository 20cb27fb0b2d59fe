"""Stack layout construction (paper §4.2, "Object Bounds Recovery").

Takes the per-base-pointer intervals and linked pairs collected by the
tracing runtime and partitions each function's frame into variables:

* each defined base pointer contributes the absolute interval
  ``[offset + low, offset + high)``;
* overlapping intervals merge; linked pairs merge when both have defined
  bounds (paper §4.2.4);
* base pointers with undefined bounds attach to a variable via links, or
  positionally when they fall inside (or exactly at the end of — the
  Figure 3 end-pointer shape) an existing variable, or become
  speculative 4-byte singletons.

Every recompile then grows the layouts with :func:`apply_widenings`
over the frame bytes a static access can reach but no trace touched
(the static corroboration pass's suggestions), before symbolization;
only ``repro check`` reports the layout as the traces alone build it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from .instrument import ModuleInstrumentation
from .runtime import TracingRuntime


@dataclass
class FrameVariable:
    """One recovered stack variable (sp0-relative byte range)."""

    start: int
    end: int
    align: int = 4
    ref_ids: set[int] = field(default_factory=set)

    @property
    def size(self) -> int:
        return max(self.end - self.start, 1)

    @property
    def name(self) -> str:
        # Encode the offset's sign: frames can recover variables at
        # symmetric offsets (a local at sp0-8 and a stack arg at sp0+8),
        # and ``sv_8`` for both would collide in the symbolized IR.
        sign = "m" if self.start < 0 else "p"
        return f"sv_{sign}{abs(self.start)}"


@dataclass
class FrameLayout:
    """The recovered layout of one function's frame."""

    func_name: str
    variables: list[FrameVariable] = field(default_factory=list)
    #: ref_id -> its variable
    ref_to_var: dict[int, FrameVariable] = field(default_factory=dict)


def build_frame_layout(func_name: str,
                       refs: dict[int, tuple[object, int]],
                       runtime: TracingRuntime) -> FrameLayout:
    """Partition one function's frame from its base-pointer intervals."""
    layout = FrameLayout(func_name)

    frame_refs = {rid: off for rid, (_v, off) in refs.items() if off < 0}
    if not frame_refs:
        return layout

    intervals: dict[int, tuple[int, int] | None] = {}
    aligns: dict[int, int] = {}
    for rid, off in frame_refs.items():
        var = runtime.stack_vars.get(rid)
        if var is not None and var.defined:
            intervals[rid] = (off + var.low, off + var.high)
            aligns[rid] = var.align
        else:
            intervals[rid] = None
            aligns[rid] = var.align if var is not None else 4

    # Seed one group per defined interval, then merge to a fixed point:
    # positional overlap and (defined-defined) links both merge, and a
    # link-merge can create fresh positional overlaps with groups in
    # between, so the two rules iterate together.
    groups: list[FrameVariable] = [
        FrameVariable(iv[0], iv[1], aligns.get(rid, 4), {rid})
        for rid, iv in intervals.items() if iv is not None
    ]
    if obs.ledger() is not None:
        for rid, iv in sorted(intervals.items()):
            if iv is None:
                continue
            var = runtime.stack_vars.get(rid)
            obs.event("frame.var.seed", func=func_name, ref_id=rid,
                      interval=[iv[0], iv[1]],
                      sp0_offset=frame_refs[rid],
                      traced=[var.low, var.high])
    links = [tuple(pair) for pair in runtime.links
             if all(r in intervals and intervals[r] is not None
                    for r in pair)]
    groups = _merge_to_fixpoint(groups, links, func_name=func_name)

    layout.variables = groups
    for var in layout.variables:
        for rid in var.ref_ids:
            layout.ref_to_var[rid] = var

    # Attach undefined refs: by link first, then positionally (allowing
    # exactly-at-end pointers, the Figure 3 shape), else as speculative
    # 4-byte singletons.
    pending = [rid for rid, iv in intervals.items() if iv is None]
    for pair in runtime.links:
        a, b = tuple(pair)
        for rid, other in ((a, b), (b, a)):
            if rid in pending and other in layout.ref_to_var:
                var = layout.ref_to_var[other]
                var.ref_ids.add(rid)
                layout.ref_to_var[rid] = var
                pending.remove(rid)
                obs.event("frame.var.attach", func=func_name,
                          ref_id=rid, method="link",
                          interval=[var.start, var.end])
    singletons: list[FrameVariable] = []
    for rid in list(pending):
        off = frame_refs[rid]
        home = None
        for var in layout.variables:
            if var.start <= off <= var.end:
                home = var
                break
        if home is None:
            home = FrameVariable(off, off + 4, aligns.get(rid, 4), set())
            singletons.append(home)
            layout.variables.append(home)
            obs.event("frame.var.attach", func=func_name, ref_id=rid,
                      method="singleton", interval=[off, off + 4])
        else:
            obs.event("frame.var.attach", func=func_name, ref_id=rid,
                      method="positional",
                      interval=[home.start, home.end])
        home.ref_ids.add(rid)
        layout.ref_to_var[rid] = home
        pending.remove(rid)

    # Speculative singletons may overlap established variables; one more
    # merge round restores disjointness.
    if singletons:
        layout.variables = _merge_to_fixpoint(layout.variables, [],
                                              func_name=func_name)
        layout.ref_to_var = {rid: var for var in layout.variables
                             for rid in var.ref_ids}
    layout.variables.sort(key=lambda v: v.start)
    return layout


def _merge_to_fixpoint(groups: list[FrameVariable],
                       links: list[tuple[int, int]],
                       func_name: str | None = None) -> list:
    while True:
        changed = False
        groups.sort(key=lambda v: v.start)
        merged: list[FrameVariable] = []
        for var in groups:
            if merged and var.start < merged[-1].end:
                _absorb(merged[-1], var, func_name, "overlap")
                changed = True
            else:
                merged.append(var)
        groups = merged
        by_ref = {rid: var for var in groups for rid in var.ref_ids}
        for a, b in links:
            va, vb = by_ref.get(a), by_ref.get(b)
            if va is not None and vb is not None and va is not vb:
                _absorb(va, vb, func_name, "link")
                groups.remove(vb)
                by_ref.update({rid: va for rid in va.ref_ids})
                changed = True
        if not changed:
            return groups


def _absorb(into: FrameVariable, other: FrameVariable,
            func_name: str | None = None,
            reason: str = "overlap") -> None:
    if func_name is not None and obs.ledger() is not None:
        obs.event("frame.var.merge", func=func_name, reason=reason,
                  into=[into.start, into.end],
                  absorbed=[other.start, other.end])
    into.start = min(into.start, other.start)
    into.end = max(into.end, other.end)
    into.align = max(into.align, other.align)
    into.ref_ids |= other.ref_ids


def build_layouts(runtime: TracingRuntime,
                  mi: ModuleInstrumentation) -> dict[str, FrameLayout]:
    return {
        name: build_frame_layout(name, fi.refs, runtime)
        for name, fi in mi.functions.items()
    }


def apply_widenings(layouts: dict[str, FrameLayout],
                    suggestions) -> list[dict]:
    """Grow recovered variables to cover statically reachable regions
    the traces missed; every recompile applies this before
    symbolization.

    Each suggestion (:class:`repro.sanalysis.WideningSuggestion`) names
    a ``[start, end)`` byte region in one function's frame.  Every
    variable overlapping the region is stretched over it and the result
    re-merged to a fixed point, so the region becomes one variable; a
    region no variable touches gains a fresh (ref-less) variable.
    Widening only ever grows coverage — traced accesses stay inside
    their (now larger) variable — so it trades optimization precision
    for soundness, never correctness on traced inputs.

    Returns one ``{"func", "start", "end", "applied", "reason"}`` row
    per suggestion for the check report (``applied`` is False when the
    layout already covered the region).
    """
    rows: list[dict] = []
    for sug in suggestions:
        layout = layouts.get(sug.func)
        row = {"func": sug.func, "start": sug.start, "end": sug.end,
               "applied": False, "reason": getattr(sug, "reason", "")}
        rows.append(row)
        if layout is None or sug.end <= sug.start:
            continue
        overlapping = [v for v in layout.variables
                       if v.start < sug.end and sug.start < v.end]
        # "Already covered" means one variable spans the whole region.
        if any(v.start <= sug.start and sug.end <= v.end
               for v in overlapping):
            obs.event("frame.var.widened", func=sug.func,
                      region=[sug.start, sug.end], applied=False,
                      reason=getattr(sug, "reason", ""))
            continue
        row["applied"] = True
        if overlapping:
            anchor = overlapping[0]
            obs.event("frame.var.widened", func=sug.func,
                      region=[sug.start, sug.end], applied=True,
                      grew=[anchor.start, anchor.end],
                      reason=getattr(sug, "reason", ""))
            anchor.start = min(anchor.start, sug.start)
            anchor.end = max(anchor.end, sug.end)
        else:
            obs.event("frame.var.widened", func=sug.func,
                      region=[sug.start, sug.end], applied=True,
                      grew=None, reason=getattr(sug, "reason", ""))
            layout.variables.append(FrameVariable(sug.start, sug.end))
        layout.variables = _merge_to_fixpoint(layout.variables, [],
                                              func_name=sug.func)
        layout.ref_to_var = {rid: var for var in layout.variables
                             for rid in var.ref_ids}
        layout.variables.sort(key=lambda v: v.start)
    return rows
