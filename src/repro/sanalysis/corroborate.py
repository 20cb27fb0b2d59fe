"""Layout corroboration: static frame accesses vs dynamic layouts.

The dynamic layout (:mod:`repro.core.layout`) is exact for what the
traces touched and silent about everything else.  This pass diffs it
against the statically-provable access set of :mod:`.absint`:

* a static access that *straddles* a recovered variable boundary means
  the optimizer could split one object in two — ``unsound-split``, an
  error that must gate recompilation;
* a statically reachable byte region the trace never touched is a
  ``coverage-gap`` — a warning, paired with a widening suggestion that
  every recompile applies with :func:`repro.core.layout.apply_widenings`
  before symbolization (growing a variable never invalidates traced
  behaviour; it only trades optimization precision for soundness).
  ``repro check`` reports the gap on the unwidened layout; after
  widening the re-diff no longer finds it.

Derived accesses (stack-walks whose extent the interpreter could not
bound) are clamped against the nearest statically-known frame slot
above their anchor before the diff, so an under-traced ``int buf[16]``
whose single trace touched 3 elements still surfaces the remaining 52
bytes as a gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .absint import FrameAccessSet, StaticAccess

if TYPE_CHECKING:
    from ..core.layout import FrameLayout
from .report import COVERAGE_GAP, UNSOUND_SPLIT, Finding


@dataclass(frozen=True)
class WideningSuggestion:
    """Grow the frame variables overlapping ``[start, end)`` to cover
    the whole region (or create one if none overlaps)."""

    func: str
    start: int
    end: int
    reason: str = ""

    def to_dict(self) -> dict:
        return {"func": self.func, "start": self.start, "end": self.end,
                "reason": self.reason}


def _clamp_set(access_set: FrameAccessSet,
               layout: FrameLayout) -> list[int]:
    """Frame offsets with independent evidence: static slots, derived
    anchors, and recovered variable starts.  Derived accesses extend
    from their anchor up to (exclusive) the next such offset."""
    bounds = {0}
    bounds.update(o for o in access_set.known_offsets if o < 0)
    bounds.update(v.start for v in layout.variables if v.start < 0)
    return sorted(bounds)


def _regions(access_set: FrameAccessSet,
             layout: FrameLayout) -> list[tuple[int, int, StaticAccess]]:
    """Concrete ``[lo, hi)`` byte regions for every frame-side access,
    with derived extents clamped to the neighbouring known slot."""
    clamps = _clamp_set(access_set, layout)
    regions = []
    for access in access_set.accesses:
        if access.lo >= 0:
            continue          # argument/return-address side
        if access.derived:
            hi = next(b for b in clamps if b > access.lo)
        else:
            hi = min(access.hi, 0)
        if hi > access.lo:
            regions.append((access.lo, hi, access))
    return regions


def _subtract(lo: int, hi: int,
              covered: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``[lo, hi)`` minus the (sorted, disjoint) covered intervals."""
    out = []
    cursor = lo
    for c_lo, c_hi in covered:
        if c_hi <= cursor:
            continue
        if c_lo >= hi:
            break
        if c_lo > cursor:
            out.append((cursor, min(c_lo, hi)))
        cursor = max(cursor, c_hi)
        if cursor >= hi:
            break
    if cursor < hi:
        out.append((cursor, hi))
    return out


def corroborate_function(
        access_set: FrameAccessSet, layout: FrameLayout,
) -> tuple[list[Finding], list[WideningSuggestion]]:
    """Diff one function's static access set against its dynamic
    layout; returns findings plus widening suggestions for the gaps."""
    findings: list[Finding] = []
    suggestions: list[WideningSuggestion] = []
    variables = sorted(layout.variables, key=lambda v: v.start)
    covered = [(v.start, v.end) for v in variables if v.start < 0]

    # -- unsound splits: exact accesses crossing a variable boundary.
    seen_splits = set()
    for access in access_set.accesses:
        if not access.exact or access.lo >= 0:
            continue
        lo, hi = access.lo, access.lo + access.width
        for var in variables:
            if not (var.start < hi and lo < var.end):
                continue
            if var.start <= lo and hi <= var.end:
                continue      # contained: corroborated
            key = (lo, access.width, var.start, var.end)
            if key in seen_splits:
                continue
            seen_splits.add(key)
            findings.append(Finding(
                "error", UNSOUND_SPLIT, access_set.func_name,
                f"static {access.kind} [{lo}, {hi}) straddles recovered "
                f"variable [{var.start}, {var.end})",
                offset=lo, width=access.width,
                provenance={"pass": "corroborate",
                            "access": [lo, hi],
                            "variable": [var.start, var.end]}))

    # -- coverage gaps: static bytes outside every recovered variable.
    seen_gaps = set()
    for lo, hi, access in _regions(access_set, layout):
        for g_lo, g_hi in _subtract(lo, hi, covered):
            if (g_lo, g_hi) in seen_gaps:
                continue
            seen_gaps.add((g_lo, g_hi))
            overlapping = [v for v in variables
                           if v.start < hi and lo < v.end]
            s_start = min([lo] + [v.start for v in overlapping])
            s_end = max([hi] + [v.end for v in overlapping])
            findings.append(Finding(
                "warning", COVERAGE_GAP, access_set.func_name,
                f"statically reachable {access.kind} may touch "
                f"[{g_lo}, {g_hi}) which no traced variable covers "
                f"(suggest widening to [{s_start}, {s_end}))",
                offset=g_lo, width=g_hi - g_lo,
                provenance={"pass": "corroborate",
                            "region": [lo, hi],
                            "derived": access.derived,
                            "suggestion": [s_start, s_end]}))
            suggestion = WideningSuggestion(
                access_set.func_name, s_start, s_end,
                reason=f"static {access.kind} region [{lo}, {hi})")
            if suggestion not in suggestions:
                suggestions.append(suggestion)
    return findings, suggestions


def corroborate_layouts(
        accesses: dict[str, FrameAccessSet],
        layouts: dict[str, FrameLayout],
) -> tuple[list[Finding], list[WideningSuggestion]]:
    """Corroborate every function with both a static access set and a
    dynamic layout."""
    findings: list[Finding] = []
    suggestions: list[WideningSuggestion] = []
    for name, access_set in sorted(accesses.items()):
        layout = layouts.get(name)
        if layout is None:
            continue
        fs, ss = corroborate_function(access_set, layout)
        findings.extend(fs)
        suggestions.extend(ss)
    return findings, suggestions
