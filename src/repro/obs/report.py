"""Report generation: JSON export and the per-stage summary table.

``export`` turns a recorder into a plain-dict document (the JSON schema
documented in README's Observability section); ``summary`` renders that
document as the human-readable table the CLI prints to stderr.
"""

from __future__ import annotations

import json
from pathlib import Path

from .recorder import Recorder

__all__ = ["export", "iter_spans", "summary", "write_json"]

# v2: histogram/timer entries gained p50/p95/p99 and the bounded
# sample reservoir behind them (additive — v1 readers that ignore
# unknown keys keep working; merge_dict treats absent samples as empty).
SCHEMA_VERSION = 2


def export(rec: Recorder, top: int = 10) -> dict:
    """Serialize a recorder to a plain-dict report document."""
    return {
        "version": SCHEMA_VERSION,
        "spans": [s.to_dict() for s in rec.spans] + list(rec.foreign_spans),
        "metrics": rec.registry.to_dict(top),
    }


def write_json(rec: Recorder, path: str | Path, top: int = 10) -> dict:
    doc = export(rec, top)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False))
    return doc


def iter_spans(doc: dict):
    """Depth-first walk over every span dict in a report document."""
    stack = list(reversed(doc.get("spans", [])))
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span.get("children", [])))


def _ratio(counters: dict, hit: str, miss: str) -> float | None:
    hits, misses = counters.get(hit, 0), counters.get(miss, 0)
    total = hits + misses
    return hits / total if total else None


def _fmt_delta(attrs: dict) -> str:
    before, after = attrs.get("ir_before"), attrs.get("ir_after")
    if not (before and after):
        return ""
    return (f"{before['instrs']:>6} -> {after['instrs']:<6} instrs  "
            f"({before['functions']}f/{before['blocks']}b -> "
            f"{after['functions']}f/{after['blocks']}b)")


#: Counter prefixes grouped into labeled stderr-summary sections so
#: each subsystem's counters read at a glance.
COUNTER_SECTIONS = (
    ("pass manager", "opt.manager."),
    ("artifact store", "store."),
    ("serve", "serve."),
    ("cyclic collector", "gc.collections."),
)


def _counter_sections(counters: dict) -> list[str]:
    lines = []
    for label, prefix in COUNTER_SECTIONS:
        rows = [(name[len(prefix):], n) for name, n
                in sorted(counters.items()) if name.startswith(prefix)]
        if not rows:
            continue
        lines.append("")
        lines.append(f"{label} ({prefix}*):")
        width = max(len(short) for short, _ in rows)
        for short, n in rows:
            lines.append(f"  {short:<{width}}  {n:>10,}")
    return lines


def _percentile_rows(timers: dict) -> list[str]:
    rows = [(name, h) for name, h in sorted(timers.items())
            if h.get("count")]
    if not rows:
        return []
    width = max(len(name) for name, _ in rows)
    lines = ["", f"{'timer':<{width}}  {'count':>7}  {'mean ms':>9}  "
                 f"{'p50 ms':>9}  {'p95 ms':>9}  {'p99 ms':>9}"]
    for name, h in rows:
        lines.append(
            f"{name:<{width}}  {h['count']:>7}  {h['mean'] * 1e3:>9.3f}"
            f"  {h.get('p50', 0.0) * 1e3:>9.3f}"
            f"  {h.get('p95', 0.0) * 1e3:>9.3f}"
            f"  {h.get('p99', 0.0) * 1e3:>9.3f}")
    return lines


def summary(doc: dict) -> str:
    """Render a report document as a per-stage table plus highlights."""
    lines = ["=== repro.obs summary ==="]
    stage_rows = []
    for span in iter_spans(doc):
        name = span.get("name", "")
        if not name.startswith("stage."):
            continue
        attrs = span.get("attrs", {})
        status = "ERROR" if "error" in attrs else \
            ("ok" if attrs.get("verified") else "")
        stage_rows.append((name[len("stage."):],
                           span.get("seconds", 0.0) * 1e3,
                           _fmt_delta(attrs), status))
    if stage_rows:
        width = max(len(r[0]) for r in stage_rows)
        lines.append(f"{'stage':<{width}}  {'wall ms':>9}  "
                     f"{'IR delta':<48}  verify")
        for name, ms, delta, status in stage_rows:
            lines.append(f"{name:<{width}}  {ms:>9.2f}  {delta:<48}  "
                         f"{status}")

    metrics = doc.get("metrics", {})
    counters = metrics.get("counters", {})
    highlights = []
    block_rate = _ratio(counters, "emu.block_cache.hit",
                        "emu.block_cache.miss")
    if block_rate is not None:
        highlights.append(f"block cache hit rate   {block_rate:7.2%}  "
                          f"({counters.get('emu.block_cache.hit', 0)} hit"
                          f" / {counters.get('emu.block_cache.miss', 0)}"
                          f" miss)")
    if counters.get("emu.instructions_retired"):
        highlights.append("instructions retired   "
                          f"{counters['emu.instructions_retired']:,}")
    if counters.get("ir.code_cache.invalidations") is not None:
        highlights.append("IR code invalidations  "
                          f"{counters['ir.code_cache.invalidations']}")
    if highlights:
        lines.append("")
        lines.extend(highlights)

    lines.extend(_counter_sections(counters))
    lines.extend(_percentile_rows(metrics.get("timers", {})))

    hot = metrics.get("profiles", {}).get("emu.hot_blocks")
    if hot and hot.get("top"):
        lines.append("")
        lines.append("hot blocks (executions):")
        for addr, n in hot["top"]:
            lines.append(f"  {addr:>12}  {n:,}")
    return "\n".join(lines)
