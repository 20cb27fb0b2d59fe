"""Run-report diffing and the perf-regression gate.

Two comparison engines over the observability artifacts:

* :func:`diff_reports` — structural diff of two obs report documents
  (:func:`repro.obs.export` output): spans that appeared/disappeared,
  counter deltas, gauge changes, and timer/histogram mean ratios with a
  noise threshold so sub-millisecond jitter does not read as a change.
  ``python -m repro obs diff a.json b.json`` renders it.
* :func:`regress` — compares a fresh pytest-benchmark pass against a
  committed baseline (the ``BENCH_*.json`` trajectory): per benchmark,
  the fresh mean must stay within ``tolerance`` × the baseline mean.
  ``python -m repro obs regress --baseline ... --fresh ...`` exits
  nonzero past tolerance, which is what the CI ``bench-regress`` job
  gates on.

Both consume plain dicts, tolerate schema v1 documents (pre-percentile
histograms), and return plain dicts so callers can JSON them.  A
document of the wrong shape raises :class:`~repro.errors.ReportError`,
which the CLI reports as a one-line usage error (exit 2), apart from a
regression (exit 1).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

from ..errors import ReportError
from .report import iter_spans

__all__ = ["diff_reports", "load_benchmarks", "load_report", "regress",
           "render_diff", "render_regress"]


def _read_json(path) -> object:
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ReportError(f"{path}: not JSON ({exc})") from None


def load_report(path) -> dict:
    """Read an obs report document, checked as :func:`diff_reports`
    needs it."""
    doc = _read_json(path)
    _check_report(doc, str(path))
    return doc


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_report(doc, label: str) -> None:
    """Raise :class:`ReportError` unless ``doc`` has the shape of an obs
    report: an object whose spans nest as lists of objects and whose
    metric families map names to numbers (counters, gauges) or to
    objects with a numeric mean (timers, histograms)."""
    if not isinstance(doc, dict):
        raise ReportError(f"{label}: an obs report is a JSON object, "
                          f"not {type(doc).__name__}")
    stack = [("spans", doc.get("spans", []))]
    while stack:
        where, spans = stack.pop()
        if not isinstance(spans, list) or \
                not all(isinstance(s, dict) for s in spans):
            raise ReportError(f"{label}: {where} is not a list of objects")
        stack.extend((f"{where}[].children", s.get("children", []))
                     for s in spans)
    metrics = doc.get("metrics", {})
    if not isinstance(metrics, dict):
        raise ReportError(f"{label}: metrics is not an object")
    for family in ("counters", "gauges", "timers", "histograms"):
        rows = metrics.get(family, {})
        if not isinstance(rows, dict):
            raise ReportError(f"{label}: metrics.{family} is not an "
                              f"object")
        for name, row in rows.items():
            if family in ("timers", "histograms"):
                ok = isinstance(row, dict) and _is_number(
                    row.get("mean", 0.0))
            else:
                ok = _is_number(row)
            if not ok:
                raise ReportError(f"{label}: metrics.{family}.{name} "
                                  f"is malformed")


def _span_counts(doc: dict) -> Counter:
    return Counter(s.get("name", "") for s in iter_spans(doc))


def _dict_diff(a: dict, b: dict) -> dict:
    added = {k: b[k] for k in sorted(set(b) - set(a))}
    removed = {k: a[k] for k in sorted(set(a) - set(b))}
    changed = {k: {"a": a[k], "b": b[k], "delta": b[k] - a[k]}
               for k in sorted(set(a) & set(b)) if a[k] != b[k]}
    return {"added": added, "removed": removed, "changed": changed}


def _timer_diff(a: dict, b: dict, ratio_threshold: float,
                min_seconds: float) -> dict:
    out: dict = {"added": sorted(set(b) - set(a)),
                 "removed": sorted(set(a) - set(b)),
                 "changed": {}}
    for name in sorted(set(a) & set(b)):
        a_mean = a[name].get("mean", 0.0)
        b_mean = b[name].get("mean", 0.0)
        if max(a_mean, b_mean) < min_seconds:
            continue          # below the noise floor
        ratio = b_mean / a_mean if a_mean else float("inf")
        if abs(ratio - 1.0) < ratio_threshold:
            continue
        out["changed"][name] = {
            "a_mean": a_mean, "b_mean": b_mean, "ratio": ratio,
            "a_p95": a[name].get("p95"), "b_p95": b[name].get("p95"),
        }
    return out


def diff_reports(a: dict, b: dict, *, ratio_threshold: float = 0.2,
                 min_seconds: float = 1e-3) -> dict:
    """Structural diff of two obs report documents (a -> b).

    Timer/histogram entries below ``min_seconds`` mean wall time, or
    whose mean ratio moved less than ``ratio_threshold``, are treated
    as noise and omitted from ``changed``.  Raises
    :class:`~repro.errors.ReportError` when either side is not shaped
    like a report.
    """
    _check_report(a, "a")
    _check_report(b, "b")
    a_spans, b_spans = _span_counts(a), _span_counts(b)
    a_metrics = a.get("metrics", {})
    b_metrics = b.get("metrics", {})
    return {
        "spans": {
            "added": {n: c for n, c in sorted((b_spans - a_spans)
                                              .items())},
            "removed": {n: c for n, c in sorted((a_spans - b_spans)
                                                .items())},
        },
        "counters": _dict_diff(a_metrics.get("counters", {}),
                               b_metrics.get("counters", {})),
        "gauges": _dict_diff(a_metrics.get("gauges", {}),
                             b_metrics.get("gauges", {})),
        "timers": _timer_diff(a_metrics.get("timers", {}),
                              b_metrics.get("timers", {}),
                              ratio_threshold, min_seconds),
        "histograms": _timer_diff(a_metrics.get("histograms", {}),
                                  b_metrics.get("histograms", {}),
                                  ratio_threshold, min_seconds),
    }


def render_diff(diff: dict) -> str:
    """Human-readable rendering of a :func:`diff_reports` result."""
    lines = ["=== obs report diff (a -> b) ==="]
    spans = diff.get("spans", {})
    for verb in ("added", "removed"):
        for name, n in spans.get(verb, {}).items():
            lines.append(f"span {verb:<8} {name}  x{n}")
    counters = diff.get("counters", {})
    for name, value in counters.get("added", {}).items():
        lines.append(f"counter added    {name} = {value:,}")
    for name, value in counters.get("removed", {}).items():
        lines.append(f"counter removed  {name} (was {value:,})")
    for name, row in counters.get("changed", {}).items():
        lines.append(f"counter changed  {name}  {row['a']:,} -> "
                     f"{row['b']:,}  ({row['delta']:+,})")
    for name, row in diff.get("gauges", {}).get("changed", {}).items():
        lines.append(f"gauge changed    {name}  {row['a']} -> "
                     f"{row['b']}")
    for family in ("timers", "histograms"):
        rows = diff.get(family, {})
        for name in rows.get("added", []):
            lines.append(f"{family[:-1]} added    {name}")
        for name in rows.get("removed", []):
            lines.append(f"{family[:-1]} removed  {name}")
        for name, row in rows.get("changed", {}).items():
            lines.append(
                f"{family[:-1]} changed  {name}  mean "
                f"{row['a_mean'] * 1e3:.3f} -> "
                f"{row['b_mean'] * 1e3:.3f} ms  "
                f"({row['ratio']:.2f}x)")
    if len(lines) == 1:
        lines.append("(no differences above thresholds)")
    return "\n".join(lines)


# -- bench regression gate ---------------------------------------------------


def load_benchmarks(paths) -> dict[str, dict]:
    """Fold one or more pytest-benchmark JSON files into a
    ``name -> {mean, median, extra_info, source}`` map.  A benchmark
    name appearing in several files keeps the last occurrence.  Raises
    :class:`~repro.errors.ReportError` on a file that is not
    pytest-benchmark JSON."""
    out: dict[str, dict] = {}
    for path in paths:
        doc = _read_json(path)
        benches = doc.get("benchmarks") if isinstance(doc, dict) \
            else None
        if not isinstance(benches, list):
            raise ReportError(f"{path}: not a pytest-benchmark document")
        for bench in benches:
            stats = bench.get("stats", {}) if isinstance(bench, dict) \
                else None
            if not isinstance(stats, dict) \
                    or not isinstance(bench.get("name"), str) \
                    or not all(_is_number(stats.get(k, 0.0))
                               for k in ("mean", "median")):
                raise ReportError(f"{path}: malformed benchmark entry")
            out[bench["name"]] = {
                "mean": stats.get("mean", 0.0),
                "median": stats.get("median", 0.0),
                "extra_info": bench.get("extra_info", {}),
                "source": str(path),
            }
    return out


def regress(baseline: dict[str, dict], fresh: dict[str, dict],
            tolerance: float = 1.5) -> dict:
    """Compare a fresh benchmark pass against the committed baseline.

    A benchmark passes only when ``fresh_mean / baseline_mean <=
    tolerance``; anything else regresses, a NaN ratio included.
    ``tolerance`` must be a finite number above 0 (``ValueError``
    otherwise).  Benchmarks present on only one side are reported
    (a vanished benchmark means the gate silently lost coverage) but do
    not fail the gate by themselves; an empty intersection does —
    comparing nothing must not pass.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a finite number above 0, "
                         f"not {tolerance}")
    rows: dict[str, dict] = {}
    regressions: list[str] = []
    for name in sorted(set(baseline) & set(fresh)):
        base_mean = baseline[name]["mean"]
        fresh_mean = fresh[name]["mean"]
        ratio = fresh_mean / base_mean if base_mean else float("inf")
        failed = not ratio <= tolerance
        rows[name] = {"baseline_mean": base_mean,
                      "fresh_mean": fresh_mean, "ratio": ratio,
                      "regressed": failed}
        if failed:
            regressions.append(name)
    missing = sorted(set(baseline) - set(fresh))
    extra = sorted(set(fresh) - set(baseline))
    return {
        "tolerance": tolerance,
        "compared": rows,
        "regressions": regressions,
        "missing_from_fresh": missing,
        "new_in_fresh": extra,
        "ok": bool(rows) and not regressions,
    }


def render_regress(result: dict) -> str:
    """Human-readable rendering of a :func:`regress` result."""
    lines = [f"=== bench regression gate (tolerance "
             f"{result['tolerance']:.2f}x) ==="]
    rows = result.get("compared", {})
    if rows:
        width = max(len(n) for n in rows)
        for name, row in rows.items():
            verdict = "REGRESSED" if row["regressed"] else "ok"
            lines.append(
                f"{name:<{width}}  {row['baseline_mean'] * 1e3:>9.2f} ->"
                f" {row['fresh_mean'] * 1e3:>9.2f} ms  "
                f"({row['ratio']:.2f}x)  {verdict}")
    else:
        lines.append("no benchmarks in common — gate fails")
    for name in result.get("missing_from_fresh", []):
        lines.append(f"warning: baseline bench {name} missing from "
                     f"the fresh pass")
    for name in result.get("new_in_fresh", []):
        lines.append(f"note: fresh bench {name} has no baseline yet")
    lines.append("PASS" if result.get("ok") else "FAIL")
    return "\n".join(lines)
