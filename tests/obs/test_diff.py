"""Report diffing and the bench perf-regression gate."""

import json

import pytest

from repro import obs


def _report(counters=None, timers=None, spans=()):
    return {
        "version": 2,
        "spans": [{"name": n, "seconds": 0.0, "attrs": {},
                   "children": []} for n in spans],
        "metrics": {"counters": counters or {}, "gauges": {},
                    "histograms": {}, "timers": timers or {},
                    "profiles": {}},
    }


def _timer(mean, p95=None):
    return {"count": 10, "sum": mean * 10, "min": mean, "max": mean,
            "mean": mean, "p50": mean, "p95": p95 or mean, "p99": mean}


def test_diff_spans_and_counters():
    a = _report(counters={"store.hit": 5, "only.a": 1},
                spans=("stage.trace", "stage.lift"))
    b = _report(counters={"store.hit": 9, "only.b": 2},
                spans=("stage.trace", "stage.opt"))
    diff = obs.diff_reports(a, b)
    assert diff["spans"]["added"] == {"stage.opt": 1}
    assert diff["spans"]["removed"] == {"stage.lift": 1}
    assert diff["counters"]["added"] == {"only.b": 2}
    assert diff["counters"]["removed"] == {"only.a": 1}
    assert diff["counters"]["changed"]["store.hit"] == {
        "a": 5, "b": 9, "delta": 4}


def test_diff_surfaces_disabled_cache_counters():
    """A recompile without ``--store`` loses the store.* counters of
    one with it, and the diff must say so."""
    a = _report(counters={"store.miss": 2})
    b = _report(counters={})
    diff = obs.diff_reports(a, b)
    assert diff["counters"]["removed"] == {"store.miss": 2}
    assert "store.miss" in obs.render_diff(diff)


def test_diff_timer_noise_thresholds():
    a = _report(timers={"slow": _timer(0.100), "steady": _timer(0.100),
                        "tiny": _timer(1e-5)})
    b = _report(timers={"slow": _timer(0.200), "steady": _timer(0.105),
                        "tiny": _timer(9e-5)})
    diff = obs.diff_reports(a, b)
    changed = diff["timers"]["changed"]
    assert set(changed) == {"slow"}  # 2.0x moves; 5% and sub-ms do not
    assert changed["slow"]["ratio"] == pytest.approx(2.0)


def test_diff_render_mentions_everything():
    a = _report(counters={"c": 1}, timers={"t": _timer(0.1)})
    b = _report(counters={"c": 3}, timers={"t": _timer(0.5)})
    text = obs.render_diff(obs.diff_reports(a, b))
    assert "counter changed  c" in text and "+2" in text
    assert "timer changed" in text and "5.00x" in text
    empty = obs.render_diff(obs.diff_reports(a, a))
    assert "no differences" in empty


def _bench_json(path, name, mean):
    path.write_text(json.dumps({
        "benchmarks": [{"name": name,
                        "stats": {"mean": mean, "median": mean},
                        "extra_info": {}}]}))
    return path


def test_load_benchmarks_folds_files(tmp_path):
    a = _bench_json(tmp_path / "a.json", "bench_x", 0.5)
    b = _bench_json(tmp_path / "b.json", "bench_y", 1.5)
    loaded = obs.load_benchmarks([a, b])
    assert loaded["bench_x"]["mean"] == 0.5
    assert loaded["bench_y"]["mean"] == 1.5
    assert loaded["bench_y"]["source"].endswith("b.json")


def test_regress_passes_within_tolerance():
    base = {"b1": {"mean": 1.0}, "b2": {"mean": 2.0}}
    fresh = {"b1": {"mean": 1.4}, "b2": {"mean": 2.1}}
    result = obs.regress(base, fresh, tolerance=1.5)
    assert result["ok"] and result["regressions"] == []
    assert "PASS" in obs.render_regress(result)


def test_regress_fails_past_tolerance():
    base = {"b1": {"mean": 1.0}}
    fresh = {"b1": {"mean": 1.6}}
    result = obs.regress(base, fresh, tolerance=1.5)
    assert not result["ok"] and result["regressions"] == ["b1"]
    text = obs.render_regress(result)
    assert "REGRESSED" in text and "FAIL" in text


def test_regress_reports_missing_and_new_benches():
    base = {"gone": {"mean": 1.0}, "kept": {"mean": 1.0}}
    fresh = {"kept": {"mean": 1.0}, "new": {"mean": 1.0}}
    result = obs.regress(base, fresh)
    assert result["ok"]  # one-sided benches warn but do not fail
    assert result["missing_from_fresh"] == ["gone"]
    assert result["new_in_fresh"] == ["new"]
    text = obs.render_regress(result)
    assert "gone" in text and "new" in text


def test_regress_empty_intersection_fails():
    result = obs.regress({"a": {"mean": 1.0}}, {"b": {"mean": 1.0}})
    assert not result["ok"]  # comparing nothing must not pass
    assert "gate fails" in obs.render_regress(result)


def test_regress_nan_mean_fails_closed():
    # NaN compares False both ways: only `ratio <= tolerance` passes.
    for base, fresh in ((1.0, float("nan")), (float("nan"), 1.0)):
        result = obs.regress({"b1": {"mean": base}},
                             {"b1": {"mean": fresh}}, tolerance=1.5)
        assert not result["ok"] and result["regressions"] == ["b1"]


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0,
                                       -1.0])
def test_regress_rejects_a_tolerance_not_finite_and_positive(tolerance):
    with pytest.raises(ValueError):
        obs.regress({"b1": {"mean": 1.0}}, {"b1": {"mean": 10.0}},
                    tolerance=tolerance)


@pytest.mark.parametrize("doc", [[], "x", {"metrics": 5},
                                 {"metrics": {"counters": []}},
                                 {"metrics": {"timers": {"t": 1}}},
                                 {"spans": [1]}])
def test_diff_rejects_a_document_not_shaped_like_a_report(doc):
    from repro.errors import ReportError
    with pytest.raises(ReportError):
        obs.diff_reports(doc, _report())
    with pytest.raises(ReportError):
        obs.diff_reports(_report(), doc)


@pytest.mark.parametrize("content", ["not json", "[]",
                                     '{"benchmarks": 5}',
                                     '{"benchmarks": [{"stats": {}}]}'])
def test_load_benchmarks_rejects_a_malformed_file(tmp_path, content):
    from repro.errors import ReportError
    path = tmp_path / "bench.json"
    path.write_text(content)
    with pytest.raises(ReportError):
        obs.load_benchmarks([path])
