"""The stderr summary: grouped counter sections and percentile rows."""

from repro import obs
from repro.obs.report import SCHEMA_VERSION


def _doc(counters=None, timers=None):
    return {
        "version": SCHEMA_VERSION,
        "spans": [],
        "metrics": {"counters": counters or {}, "gauges": {},
                    "histograms": {}, "timers": timers or {},
                    "profiles": {}},
    }


def test_counter_sections_group_by_prefix():
    text = obs.summary(_doc(counters={
        "store.hit": 30, "store.miss": 10, "store.put": 1,
        "parallel.pool.spawns": 2, "parallel.pool.reuses": 5,
        "opt.manager.requeued": 4,
        "gc.collections.gen0": 3,
        "unrelated.counter": 99,
    }))
    assert "artifact store (store.*):" in text
    assert "cyclic collector (gc.collections.*):" in text
    assert "fork pool (parallel.pool.*):" in text
    assert "pass manager (opt.manager.*):" in text
    # Entries appear under their section with the prefix stripped.
    assert "miss" in text and "spawns" in text and "requeued" in text
    # Prefixes that recorded nothing add no empty section.
    no_pool = obs.summary(_doc(counters={"store.hit": 1}))
    assert "fork pool" not in no_pool


def test_percentile_rows_for_timers():
    timer = {"count": 4, "sum": 0.4, "min": 0.05, "max": 0.2,
             "mean": 0.1, "p50": 0.08, "p95": 0.19, "p99": 0.2}
    text = obs.summary(_doc(timers={"replay.bounds_seconds": timer}))
    assert "p50 ms" in text and "p95 ms" in text and "p99 ms" in text
    assert "replay.bounds_seconds" in text
    assert "80.000" in text   # p50 rendered in milliseconds
    assert "190.000" in text  # p95
    # v1 documents (no percentile keys) still render, as zeros.
    v1 = {"count": 1, "sum": 0.1, "min": 0.1, "max": 0.1, "mean": 0.1}
    old = obs.summary(_doc(timers={"legacy": v1}))
    assert "legacy" in old


def test_empty_timers_add_no_table():
    text = obs.summary(_doc())
    assert "p50 ms" not in text
