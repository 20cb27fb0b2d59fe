"""The job scheduler: affinity, stealing, backpressure, timeouts,
crash recovery, drain semantics.  Probe jobs (a no-pipeline scheduler
op) keep these fast; the real-pipeline path is covered by
tests/serve/test_serve.py and benchmarks/test_sched.py."""

import threading
import time

import pytest

from repro import obs
from repro.errors import SchedError, SchedRejected
from repro.sched import JobScheduler, affinity_worker


@pytest.fixture(autouse=True)
def _obs_off():
    yield
    obs.disable_ledger()
    obs.disable()


def probe(image_key="00000000", sleep=0.0):
    return {"op": "probe", "image_key": image_key, "sleep": sleep}


@pytest.fixture
def sched(tmp_path):
    scheduler = JobScheduler(2, store_root=tmp_path / "store")
    scheduler.start()
    yield scheduler
    scheduler.close(drain=False)


def _submit_async(scheduler, spec):
    box = {}

    def run():
        try:
            box["result"] = scheduler.submit(spec)
        except Exception as exc:
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    box["thread"] = thread
    return box


def _wait(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


def _busy(scheduler, idx):
    return scheduler.snapshot()["per_worker"][idx]["busy"]


# -- affinity ------------------------------------------------------------

def test_affinity_is_deterministic_and_in_range():
    keys = [f"{i:08x}deadbeef" for i in range(50)]
    for workers in (1, 2, 3, 7):
        placed = [affinity_worker(k, workers) for k in keys]
        assert placed == [affinity_worker(k, workers) for k in keys]
        assert all(0 <= w < workers for w in placed)
    # With enough keys every worker gets traffic.
    assert len(set(affinity_worker(k, 4) for k in keys)) == 4


def test_affinity_tolerates_non_hex_keys():
    assert 0 <= affinity_worker("not-hex-at-all", 3) < 3
    assert affinity_worker("", 2) in (0, 1)
    assert affinity_worker("anything", 1) == 0


# -- dispatch ------------------------------------------------------------

def test_probe_jobs_land_on_their_affine_worker(sched):
    for key in ("00000000", "00000001", "00000002", "00000003"):
        result = sched.submit(probe(image_key=key))
        assert result["ok"]
        assert result["served"] == "probe"
        assert result["worker"] == affinity_worker(key, 2)
    stats = sched.snapshot()["stats"]
    assert stats["dispatched"] == 4
    assert stats["affine"] == 4
    assert stats["stolen"] == 0
    per_worker = sched.snapshot()["per_worker"]
    assert [w["jobs"] for w in per_worker] == [2, 2]
    assert per_worker[0]["last_image"] == "00000002"


def test_idle_worker_steals_from_a_busy_affine_worker(sched):
    # Occupy worker 0, then submit another worker-0-affine job: the
    # idle worker 1 must take it instead of queueing behind.
    blocker = _submit_async(sched, probe(image_key="00000000", sleep=1.5))
    _wait(lambda: _busy(sched, 0), message="worker 0 busy")
    stolen = sched.submit(probe(image_key="00000000"))
    assert stolen["worker"] == 1
    assert sched.snapshot()["stats"]["stolen"] == 1
    blocker["thread"].join(timeout=10)
    assert blocker["result"]["worker"] == 0


# -- backpressure --------------------------------------------------------

def test_full_queue_rejects_with_retry_hint(tmp_path):
    scheduler = JobScheduler(1, store_root=tmp_path / "store",
                             max_depth=1)
    scheduler.start()
    try:
        running = _submit_async(scheduler, probe(sleep=2.0))
        _wait(lambda: _busy(scheduler, 0), message="worker busy")
        queued = _submit_async(scheduler, probe(sleep=0.0))
        _wait(lambda: scheduler.depth() == 1, message="one job queued")
        with pytest.raises(SchedRejected) as info:
            scheduler.submit(probe())
        assert info.value.retry_after > 0
        assert "queue full" in str(info.value)
        assert scheduler.snapshot()["stats"]["rejected"] == 1
        running["thread"].join(timeout=10)
        queued["thread"].join(timeout=10)
        assert queued["result"]["ok"]
    finally:
        scheduler.close(drain=False)


# -- timeout and crash recovery ------------------------------------------

def test_job_timeout_fails_job_and_respawns_worker(tmp_path):
    scheduler = JobScheduler(1, store_root=tmp_path / "store",
                             job_timeout=0.3)
    scheduler.start()
    led = obs.enable_ledger()
    try:
        result = scheduler.submit(probe(sleep=30.0))
        assert result["ok"] is False
        assert result["kind"] == "JobTimeout"
        assert "wall-clock limit" in result["error"]
        stats = scheduler.snapshot()["stats"]
        assert stats["timeouts"] == 1
        assert stats["respawns"] == 1
        assert any(e["kind"] == "job.timeout" for e in led.events)
        # The slot is freed and its fresh worker serves again.
        again = scheduler.submit(probe())
        assert again["ok"]
    finally:
        scheduler.close(drain=False)


def test_worker_crash_fails_job_and_respawns(tmp_path):
    scheduler = JobScheduler(1, store_root=tmp_path / "store")
    scheduler.start()
    try:
        running = _submit_async(scheduler, probe(sleep=30.0))
        _wait(lambda: _busy(scheduler, 0), message="worker busy")
        scheduler._slots[0].proc.kill()
        running["thread"].join(timeout=10)
        result = running["result"]
        assert result["ok"] is False
        assert result["kind"] == "WorkerDied"
        assert scheduler.snapshot()["stats"]["respawns"] == 1
        assert scheduler.submit(probe())["ok"]
    finally:
        scheduler.close(drain=False)


# -- lifecycle -----------------------------------------------------------

def test_submit_before_start_and_after_close_raise(tmp_path):
    scheduler = JobScheduler(1, store_root=tmp_path / "store")
    with pytest.raises(SchedError, match="not started"):
        scheduler.submit(probe())
    scheduler.start()
    assert scheduler.submit(probe())["ok"]
    scheduler.close()
    with pytest.raises(SchedError, match="shutting down"):
        scheduler.submit(probe())


def test_drain_close_completes_queued_jobs(tmp_path):
    scheduler = JobScheduler(1, store_root=tmp_path / "store")
    scheduler.start()
    boxes = [_submit_async(scheduler, probe(sleep=0.2))
             for _ in range(3)]
    # A submit that loses the race with close() is refused, not queued.
    _wait(lambda: scheduler.snapshot()["stats"]["submitted"] == 3,
          message="three jobs queued")
    scheduler.close(drain=True)
    for box in boxes:
        box["thread"].join(timeout=10)
        assert box["result"]["ok"], box
    assert scheduler.snapshot()["stats"]["completed"] == 3


def test_nondrain_close_fails_queued_jobs(tmp_path):
    scheduler = JobScheduler(1, store_root=tmp_path / "store")
    scheduler.start()
    running = _submit_async(scheduler, probe(sleep=30.0))
    _wait(lambda: _busy(scheduler, 0), message="worker busy")
    queued = _submit_async(scheduler, probe())
    _wait(lambda: scheduler.depth() == 1, message="one job queued")
    scheduler.close(drain=False)
    for box in (running, queued):
        box["thread"].join(timeout=10)
        assert box["result"]["ok"] is False
        assert box["result"]["kind"] == "SchedError"


# -- observability -------------------------------------------------------

def test_worker_obs_payload_merges_into_parent(sched, tmp_path):
    obs.enable(reset=True)
    obs.enable_ledger()
    result = sched.submit(probe(image_key="00000001"))
    assert result["ok"]
    rec = obs.recorder()
    # The worker's span tree (worker.job) shipped home in the payload.
    assert any(s.get("name") == "worker.job" for s in rec.foreign_spans)
    assert rec.registry.gauges["sched.queue_depth"] == 0
    assert rec.registry.counters["sched.dispatch"] == 1
