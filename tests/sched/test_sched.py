"""The job scheduler: first-in-first-out dispatch, backpressure,
timeouts, crash recovery, drain semantics.  Probe jobs (a no-pipeline
scheduler op) keep these fast; the real-pipeline path is covered by
tests/serve/test_serve.py and benchmarks/test_sched.py."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import errors, obs
from repro.errors import SchedError, SchedRejected
from repro.sched import JobScheduler


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


# -- dispatch ------------------------------------------------------------

def test_probe_jobs_run_and_are_counted(tmp_path):
    scheduler = JobScheduler(2, store_root=tmp_path / "store")
    before = set(threading.enumerate())
    scheduler.start()
    try:
        # One thread per worker slot, and no other.
        assert len(set(threading.enumerate()) - before) == 2
        for key in ("00000000", "00000001", "00000002", "00000003"):
            result = scheduler.submit(probe(image_key=key))
            assert result["ok"]
            assert result["served"] == "probe"
            assert result["image_key"] == key
            assert result["worker"] in (0, 1)
        snapshot = scheduler.snapshot()
        assert snapshot["stats"]["dispatched"] == 4
        assert snapshot["stats"]["completed"] == 4
        assert sum(w["jobs"] for w in snapshot["per_worker"]) == 4
        assert not any(w["busy"] for w in snapshot["per_worker"])
    finally:
        scheduler.close(drain=False)


def test_idle_worker_takes_a_job_while_the_other_is_busy(sched):
    # With one worker busy, a job for the same image runs at once on
    # the idle worker instead of queueing behind.
    blocker = _submit_async(sched, probe(image_key="00000000", sleep=1.5))
    _wait(lambda: _busy(sched, 0) or _busy(sched, 1),
          message="one worker busy")
    busy = 0 if _busy(sched, 0) else 1
    start = time.monotonic()
    result = sched.submit(probe(image_key="00000000"))
    assert time.monotonic() - start < 1.0
    assert result["worker"] == 1 - busy
    blocker["thread"].join(timeout=10)
    assert blocker["result"]["worker"] == busy


def test_jobs_are_dispatched_in_arrival_order(sched):
    # Both workers busy; the shorter blocker frees its worker first.
    # j1 was queued first, so it must be dispatched first, whichever
    # worker frees and whatever its image key.
    led = obs.enable_ledger()
    blockers = [_submit_async(sched, probe(image_key="00000000",
                                           sleep=1.2))]
    _wait(lambda: sched.snapshot()["stats"]["dispatched"] == 1,
          message="blocker A dispatched")
    blockers.append(_submit_async(sched, probe(image_key="00000001",
                                               sleep=0.4)))
    _wait(lambda: _busy(sched, 0) and _busy(sched, 1),
          message="both workers busy")
    j1 = _submit_async(sched, probe(image_key="00000000"))
    _wait(lambda: sched.snapshot()["stats"]["submitted"] == 3,
          message="j1 queued")
    time.sleep(0.05)
    j2 = _submit_async(sched, probe(image_key="00000001", sleep=0.5))
    for box in blockers + [j1, j2]:
        box["thread"].join(timeout=10)
        assert box["result"]["ok"], box
    dispatched = [e["job"] for e in led.events
                  if e["kind"] == "sched.dispatch"]
    assert dispatched == [1, 2, 3, 4]


def test_retry_hint_average_leaves_queue_wait_out(tmp_path):
    # The hint multiplies the average by the queue depth, so the
    # average must be of run times: the same jobs give the same
    # average whether they queued behind each other or not.
    averages = []
    for queued in (True, False):
        scheduler = JobScheduler(1, store_root=tmp_path / "store")
        scheduler.start()
        try:
            if queued:
                boxes = [_submit_async(scheduler, probe(sleep=0.2))
                         for _ in range(4)]
                for box in boxes:
                    box["thread"].join(timeout=10)
                    assert box["result"]["ok"]
            else:
                for _ in range(4):
                    assert scheduler.submit(probe(sleep=0.2))["ok"]
            averages.append(scheduler._ewma_seconds)
        finally:
            scheduler.close(drain=False)
    assert abs(averages[0] - averages[1]) < 0.05, averages


# -- backpressure --------------------------------------------------------

@pytest.mark.parametrize("workers, limits", [
    (0, {}), (-1, {}),
    (1, {"max_depth": 0}), (1, {"max_depth": -1}),
    (1, {"job_timeout": 0}), (1, {"job_timeout": -1.0}),
    (1, {"job_timeout": float("nan")}), (1, {"job_timeout": float("inf")}),
], ids=["workers=0", "workers=-1", "depth=0", "depth=-1", "timeout=0",
        "timeout=-1", "timeout=nan", "timeout=inf"])
def test_out_of_range_numbers_are_rejected(tmp_path, workers, limits):
    # A zero-depth queue rejects every job, a zero or negative limit
    # fails every job, and a nan limit enforces none.
    with pytest.raises(SchedError):
        JobScheduler(workers, store_root=tmp_path / "store", **limits)


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
        assert issubclass(getattr(errors, result["kind"]), SchedError)
        assert "wall-clock limit" in result["error"]
        assert result["job_failed"] is True
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
        assert issubclass(getattr(errors, result["kind"]), SchedError)
        assert result["job_failed"] is True
        assert scheduler.snapshot()["stats"]["respawns"] == 1
        assert scheduler.submit(probe())["ok"]
    finally:
        scheduler.close(drain=False)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (an exited one
    whose parent died stays a zombie until someone reaps it)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:   # no procfs: ask the kernel
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def test_killed_scheduler_process_takes_its_workers_down(tmp_path):
    # The scheduler runs in a child process in its own session, which is
    # killed with no chance to shut the pool down: each worker must see
    # its pipe close and exit.  The process group is killed at the end
    # either way, so a failing run leaves nothing behind.
    script = (
        "import sys, time\n"
        "from repro.sched import JobScheduler\n"
        "sched = JobScheduler(2, store_root=sys.argv[1])\n"
        "sched.start()\n"
        "print(*(slot.proc.pid for slot in sched._slots), flush=True)\n"
        "time.sleep(600)\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(tmp_path / "store")],
        stdout=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(workers) == 2
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
        proc.stdout.close()


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
        # Shut down before it ran or finished: not a failure of the job.
        assert "job_failed" not in box["result"]


def test_nondrain_close_kills_a_busy_worker_at_once(tmp_path):
    scheduler = JobScheduler(1, store_root=tmp_path / "store")
    scheduler.start()
    running = _submit_async(scheduler, probe(sleep=30.0))
    _wait(lambda: _busy(scheduler, 0), message="worker busy")
    worker = scheduler._slots[0].proc
    start = time.monotonic()
    scheduler.close(drain=False)
    # A busy worker reads the stop sentinel only after its job: close
    # must not wait for it.
    assert time.monotonic() - start < 2.0
    assert not worker.is_alive()
    running["thread"].join(timeout=10)
    assert running["result"] == {"ok": False, "kind": "SchedError",
                                 "error": "scheduler shut down mid-job"}


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
