"""repro.sched — the serve daemon's multi-process job scheduler.

The single-lock daemon executes every job under one in-process lock:
the observability recorder is process-global, so two jobs cannot
safely overlap in one process — and its throughput ceiling is one job
at a time regardless of core count.

This module moves job execution into a pool of **long-lived worker
processes**.  Each worker is forked once at scheduler start and then
runs many jobs, each on the serial pipeline.  Reuse across jobs and
workers lands via the shared content-addressed
:class:`~repro.store.ArtifactStore` on disk — result hits, back-end
images and per-input trace records (its atomic tmp+``os.replace``
writes make concurrent puts safe; last writer wins and wrote the same
bytes anyway).  A worker runs the same pipeline as a one-shot recompile,
static widening included, so pool and single-lock modes store the
same images.

Scheduling model:

* **Bounded FIFO queue with backpressure** — submissions past
  ``max_depth`` are rejected immediately with a retry hint
  (:class:`~repro.errors.SchedRejected` carries ``retry_after``
  estimated from the queue depth and a moving average of job run
  times, each timed from its dispatch) instead of queueing
  unboundedly.
* **First-in-first-out dispatch** — each worker slot has one
  parent-side thread that, whenever its worker is idle, takes the
  oldest queued job, hands it over and waits for its result.  Jobs
  start in arrival order on whichever worker frees first: a worker
  keeps nothing between jobs but its store handle, so every worker
  serves a repeated image alike.
* **Per-job wall-clock limit** — ``job_timeout`` kills the worker
  mid-job, fails the job with kind ``JobTimeout``, emits a
  ``job.timeout`` ledger event, and respawns the worker so the slot is
  freed.  Worker crashes are handled the same way (kind
  ``WorkerDied``).  Both are :mod:`repro.errors` classes, and a job
  that fails with an exception of another family ships as kind
  ``ServeError``, the exception's class name leading its message
  (:func:`~repro.errors.job_failure`).

Observability: counters ``sched.dispatch`` / ``sched.reject`` /
``sched.timeout`` with matching ledger events, the
``sched.queue_depth`` gauge, and a ``worker.job`` span per job emitted
*inside* the worker.  Workers ship their recorder/ledger state home
per job over the existing payload protocol
(:func:`repro.obs.export_payload` / :func:`~repro.obs.merge_payload`),
so parent-side reports aggregate the whole pool.

Workers are forked (``fork`` start method) when the scheduler starts,
never inside a pipeline run; on platforms without ``fork`` the serve
daemon falls back to its single-lock in-process path, which computes
the same results.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
from collections import deque
from pathlib import Path

from . import obs
from .binary.image import BinaryImage
from .core.incremental import incremental_recompile
from .errors import (
    JobTimeout,
    SchedError,
    SchedRejected,
    WorkerDied,
    job_failure,
)
from .store import ArtifactStore, decode_runs

__all__ = ["JobScheduler", "execute_job"]

#: Default queue bound, per worker: enough to keep the pool busy
#: through bursts without letting latency grow unboundedly.
DEPTH_PER_WORKER = 4

#: Fallback per-job seconds estimate before any job has completed
#: (seed for the retry hint's moving average).
_SECONDS_SEED = 5.0


# -- job execution (runs in the worker process; also used inline by the
# -- single-lock serve path so both modes share one code path) -----------

def execute_job(spec: dict, store: ArtifactStore,
                image: BinaryImage | None = None) -> dict:
    """Run one job spec and return the response fields it produced.

    ``spec["op"]`` selects the job type: ``"recompile"`` (default) runs
    the store-backed incremental pipeline with the ``optimize`` and
    ``check`` values of ``spec["options"]`` (the daemon rejects any
    other key, and any value of the wrong type), widening
    layouts from static evidence like every recompile; ``"probe"`` is
    a scheduler liveness/latency probe that optionally sleeps
    ``spec["sleep"]`` seconds — it exercises dispatch, timeout and
    drain machinery without pipeline cost (used by the scheduler
    tests).

    The in-process serve path passes the already-parsed ``image`` to
    skip a JSON round trip; workers parse it from ``spec["image_json"]``.
    """
    if spec.get("op") == "probe":
        if spec.get("sleep"):
            time.sleep(float(spec["sleep"]))
        return {"served": "probe", "stats": {}, "image_key":
                spec.get("image_key", ""), "result_key": "",
                "fallback": False, "notes": [], "coverage": {}}
    if image is None:
        image = BinaryImage.from_json(spec["image_json"])
    runs = decode_runs(spec.get("inputs", []))
    options = spec.get("options") or {}
    served = incremental_recompile(
        image, runs, store,
        optimize=options.get("optimize", True),
        check=options.get("check", False))
    out: dict = {
        "served": served.stats.served,
        "stats": served.stats.to_dict(),
        "image_key": served.image_key,
        "result_key": served.result_key,
        "fallback": served.fallback,
        "notes": list(served.notes),
        "coverage": dict(served.coverage),
    }
    if served.accuracy is not None:
        out["accuracy"] = {"precision": served.accuracy.precision,
                           "recall": served.accuracy.recall}
    if spec.get("output"):
        Path(spec["output"]).write_text(served.recovered.to_json())
        out["output"] = spec["output"]
    if spec.get("return_artifact"):
        out["artifact"] = served.recovered.to_json()
    return out


def _arm_worker_obs(spec: dict) -> bool:
    """Bring this worker's observability state in line with the
    parent's for one job; returns whether a payload must ship home."""
    armed = bool(spec.get("obs"))
    if armed:
        # Reset per job: the worker is reused, and its recorder may
        # hold pre-fork parent data or a previous job's counts — both
        # would double-count when the parent merges this payload.
        obs.enable(reset=True)
    ledger_path = spec.get("ledger_path")
    led = obs.ledger()
    if ledger_path:
        # File-backed: append directly (atomic O_APPEND writes), no
        # shipping needed.  Reopen only when the path changed.
        if led is None or led.path is None or str(led.path) != str(
                ledger_path):
            obs.enable_ledger(ledger_path)
    elif spec.get("ledger_mem"):
        # Parent records in memory: collect fresh events here and ship
        # them in the payload.
        obs.enable_ledger()
        armed = True
    elif led is not None and led.path is None:
        obs.disable_ledger()
    return armed


def _worker_main(conn, worker_id: int, store_root: str,
                 inherited=()) -> None:
    """Worker process entry: serve job specs from ``conn`` until EOF or
    a ``None`` sentinel.

    ``inherited`` are the scheduler-side pipe ends the fork copied into
    this process (this worker's own and every other live worker's).
    The worker closes them before it serves: while any process holds a
    scheduler-side end, ``recv`` on the worker side never sees EOF, so a
    daemon killed without an orderly shutdown would leave its workers
    waiting forever."""
    for other in inherited:
        other.close()
    obs.fork_begin()   # drop any in-memory events inherited over fork
    store = ArtifactStore(store_root)
    while True:
        try:
            spec = conn.recv()
        except (EOFError, OSError):
            break
        if spec is None:
            break
        shipping = _arm_worker_obs(spec)
        try:
            with obs.span("worker.job", worker=worker_id,
                          job=spec.get("job", 0),
                          image=spec.get("image_key", "")):
                result = execute_job(spec, store)
            result["ok"] = True
        except Exception as exc:   # ship the failure, stay alive
            kind, error = job_failure(exc)
            result = {"ok": False, "error": error, "kind": kind,
                      "job_failed": True}
        result["worker"] = worker_id
        if shipping:
            result["obs"] = obs.export_payload()
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            break


class _Job:
    """One queued submission and its completion rendezvous."""

    __slots__ = ("seq", "spec", "done", "result", "enqueued", "started")

    def __init__(self, seq: int, spec: dict):
        self.seq = seq
        self.spec = spec
        self.done = threading.Event()
        self.result: dict | None = None
        self.enqueued = time.monotonic()
        self.started = 0.0      # set at dispatch


class _Worker:
    """Parent-side handle for one worker slot (survives respawns)."""

    __slots__ = ("idx", "proc", "conn", "job", "jobs_done", "failures")

    def __init__(self, idx: int):
        self.idx = idx
        self.proc = None
        self.conn = None
        self.job: _Job | None = None
        self.jobs_done = 0
        self.failures = 0


class JobScheduler:
    """A bounded first-in-first-out queue served by a pool of worker
    processes.

    One instance per daemon.  Handler threads call :meth:`submit`,
    which blocks until the job's result is available (or raises
    :class:`~repro.errors.SchedRejected` when the queue is full).  One
    parent-side thread per worker slot hands the oldest queued job to
    its worker whenever the worker is idle, so jobs start in arrival
    order.
    """

    def __init__(self, workers: int, store_root,
                 max_depth: int | None = None,
                 job_timeout: float | None = None):
        if workers < 1:
            raise SchedError(f"a worker pool needs at least 1 worker, "
                             f"got {workers}")
        if max_depth is not None and max_depth < 1:
            raise SchedError(f"queue depth must be at least 1, got "
                             f"{max_depth}: a queue that holds no job "
                             f"rejects every submission")
        if job_timeout is not None and not (
                math.isfinite(job_timeout) and job_timeout > 0):
            raise SchedError(f"job timeout must be a finite number of "
                             f"seconds above 0, got {job_timeout}")
        self.workers = int(workers)
        self.store_root = str(store_root)
        self.max_depth = (int(max_depth) if max_depth is not None
                          else DEPTH_PER_WORKER * self.workers)
        self.job_timeout = job_timeout
        self.stats = {"submitted": 0, "completed": 0, "failed": 0,
                      "dispatched": 0, "rejected": 0, "timeouts": 0,
                      "respawns": 0}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: deque[_Job] = deque()
        self._slots = [_Worker(i) for i in range(self.workers)]
        self._seq = 0
        self._ewma_seconds = _SECONDS_SEED
        self._started = False
        self._closing = False
        self._stopping = False
        self._mp = multiprocessing.get_context("fork")

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Fork the worker pool and start one thread per worker slot.
        Call before the owning daemon spawns handler threads — workers
        fork cleanest from a single-threaded parent."""
        with self._cond:
            if self._started:
                return
            self._started = True
            for slot in self._slots:
                self._spawn_locked(slot)
        for slot in self._slots:
            threading.Thread(target=self._slot_loop, args=(slot,),
                             name=f"sched-slot-{slot.idx}",
                             daemon=True).start()

    def _spawn_locked(self, slot: _Worker) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        inherited = [parent_conn] + [s.conn for s in self._slots
                                     if s.conn is not None]
        proc = self._mp.Process(
            target=_worker_main,
            args=(child_conn, slot.idx, self.store_root, inherited),
            name=f"repro-sched-worker-{slot.idx}", daemon=True)
        proc.start()
        child_conn.close()
        slot.proc, slot.conn = proc, parent_conn

    def _respawn_locked(self, slot: _Worker) -> None:
        if self._stopping:
            slot.proc, slot.conn = None, None
            return
        try:
            if slot.proc is not None and slot.proc.is_alive():
                slot.proc.kill()
            if slot.conn is not None:
                slot.conn.close()
        except OSError:
            pass
        self.stats["respawns"] += 1
        self._spawn_locked(slot)

    def close(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop the scheduler.  ``drain=True`` lets queued and running
        jobs finish first (new submits are rejected immediately);
        ``drain=False`` fails queued jobs and kills running ones."""
        with self._cond:
            if not self._started or self._stopping:
                self._closing = True
                return
            self._closing = True
            if not drain:
                while self._queue:
                    job = self._queue.popleft()
                    job.result = {"ok": False, "kind": "SchedError",
                                  "error": "scheduler shut down before "
                                           "the job ran"}
                    job.done.set()
            self._cond.notify_all()
        if drain:
            deadline = time.monotonic() + timeout
            with self._cond:
                self._cond.wait_for(
                    lambda: not self._queue and all(
                        s.job is None for s in self._slots),
                    timeout=max(0.0, deadline - time.monotonic()))
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
            busy = set()
            for slot in self._slots:
                job = slot.job
                if job is not None:  # undrained (or drain timed out)
                    job.result = {"ok": False, "kind": "SchedError",
                                  "error": "scheduler shut down mid-job"}
                    job.done.set()
                    slot.job = None
                    busy.add(slot.idx)
            slots = list(self._slots)
        for slot in slots:
            conn, proc = slot.conn, slot.proc
            if proc is not None and slot.idx in busy:
                # A worker reads the stop sentinel only after its job.
                proc.kill()
            elif conn is not None:
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            if proc is not None:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
            slot.conn = slot.proc = None

    # -- submission ------------------------------------------------------

    def submit(self, spec: dict) -> dict:
        """Enqueue one job spec and block until its result.

        Returns the worker's result dict (``ok`` False carries
        ``error``/``kind`` of the failure, and ``job_failed`` True when
        the job failed while it ran: an exception in the worker, a
        timeout or a worker crash; a job the scheduler shut down before
        it ran or finished lacks it).  Raises
        :class:`SchedRejected` past the depth bound and
        :class:`SchedError` once the scheduler is shutting down.
        """
        if not self._started:
            raise SchedError("scheduler is not started")
        # Snapshot the parent's observability state for the worker.
        led = obs.ledger()
        spec.setdefault("obs", obs.enabled())
        spec.setdefault("ledger_path",
                        str(led.path) if led is not None
                        and led.path is not None else None)
        spec.setdefault("ledger_mem",
                        led is not None and led.path is None)
        with self._cond:
            if self._closing:
                raise SchedError("scheduler is shutting down")
            depth = len(self._queue)
            if depth >= self.max_depth:
                self.stats["rejected"] += 1
                hint = max(1.0, (depth + 1) * self._ewma_seconds
                           / self.workers)
                obs.count("sched.reject")
                obs.event("sched.reject", depth=depth,
                          image=spec.get("image_key", ""),
                          retry_after=round(hint, 1))
                raise SchedRejected(
                    f"job queue full ({depth} jobs deep, "
                    f"{self.workers} workers); retry in ~{hint:.0f}s",
                    retry_after=hint)
            self._seq += 1
            job = _Job(self._seq, spec)
            self._queue.append(job)
            self.stats["submitted"] += 1
            obs.gauge("sched.queue_depth", len(self._queue))
            self._cond.notify_all()
        job.done.wait()
        result = dict(job.result or {})
        obs.merge_payload(result.pop("obs", None))
        return result

    # -- dispatch and completion -----------------------------------------

    def _slot_loop(self, slot: _Worker) -> None:
        """One worker slot's thread: whenever the worker is idle, hand
        it the oldest queued job, wait for the result, the deadline or
        the worker's death, and complete the job."""
        while True:
            with self._cond:
                while not self._stopping and not self._queue:
                    self._cond.wait()
                if self._stopping:
                    return
                job = self._queue.popleft()
                obs.gauge("sched.queue_depth", len(self._queue))
                if not self._start_job_locked(slot, job):
                    continue
                conn = slot.conn
            deadline = (job.started + self.job_timeout
                        if self.job_timeout is not None else None)
            result, died = None, False
            while True:
                try:
                    if conn.poll(0.1):
                        result = conn.recv()
                        break
                except (EOFError, OSError):
                    died = True
                    break
                if deadline is not None and time.monotonic() > deadline:
                    break
                with self._lock:
                    if self._stopping:
                        return
            self._complete(slot, job, result, died)

    def _start_job_locked(self, slot: _Worker, job: _Job) -> bool:
        try:
            slot.conn.send(job.spec)
        except (BrokenPipeError, OSError):
            # The worker died while idle: revive it and requeue the
            # job at the head; the slot's thread takes it again.
            self._respawn_locked(slot)
            self._queue.appendleft(job)
            return False
        slot.job = job
        job.started = time.monotonic()
        self.stats["dispatched"] += 1
        obs.count("sched.dispatch")
        obs.event("sched.dispatch", job=job.seq, worker=slot.idx,
                  image=job.spec.get("image_key", ""),
                  waited=round(job.started - job.enqueued, 4))
        return True

    def _complete(self, slot: _Worker, job: _Job, result, died: bool) \
            -> None:
        elapsed = time.monotonic() - job.started
        timed_out = False
        with self._cond:
            if slot.job is not job:
                return      # close() answered the job and stopped
            if result is None:
                if died:
                    code = (slot.proc.exitcode
                            if slot.proc is not None else None)
                    result = {"ok": False, "kind": WorkerDied.__name__,
                              "error": f"worker {slot.idx} died "
                                       f"mid-job (exit {code})",
                              "job_failed": True}
                else:   # deadline passed with the worker still running
                    self.stats["timeouts"] += 1
                    timed_out = True
                    result = {"ok": False, "kind": JobTimeout.__name__,
                              "error": f"job exceeded the "
                                       f"{self.job_timeout:g}s "
                                       f"wall-clock limit",
                              "job_failed": True}
                self._respawn_locked(slot)
                slot.failures += 1
            else:
                slot.jobs_done += 1
                # A moving average of run times feeds the retry hint;
                # timed from dispatch, as the hint scales by the queue
                # depth itself.
                self._ewma_seconds = (0.7 * self._ewma_seconds
                                      + 0.3 * elapsed)
            if result.get("ok"):
                self.stats["completed"] += 1
            else:
                self.stats["failed"] += 1
            slot.job = None
            self._cond.notify_all()
        if timed_out:
            obs.count("sched.timeout")
            obs.event("job.timeout", job=job.seq, worker=slot.idx,
                      seconds=self.job_timeout,
                      image=job.spec.get("image_key", ""))
        job.result = result
        job.done.set()

    # -- introspection ---------------------------------------------------

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def snapshot(self) -> dict:
        """Status-op view: pool shape, counters, per-worker state."""
        with self._lock:
            return {
                "workers": self.workers,
                "queue_depth": len(self._queue),
                "max_depth": self.max_depth,
                "job_timeout": self.job_timeout,
                "stats": dict(self.stats),
                "per_worker": [
                    {"worker": s.idx,
                     "busy": s.job is not None,
                     "jobs": s.jobs_done,
                     "failures": s.failures}
                    for s in self._slots],
            }
