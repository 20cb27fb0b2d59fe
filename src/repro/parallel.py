"""repro.parallel — the fork-pool utility behind the replay engine.

The replay engine's validation and instrumented-bounds sweeps
(:mod:`repro.replay.engine`) fan work out over a process pool whose
workers read a large cyclic object graph (the IR module).  The serve
daemon and the job scheduler (:mod:`repro.sched`) lend the engine a
long-lived pool.  Pickling the module per task is the dominant cost,
so pools are spawned with the ``fork`` start method and workers read
the context from inherited memory instead:

1. the parent publishes the context via :func:`publish_ctx`;
2. the pool forks, each worker inheriting the published snapshot;
3. tasks are submitted as small picklable values (indices) and workers
   combine them with :func:`worker_ctx`.

:class:`ForkPool` wraps that protocol and adds **reuse**: a pool stays
alive after a sweep, and the next ``acquire`` with the same *key* (a
content fingerprint of the inherited context) returns the live
executor instead of forking a fresh one — consecutive replay stages
over an unchanged module share one set of workers.  A key mismatch
shuts the old pool down and respawns.

Contract for callers:

* ``acquire`` immediately before a submit batch and drain the batch
  before the next ``acquire`` anywhere in the process — the published
  context is global, so interleaving un-drained batches of *different*
  pools could fork a late worker under the wrong context;
* after cancelling a batch mid-flight or observing a broken pool, call
  :meth:`ForkPool.invalidate` — a cancelled executor cannot accept new
  work;
* ``close`` when the owning scope ends (the replay engine does this
  when its pipeline run finishes).

Observability: ``parallel.pool.spawns`` counts executor creations,
``parallel.pool.reuses`` counts acquisitions served by a live pool —
their ratio is the cross-stage reuse rate.

Where ``fork`` is unavailable (non-POSIX platforms), ``acquire``
raises and callers fall back to their serial paths, which compute the
same results.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from . import obs

#: Worker state inherited over ``fork``; published by the parent
#: immediately before spawning (or growing) a pool.
_CTX = None


def publish_ctx(ctx) -> None:
    """Publish ``ctx`` for workers forked from this point on."""
    global _CTX
    _CTX = ctx


def worker_ctx():
    """The context snapshot this worker inherited at fork time."""
    return _CTX


class ForkPool:
    """A reusable fork-context process pool keyed by inherited context.

    One ``ForkPool`` per owning scope (a replay engine, or a serve
    daemon or scheduler worker lending one to every job's engine); at
    most one executor is live at a time.
    """

    def __init__(self, jobs: int):
        self.jobs = max(1, int(jobs))
        self._executor: ProcessPoolExecutor | None = None
        self._key = None
        self._workers = 0

    @property
    def alive(self) -> bool:
        return self._executor is not None

    def acquire(self, key, ctx, ntasks: int) -> ProcessPoolExecutor:
        """An executor whose workers inherited ``ctx``.

        ``key`` must determine ``ctx``'s observable content: the live
        pool is reused when the keys match (its workers' inherited
        snapshot is interchangeable with ``ctx``), else it is shut down
        and a fresh pool is forked.  The context is (re)published even
        on reuse so workers the executor spawns lazily during later
        submits fork under the right snapshot.
        """
        workers = min(self.jobs, max(int(ntasks), 1))
        if self._executor is not None:
            # A pool sized by a small earlier batch is grown (respawned)
            # rather than reused when a larger batch arrives — a
            # long-lived owner (the serve daemon) would otherwise be
            # stuck at the first request's width forever.
            if self._key == key and workers <= self._workers:
                obs.count("parallel.pool.reuses")
                obs.event("pool.reuse", key=str(key))
                publish_ctx(ctx)
                return self._executor
            self.close()
        publish_ctx(ctx)
        mp_ctx = multiprocessing.get_context("fork")
        self._executor = ProcessPoolExecutor(max_workers=workers,
                                             mp_context=mp_ctx)
        self._key = key
        self._workers = workers
        obs.count("parallel.pool.spawns")
        obs.event("pool.spawn", key=str(key), workers=workers)
        return self._executor

    def invalidate(self, cancel: bool = False) -> None:
        """Drop the live pool without waiting for queued work.

        ``cancel=True`` additionally cancels still-pending futures (the
        early-exit path of a failed validation sweep).
        """
        if self._executor is None:
            return
        pool, self._executor, self._key = self._executor, None, None
        try:
            pool.shutdown(wait=False, cancel_futures=cancel)
        except Exception:
            pass

    def close(self) -> None:
        """Shut the live pool down, waiting for in-flight work."""
        if self._executor is None:
            return
        pool, self._executor, self._key = self._executor, None, None
        try:
            pool.shutdown(wait=True)
        except Exception:
            pass

    def __del__(self):  # best-effort: scopes should close() explicitly
        try:
            self.invalidate()
        except Exception:
            pass
