"""Scheduler bench: K concurrent distinct-image campaigns, worker pool
vs the single-lock daemon.

Runs as the fifth ``tools/bench.sh`` pass and lands in
``BENCH_sched.json``.  One scenario, through two real daemons on Unix
sockets sharing nothing:

* **Concurrent distinct images** — K=4 clients submit campaigns for
  four different images at once.  The single-lock daemon serializes
  them; the ``workers=4`` pool runs them concurrently.  Artifacts must
  be byte-identical across the two daemons, and a warm sequential
  resubmission round, on whichever workers take it, must be served
  entirely from the result store.

The asserted speedup floor scales with the machine: on >= 4 cores the
pool must be >= 2.5x the single-lock daemon; on 2-3 cores >= 1.3x; on a
single-core runner true concurrency is physically unavailable, so the
floor is an overhead bound (>= 0.5x — the pool's fork/IPC cost must not
dominate) and the committed baseline records the measured ratio.
``ncpu`` lands in ``extra_info`` so regressions are compared
like-for-like.
"""

import os
import shutil
import tempfile
import threading
import time

import pytest

from repro import compile_source
from repro.serve import RecompileServer, ServeClient
from repro.store import ArtifactStore

pytestmark = pytest.mark.bench

WORKERS = 4

#: Loop-heavy template: tracing dominates the job, which is the honest
#: case for the pool (traces are per-image, so the single-lock daemon
#: cannot amortize them across these distinct images).  Per-variant
#: constants make each image's content key (and functions) distinct.
SOURCE_TMPL = r"""
int churn(int seed) {{
    int acc = seed + {bias};
    int i = 0;
    while (i < 2500) {{
        acc = acc * {mult} + i;
        if (acc > 1000000) acc = acc % 1000003;
        i = i + 1;
    }}
    return acc;
}}
int main() {{
    int v = read_int();
    printf("out=%d\n", churn(v));
    return 0;
}}
"""

VARIANTS = [(31, 1), (37, 2), (41, 3), (43, 5)]

INPUT = [[9]]


class _Daemon:
    def __init__(self, store_root, workers):
        self.sockdir = tempfile.mkdtemp(prefix="repro-bench-")
        sock = os.path.join(self.sockdir, "d.sock")
        self.server = RecompileServer(
            sock, store=ArtifactStore(store_root), workers=workers)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        deadline = time.monotonic() + 10
        while not os.path.exists(sock):
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never bound its socket")
            time.sleep(0.02)
        self.client = ServeClient(sock, timeout=600)

    def close(self):
        try:
            self.client.shutdown()
        except Exception:
            pass
        self.thread.join(timeout=15)
        self.server.close()
        shutil.rmtree(self.sockdir, ignore_errors=True)


def _submit_concurrently(client, images):
    """All campaigns at once, one thread per image (as K clients
    would); returns responses in image order."""
    results = [None] * len(images)
    errors = []

    def one(i):
        try:
            results[i] = client.submit(
                image_json=images[i].to_json(), inputs=INPUT,
                campaign=f"camp{i}", return_artifact=True)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(i,), daemon=True)
               for i in range(len(images))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return results


def test_bench_sched_concurrent_distinct_campaigns(benchmark, tmp_path):
    """K=4 concurrent campaigns: pool vs single lock, byte-identical;
    warm resubmits are result-store hits."""
    images = [compile_source(SOURCE_TMPL.format(mult=m, bias=b),
                             "gcc12", "3", f"sched{m}")
              for m, b in VARIANTS]
    # Fork the pool before any job runs anywhere, so its workers start
    # from the state the serial daemon starts from.
    pool = _Daemon(tmp_path / "pool-store", workers=WORKERS)
    serial = _Daemon(tmp_path / "serial-store", workers=0)
    try:
        start = time.perf_counter()
        serial_results = _submit_concurrently(serial.client, images)
        serial_s = time.perf_counter() - start
        assert all(r["served"] == "cold" for r in serial_results)

        start = time.perf_counter()
        pool_results = benchmark.pedantic(
            lambda: _submit_concurrently(pool.client, images),
            rounds=1, iterations=1)
        pool_s = time.perf_counter() - start
        assert all(r["served"] == "cold" for r in pool_results)

        # Byte identity: worker processes and the in-process path must
        # produce the same artifact for the same image + inputs.
        for serial_r, pool_r in zip(serial_results, pool_results,
                                    strict=True):
            assert pool_r["artifact"] == serial_r["artifact"]
            assert pool_r["result_key"] == serial_r["result_key"]

        sched = pool.client.status()["sched"]
        assert sched["stats"]["completed"] == len(images)
        assert sched["stats"]["dispatched"] == len(images)

        # Warm sequential resubmission: every job is a result-store
        # hit with the same bytes, whichever worker runs it.
        for i, image in enumerate(images):
            warm = pool.client.submit(image_json=image.to_json(),
                                      inputs=INPUT, campaign=f"camp{i}",
                                      return_artifact=True)
            assert warm["served"] == "store"
            assert warm["artifact"] == pool_results[i]["artifact"]

        ncpu = os.cpu_count() or 1
        floor = 2.5 if ncpu >= 4 else (1.3 if ncpu >= 2 else 0.5)
        speedup = serial_s / pool_s
        benchmark.extra_info["ncpu"] = ncpu
        benchmark.extra_info["images"] = len(images)
        benchmark.extra_info["workers"] = WORKERS
        benchmark.extra_info["serial_seconds"] = serial_s
        benchmark.extra_info["pool_seconds"] = pool_s
        benchmark.extra_info["pool_speedup"] = speedup
        benchmark.extra_info["speedup_floor"] = floor
        assert speedup >= floor, (
            f"pool speedup {speedup:.2f}x < {floor}x on {ncpu} cores "
            f"(serial {serial_s:.2f}s, pool {pool_s:.2f}s)")
    finally:
        serial.close()
        pool.close()
