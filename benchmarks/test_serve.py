"""Service benches: the artifact store and the recompilation daemon.

Runs as the fourth ``tools/bench.sh`` pass and lands in
``BENCH_serve.json``.  Two scenarios, both through the real daemon
(an in-thread :class:`~repro.serve.RecompileServer` on a Unix socket):

* **Warm campaign vs cold one-shots** — a four-submission campaign
  replayed against a warm store is served entirely from result hits
  and must be at least 3x faster than the same work as cold one-shot
  ``wytiwyg_recompile`` calls, with byte-identical artifacts.
* **Incremental input addition** — adding one input to a warm
  campaign re-traces only that input (store hits for the rest) and
  must beat the cold one-shot over the full input set.
"""

import os
import shutil
import tempfile
import threading
import time

import pytest

from repro import compile_source, obs, wytiwyg_recompile
from repro.serve import RecompileServer, ServeClient
from repro.store import ArtifactStore

pytestmark = pytest.mark.bench

SOURCE = r"""
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int gcd(int a, int b) { while (b) { int t = a % b; a = b; b = t; } return a; }
int rev(int x) { int r = 0; while (x) { r = r * 10 + x % 10; x /= 10; } return r; }
int weight(int v) { int w = 0; while (v) { w += v % 10; v /= 10; } return w; }
int mix(int seed, int rounds) {
    int acc = seed;
    for (int i = 0; i < rounds; i++) {
        acc = acc * 31 + i;
        if (acc > 1000000) acc = acc % 1000003;
    }
    return acc;
}
int score(int kind, int value) {
    if (kind == 0) return value * 2;
    if (kind == 1) return value + 100;
    return -value;
}
int dispatch(int kind, int value) {
    switch (kind) {
    case 0: return score(0, value);
    case 1: return score(1, value) + weight(value);
    case 2: return fib(value % 20);
    case 3: return gcd(value, 252);
    case 4: return rev(value);
    default: return mix(value, 25);
    }
}
int main() {
    int kind = read_int();
    int value = read_int();
    printf("out=%d\n", dispatch(kind, value));
    return 0;
}
"""

#: Each submission adds one input run to the campaign.
SUBMISSIONS = [[0, 7]], [[1, 93]], [[2, 9]], [[3, 84]]

#: A wider traced base for the input-addition bench: re-tracing these
#: is the bulk of what a cold one-shot pays and a warm request skips.
BASE_INPUTS = [[0, 7], [1, 93], [2, 18], [2, 16], [3, 84], [5, 12345]]


def _cold_oneshot(image, runs):
    """One-shot recompile exactly as ``repro recompile`` would run it:
    no store."""
    return wytiwyg_recompile(image, [list(r) for r in runs])


class _Daemon:
    def __init__(self, store_root):
        self.sockdir = tempfile.mkdtemp(prefix="repro-bench-")
        sock = os.path.join(self.sockdir, "d.sock")
        self.server = RecompileServer(sock, store=ArtifactStore(store_root))
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
        self.thread.join(timeout=10)
        self.server.close()
        shutil.rmtree(self.sockdir, ignore_errors=True)


def test_bench_serve_warm_campaign_vs_cold_oneshots(benchmark, tmp_path):
    """A replayed campaign is all result hits: >= 3x over cold."""
    image = compile_source(SOURCE, "gcc12", "3", "servebench")
    daemon = _Daemon(tmp_path / "store")
    client = daemon.client
    try:
        def run_campaign():
            last = None
            for runs in SUBMISSIONS:
                last = client.submit(image_json=image.to_json(),
                                     inputs=[list(r) for r in runs],
                                     campaign="bench",
                                     return_artifact=True)
            return last

        first = run_campaign()  # populates store + campaign state
        assert first["served"] in ("cold", "incremental")

        start = time.perf_counter()
        warm = benchmark.pedantic(run_campaign, rounds=1, iterations=1)
        warm_s = time.perf_counter() - start
        assert warm["served"] == "store"
        assert warm["stats"]["traces_recorded"] == 0

        # The same work as N cold one-shot recompiles over the
        # accumulated input sets the campaign jobs actually ran.
        accumulated = []
        cold_s = 0.0
        cold_final = None
        for runs in SUBMISSIONS:
            accumulated.extend(runs)
            start = time.perf_counter()
            cold_final = _cold_oneshot(image, accumulated)
            cold_s += time.perf_counter() - start

        assert warm["artifact"] == cold_final.recovered.to_json()
        speedup = cold_s / warm_s
        benchmark.extra_info["submissions"] = len(SUBMISSIONS)
        benchmark.extra_info["cold_seconds"] = cold_s
        benchmark.extra_info["warm_seconds"] = warm_s
        benchmark.extra_info["warm_speedup"] = speedup
        assert speedup >= 3.0, (
            f"warm campaign speedup {speedup:.2f}x < 3x "
            f"(cold {cold_s:.2f}s, warm {warm_s:.3f}s)")
    finally:
        daemon.close()


def test_bench_serve_incremental_input_addition(benchmark, tmp_path):
    """Adding one input re-traces one input; the request beats a cold
    one-shot over the full set."""
    image = compile_source(SOURCE, "gcc12", "3", "servebench")
    daemon = _Daemon(tmp_path / "store")
    client = daemon.client
    base = [list(r) for r in BASE_INPUTS]
    counted = [4, 921]   # first addition: newly covers rev()
    timed = [4, 15243]   # second addition: rev() again, no new coverage
    try:
        client.submit(image_json=image.to_json(), inputs=base,
                      campaign="bench")  # warm store

        # First addition, instrumented: assert what got reused.
        obs.enable(reset=True)
        try:
            checked = client.submit(inputs=[counted], campaign="bench")
            counters = dict(obs.recorder().registry.counters)
        finally:
            obs.disable()
        assert checked["served"] == "incremental"
        assert checked["stats"]["traces_recorded"] == 1
        assert checked["stats"]["traces_reused"] == len(base)
        assert counters.get("store.hit", 0) >= len(base)

        # Second addition, uninstrumented: the timing comparison.
        start = time.perf_counter()
        warm = benchmark.pedantic(
            lambda: client.submit(inputs=[timed], campaign="bench",
                                  return_artifact=True),
            rounds=1, iterations=1)
        warm_s = time.perf_counter() - start
        assert warm["served"] == "incremental"
        assert warm["stats"]["traces_recorded"] == 1
        assert warm["stats"]["traces_reused"] == len(base) + 1

        full = base + [counted, timed]
        start = time.perf_counter()
        cold = _cold_oneshot(image, full)
        cold_s = time.perf_counter() - start
        assert warm["artifact"] == cold.recovered.to_json()

        speedup = cold_s / warm_s
        benchmark.extra_info["inputs"] = len(full)
        benchmark.extra_info["cold_seconds"] = cold_s
        benchmark.extra_info["warm_seconds"] = warm_s
        benchmark.extra_info["incremental_speedup"] = speedup
        benchmark.extra_info["traces_reused"] = warm["stats"]["traces_reused"]
        assert speedup >= 1.2, (
            f"incremental addition speedup {speedup:.2f}x < 1.2x "
            f"(cold {cold_s:.2f}s, warm {warm_s:.3f}s)")
    finally:
        daemon.close()
