"""Incremental re-lifting through the artifact store (paper §7.2).

Promotes ``examples/incremental_lifting.py`` into assertions: a partial
trace traps on the rare path, adding the input re-lifts, and the
re-lift reuses the per-input traces it already has (store hits); an
identical resubmission is served from the store, and never across a
change of the environment switches that shape the artifact.
"""

from pathlib import Path

import pytest

from repro import compile_source, obs, run_binary, wytiwyg_recompile
from repro.core.incremental import (
    JobStats,
    gather_traces,
    incremental_recompile,
)
from repro.emu import trace_binary
from repro.errors import StaticCheckError
from repro.store import ArtifactStore, image_key

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

SOURCE = r"""
int score(int kind, int value) {
    if (kind == 0) return value * 2;
    if (kind == 1) return value + 100;
    return -value;             /* the rare path */
}

int main() {
    int kind = read_int();
    int value = read_int();
    printf("score=%d\n", score(kind, value));
    return 0;
}
"""

#: Exit codes of the coverage trap the recompiled binary aborts with.
TRAP_CODES = (198, 199)

FULL_RUNS = [[0, 7], [1, 7], [2, 5]]
EXPECTED = {(0, 7): b"score=14\n", (1, 7): b"score=107\n",
            (2, 5): b"score=-5\n"}


@pytest.fixture(scope="module")
def image():
    return compile_source(SOURCE, "gcc12", "3", "incremental")


@pytest.fixture(autouse=True)
def _obs_off():
    yield
    obs.disable_ledger()
    obs.disable()


def test_partial_coverage_traps_then_relift_repairs(image, tmp_path):
    store = ArtifactStore(tmp_path / "store")

    # Job 1: only the kind=0 path traced.
    partial = incremental_recompile(image, [[0, 7]], store)
    assert partial.stats.served == "cold"
    assert partial.stats.traces_recorded == 1
    ok = run_binary(partial.recovered, [0, 7])
    assert ok.stdout == b"score=14\n"

    # The untraced path aborts with the trap instead of computing
    # garbage — and prints nothing before doing so.
    surprise = run_binary(partial.recovered, [2, 5])
    assert surprise.exit_code in TRAP_CODES
    assert surprise.stdout == b""

    # Job 2: add the inputs and re-lift; coverage is repaired.
    full = incremental_recompile(image, FULL_RUNS, store)
    for items, expected in EXPECTED.items():
        assert run_binary(full.recovered, list(items)).stdout == expected
    # The already-traced input came back as a store hit.
    assert full.stats.served == "incremental"
    assert full.stats.traces_reused == 1
    assert full.stats.traces_recorded == 2


def test_relift_reuses_known_traces(image, tmp_path):
    store = ArtifactStore(tmp_path / "store")
    incremental_recompile(image, [[0, 7], [1, 7]], store)

    # Adding one input: the two known traces are store hits, only the
    # new one is recorded.
    obs.enable(reset=True)
    try:
        served = incremental_recompile(image, FULL_RUNS, store)
        counters = dict(obs.recorder().registry.counters)
    finally:
        obs.disable()
    assert served.stats.served == "incremental"
    assert served.stats.traces_reused == 2
    assert served.stats.traces_recorded == 1
    assert counters.get("store.hit", 0) >= 2

    # An identical resubmission is a pure result hit.
    again = incremental_recompile(image, FULL_RUNS, store)
    assert again.stats.served == "store"
    assert again.stats.traces_recorded == 0


def test_incremental_result_is_byte_identical_to_cold(image, tmp_path):
    store = ArtifactStore(tmp_path / "store")
    incremental_recompile(image, [[0, 7]], store)
    warm = incremental_recompile(image, FULL_RUNS, store)

    # A cold one-shot run must produce the same bytes.
    cold = wytiwyg_recompile(image, [list(r) for r in FULL_RUNS])
    assert warm.recovered.to_json() == cold.recovered.to_json()

    # And the store-served copy of the same result is identical again.
    replay = incremental_recompile(image, FULL_RUNS, store)
    assert replay.stats.served == "store"
    assert replay.recovered.to_json() == cold.recovered.to_json()


def _example_image(name):
    return compile_source((EXAMPLES / f"{name}.c").read_text(), "gcc12",
                          "3", name)


def test_result_key_holds_the_check_mode(tmp_path):
    """An entry written with the gate off is never served to a request
    that arms it: the gate still fires.  Widening closes the coverage
    gap, and the uninit-read warning survives it."""
    store = ArtifactStore(tmp_path / "store")
    under = _example_image("undertrace")
    off = incremental_recompile(under, [[3]], store)
    with pytest.raises(StaticCheckError, match="uninit-read"):
        incremental_recompile(under, [[3]], store, check="strict")
    # The plain gate passes warnings through, under its own key.
    on = incremental_recompile(under, [[3]], store, check=True)
    assert on.stats.served != "store"
    assert on.result_key != off.result_key
    assert incremental_recompile(under, [[3]], store).stats.served \
        == "store"


#: One printf site whose argument count depends on the input.
VARIADIC_SOURCE = r"""
int main() {
    int k = read_int();
    char *fmt = k ? "%d %d %d\n" : "%d\n";
    printf(fmt, 1, 2, 3);
    return 0;
}
"""


def test_gathered_vararg_counts_match_a_fresh_trace(tmp_path):
    image = compile_source(VARIADIC_SOURCE, "gcc12", "0", "variadic")
    store = ArtifactStore(tmp_path / "store")
    # Records [0]; reuses [0] and records [1]; reuses both.
    for runs, reused, recorded, count in (([[0]], 0, 1, 2),
                                          ([[0], [1]], 1, 1, 4),
                                          ([[1], [0]], 2, 0, 4)):
        stats = JobStats()
        traces = gather_traces(image, runs, store, image_key(image), stats)
        assert (stats.traces_reused, stats.traces_recorded) \
            == (reused, recorded)
        assert traces.vararg_counts == trace_binary(image,
                                                    runs).vararg_counts
        assert list(traces.vararg_counts.values()) == [count]
