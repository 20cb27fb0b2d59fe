"""Back-end reuse across served requests: the ``backend`` store kind.

A request whose symbolized module has a stored module's key (the image
and the module's key text) loads the image O3 and lowering built for
it; any request that changes the module optimizes and lowers anew.
Either way the image equals a cold one-shot recompile of the same runs,
byte for byte.
"""

from pathlib import Path

import pytest

from repro import compile_source, wytiwyg_recompile
from repro.core import driver
from repro.core.incremental import incremental_recompile
from repro.errors import StaticCheckError, SymbolizeError
from repro.replay import engine
from repro.store import ArtifactStore

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: ``fill`` touches the first ``n`` words of its array; ``mode`` 2 runs
#: one more block, which touches no stack variable, and ``tag`` is only
#: printed.
SOURCE = r"""
int fill(int n) {
    int buf[16];
    int i;
    int sum;
    sum = 0;
    for (i = 0; i < n; i = i + 1) buf[i] = i * 3;
    for (i = 0; i < n; i = i + 1) sum = sum + buf[i];
    return sum;
}

int main() {
    int n = read_int();
    int mode = read_int();
    int tag = read_int();
    if (mode == 2) tag = tag * 7;
    printf("%d %d\n", tag, fill(n));
    return 0;
}
"""

BASE = [[4, 0, 5]]


@pytest.fixture(scope="module")
def image():
    return compile_source(SOURCE, "gcc12", "0", "extent")


@pytest.fixture
def optimize_calls(monkeypatch):
    """How many times the driver runs O3."""
    calls = []
    real = driver.optimize_module

    def optimize_module(module, options):
        calls.append(module)
        return real(module, options)

    monkeypatch.setattr(driver, "optimize_module", optimize_module)
    return calls


def _backend_keys(store):
    return {key for kind, key, *_ in store.entries() if kind == "backend"}


@pytest.mark.parametrize("added, reused, recorded, new_code", [
    ([4, 0, 5], True, 0, False),    # (a) an input the request has
    ([4, 0, 7], True, 1, False),    # (b) same path, same extent
    # (c) the array's bounds widen, but only over bytes the static
    # widening already gave the variable: the symbolized module is the
    # base's.
    ([6, 0, 5], True, 1, False),
    ([4, 2, 5], False, 1, True),    # (d) new code, and only that
], ids=["repeat", "same-extent", "wider-bounds", "new-code"])
def test_backend_reuse_follows_the_refinement(image, tmp_path,
                                              optimize_calls, added,
                                              reused, recorded, new_code):
    store = ArtifactStore(tmp_path / "store")
    base = incremental_recompile(image, BASE, store)
    assert not base.stats.backend_reused
    assert len(_backend_keys(store)) == 1
    del optimize_calls[:]

    runs = BASE + [added]
    served = incremental_recompile(image, runs, store)
    assert served.stats.served == "incremental"
    assert served.stats.traces_recorded == recorded
    assert served.stats.backend_reused is reused
    assert len(optimize_calls) == (0 if reused else 1)
    assert len(_backend_keys(store)) == (1 if reused else 2)
    # Only (d) reaches new code.  (c) differs from the base only in the
    # extent the bounds run observes.
    assert (served.coverage["executed"]
            > base.coverage["executed"]) is new_code

    cold = wytiwyg_recompile(image, runs)
    assert served.recovered.to_json() == cold.recovered.to_json()
    # The module's metadata is in its key, and lowering copies it into
    # the image: a stored image carries the metadata a cold one does.
    assert served.recovered.metadata == cold.recovered.metadata


def test_options_never_share_a_backend_record(image, tmp_path):
    store = ArtifactStore(tmp_path / "store")
    variants = ({}, {"optimize": False})
    for options in variants:
        served = incremental_recompile(image, BASE, store, **options)
        assert not served.stats.backend_reused, options
    assert len(_backend_keys(store)) == len(variants)
    # A repeated input misses the result but hits its own record.
    runs = BASE + BASE
    for options in variants:
        served = incremental_recompile(image, runs, store, **options)
        assert served.stats.backend_reused, options
        cold = wytiwyg_recompile(image, runs, **options)
        assert served.recovered.to_json() == cold.recovered.to_json()
    assert len(_backend_keys(store)) == len(variants)


def test_a_fallback_reads_and_writes_no_backend_record(image, tmp_path,
                                                      monkeypatch):
    def wytiwyg_lift(traces, **kwargs):
        raise SymbolizeError("symbolization broke")

    monkeypatch.setattr(driver, "wytiwyg_lift", wytiwyg_lift)
    store = ArtifactStore(tmp_path / "store")
    kinds = []
    for name in ("get", "put"):
        real = getattr(store, name)

        def traced(kind, *args, real=real):
            kinds.append(kind)
            return real(kind, *args)

        monkeypatch.setattr(store, name, traced)
    for runs in (BASE, BASE + BASE):
        served = incremental_recompile(image, runs, store)
        assert served.fallback
        assert not served.stats.backend_reused
    assert "backend" not in kinds
    assert _backend_keys(store) == set()


def test_a_one_shot_recompile_computes_no_store_key(image, monkeypatch):
    def no_key(*args):
        raise AssertionError("a one-shot recompile keyed the store")

    monkeypatch.setattr(driver, "image_key", no_key)
    monkeypatch.setattr(driver, "backend_key", no_key)
    monkeypatch.setattr(engine, "module_text", no_key)
    monkeypatch.setattr(engine, "module_key", no_key)
    monkeypatch.setattr(engine, "lifted_module_key", no_key)
    monkeypatch.setattr(engine, "instrumented_module_key", no_key)
    monkeypatch.setattr(engine, "replay_keys", no_key)
    result = wytiwyg_recompile(image, BASE)
    assert not result.backend_reused


def test_the_strict_gate_fires_over_a_matching_record(tmp_path):
    under = compile_source((EXAMPLES / "undertrace.c").read_text(),
                           "gcc12", "3", "undertrace")
    store = ArtifactStore(tmp_path / "store")
    incremental_recompile(under, [[3]], store)
    # The record matches: the plain gate passes warnings through, and
    # its request loads the stored image.
    assert incremental_recompile(under, [[3]], store,
                                 check=True).stats.backend_reused
    with pytest.raises(StaticCheckError, match="uninit-read"):
        incremental_recompile(under, [[3]], store, check="strict")
