"""ArtifactStore: keys, atomic writes, corruption, campaigns."""

import json
import logging
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro import store as store_module
from repro.core.regsave import RegSaveResult
from repro.emu.machine import RunResult
from repro.emu.tracer import TraceSet, Transfer
from repro.errors import StoreError
from repro.store import (
    ArtifactStore,
    Campaign,
    atomic_write_bytes,
    decode_items,
    decode_runs,
    encode_items,
    encode_runs,
    image_key,
    instrumented_module_key,
    lifted_module_key,
    options_tag,
    replay_keys,
    result_key,
    trace_key,
)

SRC = Path(__file__).resolve().parents[2] / "src"


class _FakeImage:
    def __init__(self, text):
        self._text = text

    def to_json(self):
        return self._text


@pytest.fixture(autouse=True)
def _obs_off():
    yield
    obs.disable_ledger()
    obs.disable()


# -- keys ----------------------------------------------------------------

def test_image_key_tracks_content():
    a = image_key(_FakeImage('{"x": 1}'))
    b = image_key(_FakeImage('{"x": 1}'))
    c = image_key(_FakeImage('{"x": 2}'))
    assert a == b
    assert a != c
    assert len(a) == 32


def test_trace_key_separates_inputs_and_cost_model():
    base = trace_key("img", [1, 2])
    assert trace_key("img", [1, 2]) == base
    assert trace_key("img", [2, 1]) != base
    assert trace_key("img", [1, 2], costs="alt") != base
    assert trace_key("other", [1, 2]) != base


def test_trace_key_tracks_the_trace_schema(monkeypatch):
    # Records of an older schema lack newer fields: they must miss,
    # while image keys (which campaigns persist) stay put.
    base = trace_key("img", [1, 2])
    image = image_key(_FakeImage('{"x": 1}'))
    monkeypatch.setattr(store_module, "TRACE_SCHEMA", "old")
    assert trace_key("img", [1, 2]) != base
    assert image_key(_FakeImage('{"x": 1}')) == image


def test_result_key_is_order_sensitive():
    opts = options_tag(optimize=True)
    base = result_key("img", [[1], [2]], opts)
    assert result_key("img", [[1], [2]], opts) == base
    assert result_key("img", [[2], [1]], opts) != base
    assert result_key("img", [[1], [2]], options_tag(optimize=False)) != base


def test_replay_keys_cover_each_prefix_in_order():
    keys = replay_keys("mod", "lifting", [[1], [2], [3]])
    assert len(keys) == len(set(keys)) == 3
    # A longer list's keys extend a shorter one's.
    assert replay_keys("mod", "lifting", [[1], [2]]) == keys[:2]
    assert replay_keys("mod", "lifting", [[2], [1]])[1] != keys[1]
    assert replay_keys("mod", "bounds", [[1]])[0] != keys[0]
    assert replay_keys("other", "lifting", [[1]])[0] != keys[0]


#: Two traced runs' records: (input, transfers, executed, vararg
#: counts).
RUN_A = ([1], {Transfer(0x10, 0x20, "call"), Transfer(0x24, 0x14, "ret"),
               Transfer(0x14, 0x30, "jump")}, {0x10, 0x14, 0x20, 0x24},
         {0x18: 2})
RUN_B = ([2], {Transfer(0x10, 0x20, "call"), Transfer(0x14, 0x40, "jump"),
               Transfer(0x40, 0x44, "fallthrough")}, {0x10, 0x14, 0x40},
         {0x18: 3, 0x44: 1})


def _traces(*runs) -> TraceSet:
    traces = TraceSet(image=None)
    for items, transfers, executed, counts in runs:
        traces.absorb(set(transfers), set(executed), dict(counts),
                      RunResult(0, b"", 1, 1), items)
    return traces


def _classification(**changes) -> RegSaveResult:
    fields = {"args": {"f": {"eax", "ecx"}, "g": set()},
              "outputs": {"f": {"eax"}, "g": {"eax", "edx"}},
              "indirect_targets": {"g"}}
    fields.update(changes)
    return RegSaveResult(**fields)


def test_the_lifted_key_tracks_the_coverage_the_lifter_reads():
    base = lifted_module_key("img", _traces(RUN_A))
    assert lifted_module_key("img", _traces(RUN_A)) == base
    assert lifted_module_key("other", _traces(RUN_A)) != base
    items, transfers, executed, counts = RUN_A
    for run in ((items, transfers | {Transfer(0x20, 0x24, "fallthrough")},
                 executed, counts),
                (items, transfers, executed | {0x28}, counts),
                (items, transfers, executed, {0x18: 3})):
        assert lifted_module_key("img", _traces(run)) != base
    # A transfer's kind counts, not only its ends.
    kinds = {Transfer(t.src, t.dst, "jump" if t.kind == "call" else t.kind)
             for t in transfers}
    assert lifted_module_key(
        "img", _traces((items, kinds, executed, counts))) != base


def test_the_lifted_key_is_the_same_for_equal_coverage_in_any_order():
    forward = _traces(RUN_A, RUN_B)
    backward = _traces(RUN_B, RUN_A)
    assert forward.inputs != backward.inputs
    assert lifted_module_key("img", forward) \
        == lifted_module_key("img", backward)
    # Inputs that add no coverage leave the key as it was.
    assert lifted_module_key("img", _traces(RUN_A, RUN_B, RUN_A)) \
        == lifted_module_key("img", forward)


def test_the_instrumented_key_tracks_the_classification():
    base = instrumented_module_key("lifted", _classification())
    assert instrumented_module_key("lifted", _classification()) == base
    assert instrumented_module_key("other", _classification()) != base
    changed = (
        {"args": {"f": {"eax"}, "g": set()}},              # out of args
        {"args": {"f": {"eax", "ecx"}, "g": {"ebx"}}},     # into args
        {"outputs": {"f": {"eax", "ecx"}, "g": {"eax", "edx"}}},
        {"outputs": {"f": {"eax"}, "g": {"edx"}}},
        {"indirect_targets": {"g", "f"}},
        # A function classified with no register is still planned.
        {"args": {"f": {"eax", "ecx"}}},
    )
    for change in changed:
        assert instrumented_module_key(
            "lifted", _classification(**change)) != base, change
    # Equal classifications, whatever order their sets were built in.
    assert instrumented_module_key("lifted", _classification(
        args={"g": set(), "f": {"ecx", "eax"}},
        outputs={"g": {"edx", "eax"}, "f": {"eax"}})) == base


#: Prints both new keys of the runs in ``argv[1]``, and the order the
#: merged transfers iterate in.
_KEYS_SCRIPT = """
import json
import sys
from repro.core.regsave import RegSaveResult
from repro.emu.machine import RunResult
from repro.emu.tracer import TraceSet, Transfer
from repro.errors import StoreError
from repro.store import instrumented_module_key, lifted_module_key
traces = TraceSet(image=None)
for n, (transfers, executed, counts) in enumerate(json.loads(sys.argv[1])):
    traces.absorb({Transfer(*t) for t in transfers}, set(executed),
                  {int(k): v for k, v in counts.items()},
                  RunResult(0, b"", 1, 1), [n])
lifted = lifted_module_key("img", traces)
classification = RegSaveResult(
    args={"fn_%d" % i: {"eax", "ecx", "edx", "ebx"} for i in range(8)},
    outputs={"fn_%d" % i: {"eax", "esi", "edi"} for i in range(8)},
    indirect_targets={"fn_%d" % i for i in range(0, 8, 2)})
print(json.dumps({
    "lifted": lifted,
    "instrumented": instrumented_module_key(lifted, classification),
    "order": [[t.src, t.dst, t.kind] for t in traces.transfers],
}))
"""


def test_both_keys_are_the_same_under_any_hash_seed():
    kinds = ("call", "ret", "jump", "fallthrough", "import")
    runs = [[[[src, src + 4 * k, kind] for k, kind in enumerate(kinds)
              for src in range(0x100, 0x180, 8)],
             list(range(0x100, 0x180, 4)), {"280": 3}]]
    docs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-c", _KEYS_SCRIPT, json.dumps(runs)],
            env=env, capture_output=True, text=True, check=True)
        docs.append(json.loads(out.stdout))
    first, second = docs
    # The transfer set iterates in another order under each seed ...
    assert first["order"] != second["order"]
    # ... and the keys do not see it.
    assert first["lifted"] == second["lifted"]
    assert first["instrumented"] == second["instrumented"]


def test_options_tag_is_canonical():
    assert options_tag(b=2, a=1) == options_tag(a=1, b=2)
    assert options_tag(a=1) != options_tag(a=2)


def test_items_encode_round_trips_bytes_and_ints():
    items = [3, b"hi\xff", 0]
    assert decode_items(encode_items(items)) == items
    runs = [[1, b"x"], [2]]
    assert decode_runs(encode_runs(runs)) == runs
    # The encoded form must be plain JSON values.
    import json
    json.dumps(encode_runs(runs))


# -- atomic writes -------------------------------------------------------

def test_atomic_write_creates_parents_and_leaves_no_temps(tmp_path):
    target = tmp_path / "deep" / "entry.bin"
    atomic_write_bytes(target, b"one")
    assert target.read_bytes() == b"one"
    atomic_write_bytes(target, b"two")
    assert target.read_bytes() == b"two"
    leftovers = [p for p in target.parent.iterdir() if p != target]
    assert leftovers == []


def test_atomic_write_failure_cleans_up_temp(tmp_path, monkeypatch):
    target = tmp_path / "entry.bin"
    import repro.store as store_mod

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(store_mod.os, "replace", boom)
    with pytest.raises(OSError):
        atomic_write_bytes(target, b"payload")
    assert list(tmp_path.iterdir()) == []


# -- the store -----------------------------------------------------------

def test_round_trip_counters_and_events(tmp_path):
    store = ArtifactStore(tmp_path)
    obs.enable(reset=True)
    led = obs.enable_ledger()
    assert store.get("trace", "absent") is None
    store.put("trace", "k", {"payload": 42})
    assert store.get("trace", "k") == {"payload": 42}
    counters = dict(obs.recorder().registry.counters)
    assert counters == {"store.miss": 1, "store.put": 1, "store.hit": 1}
    kinds = [e["kind"] for e in led.events]
    assert kinds == ["store.miss", "store.put", "store.hit"]
    assert all(e["store"] == "store" for e in led.events)
    assert all(e["artifact"] == "trace" for e in led.events)
    assert store.stats == {"hit": 1, "miss": 1, "put": 1, "corrupt": 0,
                           "evicted": 0}


def test_corrupt_entry_recomputes_with_warning(tmp_path, caplog):
    store = ArtifactStore(tmp_path)
    store.put("trace", "k", {"payload": 42})
    store._path("trace", "k").write_bytes(b"\x80\x04 not a pickle")
    with caplog.at_level(logging.WARNING, logger="repro.store"):
        assert store.get("trace", "k") is None
    assert store.stats["corrupt"] == 1
    assert any("corrupt store entry" in r.getMessage()
               for r in caplog.records)


def test_truncated_entry_counts_as_corrupt_and_recomputes(tmp_path, caplog):
    store = ArtifactStore(tmp_path)
    store.put("trace", "k", {"payload": list(range(100))})
    path = store._path("trace", "k")
    path.write_bytes(path.read_bytes()[:20])
    with caplog.at_level(logging.WARNING, logger="repro.store"):
        assert store.get("trace", "k") is None
    assert store.stats["corrupt"] == 1
    assert any("corrupt store entry" in r.getMessage()
               for r in caplog.records)
    store.put("trace", "k", {"payload": 1})
    assert store.get("trace", "k") == {"payload": 1}


def test_ensure_root_creates_a_missing_root(tmp_path):
    store = ArtifactStore(tmp_path / "a" / "store")
    store.ensure_root()
    assert store.root.is_dir()
    store.ensure_root()     # an existing directory is fine


@pytest.mark.parametrize("root, reason", [
    ("afile", "it exists and is not a directory"),
    ("afile/store", "it cannot be created"),
], ids=["a-file", "under-a-file"])
def test_a_root_that_is_not_a_usable_directory_is_refused(tmp_path, root,
                                                          reason):
    (tmp_path / "afile").write_text("not a store")
    store = ArtifactStore(tmp_path / root)
    with pytest.raises(StoreError, match=reason) as refused:
        store.ensure_root()
    assert str(tmp_path / root) in str(refused.value)


def test_an_entry_that_does_not_open_is_an_error_not_corruption(
        tmp_path, caplog):
    # Under a root that is a regular file, no entry or campaign file
    # opens: that is one typed error naming the file, not a corrupt
    # entry to recompute or a campaign to start afresh.
    (tmp_path / "afile").write_text("not a store")
    store = ArtifactStore(tmp_path / "afile")
    with caplog.at_level(logging.WARNING, logger="repro.store"):
        with pytest.raises(StoreError, match="cannot read store entry") \
                as refused:
            store.get("trace", "k")
        with pytest.raises(StoreError, match="cannot write store entry"):
            store.put("trace", "k", {"payload": 42})
        with pytest.raises(StoreError, match="cannot read campaign file"):
            store.load_campaign("demo")
        with pytest.raises(StoreError, match="cannot write campaign file"):
            store.save_campaign(Campaign(name="demo", image_key="k"))
    assert str(store._path("trace", "k")) in str(refused.value)
    assert store.stats["corrupt"] == 0
    assert caplog.records == []


def test_env_var_picks_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envroot"))
    store = ArtifactStore()
    assert store.root == tmp_path / "envroot"


def test_kinds_live_in_separate_namespaces(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("trace", "k", "a trace")
    store.put("result", "k", "a result")
    assert store.get("trace", "k") == "a trace"
    assert store.get("result", "k") == "a result"


def test_put_is_pickled_payload(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("trace", "k", {"x": 1})
    raw = store._path("trace", "k").read_bytes()
    assert pickle.loads(raw) == {"x": 1}


# -- eviction / GC -------------------------------------------------------

def _put_sized(store, kind, key, size, mtime):
    """One artifact of a known on-disk size with a forced mtime."""
    import os
    store.put(kind, key, b"x" * size)
    os.utime(store._path(kind, key), (mtime, mtime))


def test_gc_evicts_least_recently_used_first(tmp_path):
    store = ArtifactStore(tmp_path)
    # Three same-size entries, oldest first; sizes are pickled so read
    # the real footprint back for the cap arithmetic.
    for i, key in enumerate(["old", "mid", "new"]):
        _put_sized(store, "result", key, 1000, 1000.0 + i)
    per_entry = store._path("result", "old").stat().st_size
    summary = store.gc(max_bytes=2 * per_entry)
    assert [e["key"] for e in summary["evicted_entries"]] == ["old"]
    assert not store.contains("result", "old")
    assert store.contains("result", "mid")
    assert store.contains("result", "new")
    assert summary["after_bytes"] == 2 * per_entry
    assert store.stats["evicted"] == 1


def test_gc_hit_refreshes_lru_order(tmp_path):
    store = ArtifactStore(tmp_path)
    for i, key in enumerate(["a", "b"]):
        _put_sized(store, "result", key, 1000, 1000.0 + i)
    # Using "a" makes "b" the LRU entry despite its later write.
    assert store.get("result", "a") is not None
    per_entry = store._path("result", "a").stat().st_size
    summary = store.gc(max_bytes=per_entry)
    assert [e["key"] for e in summary["evicted_entries"]] == ["b"]
    assert store.contains("result", "a")


def test_gc_pins_campaign_sources_and_traces(tmp_path):
    store = ArtifactStore(tmp_path)
    campaign = Campaign("demo", "imgkey", inputs=[[1, 2]])
    store.save_campaign(campaign)
    tkey = trace_key("imgkey", [1, 2])
    _put_sized(store, "source", "imgkey", 1000, 1000.0)
    _put_sized(store, "trace", tkey, 1000, 1001.0)
    _put_sized(store, "trace", "unpinned", 1000, 1002.0)
    _put_sized(store, "result", "recomputable", 1000, 1003.0)
    # A zero cap forces eviction of everything evictable — the
    # campaign's source and trace must survive even though they are
    # the oldest entries.
    summary = store.gc(max_bytes=0)
    assert store.contains("source", "imgkey")
    assert store.contains("trace", tkey)
    assert not store.contains("trace", "unpinned")
    assert not store.contains("result", "recomputable")
    assert summary["pinned_kept"] == 2
    assert summary["evicted"] == 2
    # Without pinning, campaign artifacts are fair game.
    store.gc(max_bytes=0, pin_campaigns=False)
    assert not store.contains("source", "imgkey")
    assert not store.contains("trace", tkey)


def test_gc_dry_run_deletes_nothing_and_counts_nothing(tmp_path):
    store = ArtifactStore(tmp_path)
    obs.enable(reset=True)
    led = obs.enable_ledger()
    _put_sized(store, "result", "k", 1000, 1000.0)
    summary = store.gc(max_bytes=0, dry_run=True)
    assert summary["dry_run"] is True
    assert [e["key"] for e in summary["evicted_entries"]] == ["k"]
    assert store.contains("result", "k")
    assert store.stats["evicted"] == 0
    assert "store.evicted" not in obs.recorder().registry.counters
    assert all(e["kind"] != "store.evicted" for e in led.events)


def test_gc_emits_evicted_counter_and_event(tmp_path):
    store = ArtifactStore(tmp_path)
    _put_sized(store, "result", "k", 1000, 1000.0)
    obs.enable(reset=True)
    led = obs.enable_ledger()
    store.gc(max_bytes=0)
    assert obs.recorder().registry.counters["store.evicted"] == 1
    evicted = [e for e in led.events if e["kind"] == "store.evicted"]
    assert len(evicted) == 1
    assert evicted[0]["artifact"] == "result"
    assert evicted[0]["key"] == "k"
    assert evicted[0]["bytes"] > 0


def test_gc_noop_under_cap(tmp_path):
    store = ArtifactStore(tmp_path)
    _put_sized(store, "result", "k", 100, 1000.0)
    summary = store.gc(max_bytes=1 << 20)
    assert summary["evicted"] == 0
    assert summary["before_bytes"] == summary["after_bytes"]
    assert store.contains("result", "k")


# -- campaigns -----------------------------------------------------------

def test_campaign_add_inputs_dedups_in_order():
    campaign = Campaign("demo", "imgkey")
    added = campaign.add_inputs([[1, 2], [3]])
    assert added == [[1, 2], [3]]
    added = campaign.add_inputs([[3], [4], [1, 2]])
    assert added == [[4]]
    assert campaign.inputs == [[1, 2], [3], [4]]


def test_campaign_round_trip(tmp_path):
    store = ArtifactStore(tmp_path)
    campaign = Campaign("demo", "imgkey", inputs=[[1, b"x"]], jobs=3,
                        coverage={"executed": 10})
    store.save_campaign(campaign)
    loaded = store.load_campaign("demo")
    assert loaded == campaign
    assert store.list_campaigns() == ["demo"]
    assert store.load_campaign("absent") is None


def test_campaign_name_is_sanitized(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save_campaign(Campaign("a/b c", "imgkey"))
    path = store._campaign_path("a/b c")
    assert path.exists()
    assert "/" not in path.stem and " " not in path.stem


def test_corrupt_campaign_starts_fresh(tmp_path, caplog):
    store = ArtifactStore(tmp_path)
    store.save_campaign(Campaign("demo", "imgkey"))
    store._campaign_path("demo").write_text("{not json")
    with caplog.at_level(logging.WARNING, logger="repro.store"):
        assert store.load_campaign("demo") is None
    assert any("corrupt campaign" in r.getMessage()
               for r in caplog.records)
