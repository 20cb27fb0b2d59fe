"""repro.store — the content-addressed artifact store.

One keyed, on-disk store for every expensive artifact the pipeline
produces: per-input traces, replay-stage states, back-end images and
full job results.  An artifact's key is a digest of exactly the content
that determines it — a hit is valid by construction and nothing ever
needs manual invalidation.

Key model (full table in DESIGN.md).  A *module key* addresses one
module built from an image, and the ``replay`` and ``backend`` kinds
are both keyed on one.  The first two replay stages key their module on
what built it, without reading the module: the lifted module
(:func:`lifted_module_key`) on the image and the trace coverage, the
instrumented one (:func:`instrumented_module_key`) on the lifted key and
the §4.1 classification.  The symbolized module, which the final sweep
runs and the back end compiles, is keyed on its key text
(:func:`module_key` of :func:`repro.replay.engine.module_text`), so
that different bounds observations that symbolize alike share one key:

==========  ============================================================
kind        keyed on
==========  ============================================================
trace       image content + one input run + cost-model tag + trace
            schema
replay      module key of the module a replay stage runs + the stage +
            the ordered distinct inputs it observed; holds the stage's
            cross-run state after their checked runs
backend     module key of the symbolized module + ``optimize``; holds
            the image O3 and lowering build from that module
result      image content + ordered input runs + pipeline options tag
source      image content (the submitted image itself, for campaign
            resubmission without re-uploading)
==========  ============================================================

Kinds are open-ended (each is a subdirectory); the table lists the
canonical ones used by :mod:`repro.core.incremental` and
:mod:`repro.serve`.

Keys pin the content an artifact is computed from, not the code that
computes it: like a ``result``, a ``replay`` or ``backend`` record
written before a change to the lifter, the refinements,
canonicalization, the instrumentation, the interpreter, the optimizer
or the lowering is still served after it.  After such a change, start
from an empty store.

Writes are **atomic**: the entry is written to a temp file in the same
directory, fsynced, and moved into place with :func:`os.replace`, so a
reader racing a writer sees either the old entry or the new one —
never a torn pickle.  Concurrent writers (scheduler workers, several
serve jobs) therefore share one store safely; last writer wins, and
both wrote the same bytes anyway because the key pins the content.

Observability: counters ``store.hit`` / ``store.miss`` / ``store.put``
/ ``store.corrupt`` and ledger events ``store.hit`` / ``store.miss`` /
``store.put`` carrying the artifact kind and key, so ``repro obs diff``
can compare warm and cold service runs.  Each store instance also
tracks in-process :attr:`ArtifactStore.stats` for callers (the serve
status op, tests) that do not want to arm the global recorder.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path

from . import obs
from .emu.tracer import TRACE_SCHEMA
from .errors import ServeError, StoreError

__all__ = [
    "ArtifactStore",
    "Campaign",
    "atomic_write_bytes",
    "backend_key",
    "decode_items",
    "decode_runs",
    "encode_items",
    "encode_runs",
    "image_key",
    "instrumented_module_key",
    "lifted_module_key",
    "module_key",
    "options_tag",
    "replay_keys",
    "result_key",
    "trace_key",
]

log = logging.getLogger("repro.store")

#: Bump to orphan every existing entry after a format change.
STORE_FORMAT = "v1"

#: Thread-unique suffix source for temp names (fork-safe together with
#: the pid component — a forked child starts from the inherited value
#: but writes under its own pid).
_TMP_SEQ = itertools.count()


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically.

    The bytes land in a temp file *in the same directory* (so the final
    :func:`os.replace` cannot cross a filesystem boundary), are flushed
    and fsynced, and are moved into place in one step.  A concurrent
    reader observes either the previous entry or the complete new one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{next(_TMP_SEQ)}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


# -- keys ----------------------------------------------------------------

def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    h.update(STORE_FORMAT.encode())
    return h.hexdigest()[:32]


def image_key(image) -> str:
    """Digest of a binary image's full serialized content."""
    return _digest("image", image.to_json())


def trace_key(img_key: str, items, costs: str = "default") -> str:
    """Digest addressing the trace of one input run of one image, in
    the current trace schema (:data:`~repro.emu.tracer.TRACE_SCHEMA`)."""
    return _digest("trace", img_key, repr(list(items)), costs,
                   TRACE_SCHEMA)


def result_key(img_key: str, runs, options: str) -> str:
    """Digest addressing a full pipeline result: the image, the ordered
    input runs (order matters — it fixes trace-merge order), and the
    pipeline options tag (:func:`options_tag`)."""
    return _digest("result", img_key,
                   repr([list(items) for items in runs]), options)


def module_key(img_key: str, text: str) -> str:
    """Digest addressing one module lifted from an image: the image and
    the module's key text (:func:`repro.replay.engine.module_text`,
    everything a replay run and the back end read of the module).  Keys
    the symbolized module."""
    return _digest("module", img_key, text)


def lifted_module_key(img_key: str, traces) -> str:
    """Digest addressing the module the lifter and the varargs rewrite
    build from an image's merged ``traces`` (a
    :class:`~repro.emu.tracer.TraceSet`), with its registers promoted:
    the image and the coverage both read, that is the transfers as
    ``(src, dst, kind)`` tuples, the executed addresses and the
    variadic argument counts.  Each is sorted, so equal coverage gives
    one key whatever order the inputs came in and whatever the hash
    seed."""
    transfers = sorted((t.src, t.dst, t.kind) for t in traces.transfers)
    return _digest("lifted", img_key, repr(transfers),
                   repr(sorted(traces.executed)),
                   repr(sorted(traces.vararg_counts.items())))


def instrumented_module_key(lifted_key: str, classification) -> str:
    """Digest addressing the probe-instrumented module the §4.2 bounds
    runs execute: the key of the lifted module it is built from
    (:func:`lifted_module_key`) and the §4.1 classification the
    register rewrite applies to it (a
    :class:`~repro.core.regsave.RegSaveResult`), that is each
    function's argument and output registers and the indirect call
    targets, sorted."""
    def per_function(regs: dict) -> str:
        return repr(sorted((name, sorted(names))
                           for name, names in regs.items()))
    return _digest("instrumented", lifted_key,
                   per_function(classification.args),
                   per_function(classification.outputs),
                   repr(sorted(classification.indirect_targets)))


def replay_keys(mod_key: str, stage: str, inputs) -> list[str]:
    """Digests addressing a replay stage's cross-run state on the
    module keyed ``mod_key``: the ``k``-th key covers the first ``k + 1``
    of the distinct ``inputs``, in order.  Each key chains on the one
    before it, so all of them cost one pass over the inputs."""
    keys = []
    key = _digest("replay", mod_key, stage)
    for items in inputs:
        key = _digest("replay", key, repr(list(items)))
        keys.append(key)
    return keys


def backend_key(mod_key: str, optimize: bool) -> str:
    """Digest addressing the image the back end (O3 and lowering)
    builds from the symbolized module keyed ``mod_key``
    (:func:`module_key`), with ``optimize``."""
    return _digest("backend", mod_key, options_tag(optimize=optimize))


def options_tag(**options) -> str:
    """Canonical rendering of a pipeline-options mapping for keying."""
    return json.dumps(
        {k: options[k] for k in sorted(options)},
        separators=(",", ":"), default=repr)


# -- JSON-safe input encoding (shared with the serve protocol) -----------

def encode_items(items) -> list:
    """One input run as JSON-safe values (bytes ride as ``{"b": ...}``
    latin-1 strings)."""
    out = []
    for item in items:
        if isinstance(item, bytes):
            out.append({"b": item.decode("latin-1")})
        else:
            out.append(int(item))
    return out


def _decode_item(item):
    if isinstance(item, int) and not isinstance(item, bool):
        return item
    text = item
    if isinstance(item, dict) and list(item) == ["b"]:
        text = item["b"]
    if isinstance(text, str):
        try:
            return text.encode("latin-1")
        except UnicodeEncodeError:
            pass
    raise ServeError(f"bad input item {item!r}: use an integer, a "
                     f"latin-1 string or {{\"b\": latin-1 string}}")


def decode_items(items) -> list:
    """One input run from its JSON form (:func:`encode_items`, or plain
    latin-1 strings for bytes); anything else raises
    :class:`~repro.errors.ServeError` naming the bad run or item."""
    if not isinstance(items, list):
        raise ServeError(f"bad input run {items!r}: must be a list")
    return [_decode_item(item) for item in items]


def encode_runs(runs) -> list:
    return [encode_items(items) for items in runs]


def decode_runs(runs) -> list:
    if not isinstance(runs, list):
        raise ServeError(f"bad inputs {runs!r}: must be a list of runs")
    return [decode_items(items) for items in runs]


# -- the store -----------------------------------------------------------

def _io_error(action: str, path: Path, exc: OSError) -> StoreError:
    """The typed error for a store file that ``action`` failed on."""
    return StoreError(f"cannot {action} {path}: {exc.strerror or exc}")


class ArtifactStore:
    """Pickle store addressed by content digests, with atomic writes.

    ``root`` defaults to ``$REPRO_STORE`` (``.repro_store`` when unset).
    """

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get("REPRO_STORE", ".repro_store")
        self.root = Path(root)
        #: In-process counts: hit / miss / put / corrupt / evicted.
        self.stats: dict[str, int] = {"hit": 0, "miss": 0, "put": 0,
                                      "corrupt": 0, "evicted": 0}
        self._lock = threading.Lock()

    def _count(self, what: str) -> None:
        with self._lock:
            self.stats[what] += 1

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.pkl"

    def ensure_root(self) -> None:
        """Create the root directory if it is missing.

        A root that exists as something other than a directory, or that
        cannot be created, raises :class:`~repro.errors.StoreError`
        naming it, so a command that opens the store fails once, before
        any work, instead of at every entry it reads or writes.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            return
        except FileExistsError:
            reason = "it exists and is not a directory"
        except OSError as exc:
            reason = f"it cannot be created ({exc.strerror or exc})"
        raise StoreError(f"store root {self.root} is not usable: {reason}")

    def get(self, kind: str, key: str):
        """Load a cached artifact, or None on miss/corruption.

        Corruption (an entry that opens but does not unpickle, such as
        a truncated one) falls through to recompute like a miss, but is
        reported: a structured warning naming the entry plus the
        ``store.corrupt`` counter, so it never hides as an ordinary
        miss.  An entry that cannot be opened for any reason but its
        absence raises :class:`~repro.errors.StoreError` naming it.
        """
        path = self._path(kind, key)
        try:
            fh = path.open("rb")
        except FileNotFoundError:
            self._count("miss")
            obs.count("store.miss")
            obs.event("store.miss", store="store", artifact=kind, key=key)
            return None
        except OSError as exc:
            raise _io_error("read store entry", path, exc) from exc
        with fh:
            try:
                obj = pickle.load(fh)
            except Exception as exc:
                self._count("corrupt")
                log.warning(
                    "corrupt store entry kind=%s key=%s path=%s "
                    "error=%s: %s — recomputing",
                    kind, key, path, type(exc).__name__, exc)
                obs.count("store.corrupt")
                obs.event("store.miss", store="store", artifact=kind,
                          key=key, corrupt=True)
                return None
        self._count("hit")
        obs.count("store.hit")
        obs.event("store.hit", store="store", artifact=kind, key=key)
        try:
            # Refresh mtime so GC's LRU order tracks last *use*, not
            # last write.  Best-effort: a read-only store still serves.
            os.utime(path)
        except OSError:
            pass
        return obj

    def put(self, kind: str, key: str, obj) -> None:
        """Store an artifact atomically (temp file + ``os.replace``); a
        failed write raises :class:`~repro.errors.StoreError` naming
        the entry."""
        path = self._path(kind, key)
        try:
            atomic_write_bytes(
                path, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        except OSError as exc:
            raise _io_error("write store entry", path, exc) from exc
        self._count("put")
        obs.count("store.put")
        obs.event("store.put", store="store", artifact=kind, key=key)

    def contains(self, kind: str, key: str) -> bool:
        """Presence probe without loading (no hit/miss accounting)."""
        return self._path(kind, key).exists()

    # -- eviction / GC ---------------------------------------------------

    def entries(self) -> list[tuple[str, str, Path, int, float]]:
        """Every stored artifact as ``(kind, key, path, size, mtime)``.
        Campaign JSONs and in-flight temp files are not artifacts and
        are excluded."""
        out: list[tuple[str, str, Path, int, float]] = []
        if not self.root.is_dir():
            return out
        for kind_dir in sorted(self.root.iterdir()):
            if not kind_dir.is_dir() or kind_dir.name == "campaign":
                continue
            for path in kind_dir.glob("*.pkl"):
                try:
                    st = path.stat()
                except OSError:
                    continue    # raced an eviction or a temp cleanup
                out.append((kind_dir.name, path.stem, path,
                            st.st_size, st.st_mtime))
        return out

    def pinned_keys(self) -> set[tuple[str, str]]:
        """``(kind, key)`` pairs GC must not evict: every campaign's
        stored source image and its per-input trace records.  Evicting
        either would break the campaign contract (resubmission without
        re-uploading; monotone trace accumulation) — everything else,
        results, replay states and back-end images included, is
        recomputable from these."""
        pinned: set[tuple[str, str]] = set()
        for name in self.list_campaigns():
            campaign = self.load_campaign(name)
            if campaign is None:
                continue
            pinned.add(("source", campaign.image_key))
            for items in campaign.inputs:
                pinned.add(("trace",
                            trace_key(campaign.image_key, items)))
        return pinned

    def gc(self, max_bytes: int, pin_campaigns: bool = True,
           dry_run: bool = False) -> dict:
        """Evict least-recently-used artifacts until the store fits in
        ``max_bytes``.

        LRU is by file mtime, which :meth:`get` refreshes on every hit,
        so the order reflects last use.  Campaign-pinned entries
        (:meth:`pinned_keys`) are skipped unless ``pin_campaigns`` is
        False.  ``dry_run`` reports what would be evicted without
        deleting anything (and without counters/events).  Returns a
        summary dict; evictions are also visible as the
        ``store.evicted`` counter and ledger event stream.
        """
        entries = self.entries()
        before = sum(entry[3] for entry in entries)
        total = before
        pinned = self.pinned_keys() if pin_campaigns else set()
        evicted: list[dict] = []
        skipped_pinned = 0
        for kind, key, path, size, _mtime in sorted(
                entries, key=lambda entry: entry[4]):
            if total <= max_bytes:
                break
            if (kind, key) in pinned:
                skipped_pinned += 1
                continue
            if not dry_run:
                try:
                    path.unlink()
                except FileNotFoundError:
                    total -= size   # a racing GC already removed it
                    continue
                except OSError:
                    continue
                self._count("evicted")
                obs.count("store.evicted")
                obs.event("store.evicted", store="store",
                          artifact=kind, key=key, bytes=size)
            evicted.append({"kind": kind, "key": key, "bytes": size})
            total -= size
        return {"limit_bytes": int(max_bytes),
                "before_bytes": before,
                "after_bytes": total,
                "evicted": len(evicted),
                "evicted_bytes": before - total,
                "evicted_entries": evicted,
                "pinned_kept": skipped_pinned,
                "dry_run": bool(dry_run)}

    # -- campaigns -------------------------------------------------------

    def _campaign_path(self, name: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_." else "_"
                       for c in name)
        return self.root / "campaign" / f"{safe}.json"

    def load_campaign(self, name: str) -> "Campaign | None":
        """The stored campaign ``name``, or None when there is none or
        its file reads but does not parse (logged, like a corrupt
        entry); a file that cannot be read raises
        :class:`~repro.errors.StoreError` naming it."""
        path = self._campaign_path(name)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise _io_error("read campaign file", path, exc) from exc
        try:
            doc = json.loads(data)
        except ValueError as exc:
            log.warning("corrupt campaign %s at %s: %s — starting fresh",
                        name, path, exc)
            return None
        return Campaign.from_dict(doc)

    def save_campaign(self, campaign: "Campaign") -> None:
        path = self._campaign_path(campaign.name)
        try:
            atomic_write_bytes(
                path, (json.dumps(campaign.to_dict(), indent=2,
                                  sort_keys=True) + "\n").encode())
        except OSError as exc:
            raise _io_error("write campaign file", path, exc) from exc

    def list_campaigns(self) -> list[str]:
        root = self.root / "campaign"
        if not root.is_dir():
            return []
        return sorted(p.stem for p in root.glob("*.json"))


@dataclass
class Campaign:
    """A named, per-image accumulated input set (the BinRec campaign
    model): every submission unions its input runs into the campaign,
    and jobs for the campaign run over the *accumulated* set, so
    coverage only ever grows.  Persisted as JSON in the store
    (``campaign/<name>.json``), atomically rewritten per update."""

    name: str
    image_key: str
    #: Accumulated input runs, in first-submission order, deduplicated.
    inputs: list[list] = field(default_factory=list)
    #: Jobs executed against this campaign.
    jobs: int = 0
    #: Latest coverage summary (trace-derived).
    coverage: dict = field(default_factory=dict)

    def add_inputs(self, runs) -> list[list]:
        """Union new input runs in; returns the runs actually added."""
        seen = {repr(items) for items in self.inputs}
        added = []
        for items in runs:
            items = list(items)
            if repr(items) not in seen:
                seen.add(repr(items))
                self.inputs.append(items)
                added.append(items)
        return added

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "image_key": self.image_key,
            "inputs": encode_runs(self.inputs),
            "jobs": self.jobs,
            "coverage": dict(self.coverage),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Campaign":
        return cls(name=doc["name"], image_key=doc["image_key"],
                   inputs=decode_runs(doc.get("inputs", [])),
                   jobs=int(doc.get("jobs", 0)),
                   coverage=dict(doc.get("coverage", {})))
