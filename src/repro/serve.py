"""repro.serve — recompilation as a service.

A long-lived daemon (``python -m repro serve``) that accepts
recompilation jobs over a local Unix socket, runs them through the
store-backed incremental pipeline
(:func:`repro.core.incremental.incremental_recompile`), and accumulates
per-image input sets as named **campaigns** (the BinRec model: every
submission grows the campaign's traced input set, so coverage only ever
improves).

Why a daemon beats N one-shot processes:

* the content-addressed :class:`~repro.store.ArtifactStore` persists
  traces, replay-stage states, back-end images and results across
  requests (and across daemon restarts), so a job that adds inputs
  replays only them (``replay_reused`` in its ``stats``), and one whose
  added inputs leave the symbolized module as it was skips O3 and
  lowering (``backend_reused``);
* with ``--workers N`` jobs execute on a pool of long-lived worker
  processes (:mod:`repro.sched`): distinct images recompile
  concurrently, queued jobs start in arrival order on whichever worker
  frees first, and a bounded queue applies backpressure.
  Without ``--workers`` (the default) jobs serialize on one in-process
  lock exactly as before — the two modes produce byte-identical
  artifacts because every reuse layer is content-pinned.

Protocol: line-delimited JSON — one request object per line, one
response object per line, over ``AF_UNIX``.  Requests carry an ``op``:

``ping``      liveness probe -> ``{"ok": true, "pid": ...}``
``submit``    run a job: ``image`` (path) or ``image_json`` (inline),
              ``inputs`` (list of runs; items are ints or
              ``{"b": "latin-1 bytes"}``), optional ``campaign``
              (a name of 1 to 128 ASCII letters, digits, ``-``, ``_``
              and ``.``), ``options`` (an object with any of
              ``optimize``, a JSON boolean, and ``check``, a boolean or
              ``"strict"``; any other key or value is an error),
              ``output`` (path for the recovered image) and
              ``return_artifact`` (inline the recovered JSON).  Every
              job widens its layouts from static evidence.
``status``    daemon counters + store stats + campaign list (+
              scheduler snapshot under ``sched`` in pool mode)
``campaign``  one campaign's summary (``name``)
``shutdown``  stop the daemon (responds first, drains in-flight jobs,
              then exits; new submits are rejected during the drain)

Responses are ``{"ok": true, ...}`` or ``{"ok": false, "error": msg,
"kind": ExceptionName}`` (a job that fails with an exception outside
:mod:`repro.errors` answers kind ``ServeError``, its class name leading
the message) — a backpressure rejection additionally
carries ``retry_after`` seconds, and a failure raised while the daemon
executed the job (in process or in a pool worker, after the request was
accepted) carries ``"job_failed": true``, which the client raises as
:class:`~repro.errors.RemoteJobError` and ``repro submit`` reports with
exit status 1 (a refused request, an unreachable daemon and a job the
scheduler shut down before it ran or finished exit 2).
The full schema is documented in DESIGN.md.

Observability: ledger events ``job.submitted`` / ``job.started`` /
``job.finished`` (plus ``job.timeout`` and the ``sched.*`` dispatch
stream in pool mode), a ``job.execute`` span per job, and the store's
``store.hit`` / ``store.miss`` / ``store.put`` stream — ``repro obs
diff`` over two reports shows exactly what a repeated run reused.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import socket
import socketserver
import threading
from pathlib import Path

from . import obs
from .binary.image import BinaryImage
from .errors import RemoteJobError, SchedError, ServeError, job_failure
from .sched import JobScheduler, execute_job
from .store import ArtifactStore, decode_runs, encode_runs, image_key

__all__ = ["RecompileServer", "ServeClient", "serve_forever"]

log = logging.getLogger("repro.serve")

#: Protocol revision, echoed by ``ping`` so clients can detect drift.
PROTOCOL_VERSION = 1

#: Largest accepted request line (a 4 MB image JSON fits comfortably).
MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: The keys a submit's ``options`` object may hold.
JOB_OPTIONS = ("optimize", "check")

#: A campaign name is the stem of its file in the store, so it keeps to
#: characters the store's file naming leaves as they are (two names
#: never share a file) and to a length whose file name, and the temp
#: name it is written under, fit a 255-byte file name limit.
_CAMPAIGN_NAME = re.compile(r"[A-Za-z0-9._-]{1,128}")


def _check_campaign_name(name) -> str:
    """``name`` when it is a string of 1 to 128 ASCII letters, digits,
    ``-``, ``_`` and ``.``; otherwise a :class:`ServeError` naming it."""
    if isinstance(name, str) and _CAMPAIGN_NAME.fullmatch(name):
        return name
    raise ServeError(f"bad campaign name {name!r}: use 1 to 128 ASCII "
                     f"letters, digits, '-', '_' and '.'")


def _decode_request(line: bytes) -> dict:
    """The request object on one protocol line; a line that is not a
    JSON object raises a :class:`ServeError` saying why."""
    try:
        request = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ServeError(f"request line is not JSON "
                         f"({type(exc).__name__}: {exc})") from None
    if not isinstance(request, dict):
        raise ServeError("request must be a JSON object")
    return request


def _limit_text(limit: int) -> str:
    if limit % (1024 * 1024) == 0:
        return f"{limit // (1024 * 1024)} MB"
    return f"{limit} byte"


class RecompileServer:
    """The daemon: a threading Unix-socket server plus a job scheduler.

    One instance per socket path.  Connections are handled on threads.
    Job execution is either serialized on :attr:`_job_lock` (default:
    the observability recorder is process-global) or dispatched to a
    :class:`~repro.sched.JobScheduler` worker pool (``workers >= 1``),
    where each worker holds its own and campaigns serialize per-name
    only.
    """

    def __init__(self, socket_path: str | Path,
                 store: ArtifactStore | str | Path | None = None,
                 workers: int = 0, queue_depth: int | None = None,
                 job_timeout: float | None = None):
        self.socket_path = Path(socket_path)
        if isinstance(store, ArtifactStore):
            self.store = store
        else:
            self.store = ArtifactStore(store)
        if workers < 0:
            raise ServeError(f"workers must be 0 or more, got {workers}")
        self.workers = int(workers)
        self.max_request_bytes = MAX_REQUEST_BYTES
        if self.workers < 1 and (queue_depth, job_timeout) != (None, None):
            raise ServeError(
                "a queue bound or a per-job wall-clock limit needs the "
                "worker pool (use workers >= 1): in-process jobs "
                "serialize on one lock and cannot be killed mid-flight")
        self.sched: JobScheduler | None = None
        if self.workers >= 1:
            try:
                self.sched = JobScheduler(
                    self.workers, store_root=self.store.root,
                    max_depth=queue_depth,
                    job_timeout=job_timeout)
            except ValueError:
                # No fork start method on this platform: fall back to
                # the single-lock mode, which computes the same thing.
                log.warning("worker pool unavailable (no fork start "
                            "method); serving single-lock")
                self.workers = 0
        self._job_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._campaign_locks: dict[str, threading.Lock] = {}
        self._job_seq = 0
        self.stats = {"jobs": 0, "served_store": 0,
                      "served_incremental": 0, "served_cold": 0,
                      "errors": 0}
        self._server: socketserver.BaseServer | None = None
        self._shutdown = threading.Event()
        # Last, once every argument is known good, so that a refused
        # start leaves no store directory behind.
        self.store.ensure_root()

    # -- lifecycle -------------------------------------------------------

    def serve_forever(self) -> None:
        """Bind the socket and serve until :meth:`shutdown`.

        The socket binds and listens under a temporary name in the
        same directory and is then renamed onto :attr:`socket_path`,
        so the path appears only once connections are accepted: a
        client that waits for the file and connects is never
        refused."""
        if self.socket_path.exists():
            # A stale socket from a crashed daemon: refuse to steal a
            # live one, silently replace a dead one.
            if self._socket_alive():
                raise ServeError(
                    f"another daemon is serving {self.socket_path}")
            self.socket_path.unlink()
        if self.sched is not None:
            # Fork the worker pool before any handler threads exist.
            self.sched.start()
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                outer._handle_connection(self)

        class Server(socketserver.ThreadingMixIn,
                     socketserver.UnixStreamServer):
            daemon_threads = True
            # server_close() must not wait on a handler that an idle
            # client's open connection keeps reading.
            block_on_close = False
            allow_reuse_address = True

        tmp = self.socket_path.with_name(
            f".{self.socket_path.name}.{os.getpid()}")
        self._server = Server(str(tmp), Handler)
        try:
            os.replace(tmp, self.socket_path)
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._server.server_close()
            self.close()

    def _socket_alive(self) -> bool:
        try:
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as probe:
                probe.settimeout(0.5)
                probe.connect(str(self.socket_path))
            return True
        except OSError:
            return False

    def shutdown(self) -> None:
        """Stop accepting jobs, drain the scheduler, stop the accept
        loop (callable from handler threads).  Submissions that arrive
        during the drain are rejected with a clean error; jobs already
        queued or running complete and their responses are written."""
        self._shutdown.set()

        def _stop():
            if self.sched is not None:
                try:
                    self.sched.close(drain=True)
                except Exception:
                    pass
            server = self._server
            if server is not None:
                server.shutdown()

        threading.Thread(target=_stop, daemon=True).start()

    def close(self) -> None:
        if self.sched is not None:
            self.sched.close(drain=False)
        try:
            self.socket_path.unlink()
        except OSError:
            pass

    # -- connection handling ---------------------------------------------

    def _handle_connection(self, handler) -> None:
        while True:
            limit = self.max_request_bytes
            line = handler.rfile.readline(limit + 1)
            if not line:
                return
            if len(line) > limit:
                # ``readline`` stopped mid-line: the request exceeds
                # the cap and everything still in the stream is the
                # tail of the same line, so there is no way to resync —
                # report clearly and drop the connection.  (Without
                # this check the truncated prefix would surface as a
                # baffling JSONDecodeError.)
                with self._state_lock:
                    self.stats["errors"] += 1
                self._respond(handler, {
                    "ok": False, "kind": "ServeError",
                    "error": f"request exceeds the "
                             f"{_limit_text(limit)} limit"})
                return
            try:
                response = self.dispatch(_decode_request(line))
            except Exception as exc:  # the daemon must not die
                with self._state_lock:
                    self.stats["errors"] += 1
                response = {
                    "ok": False, "error": str(exc),
                    "kind": getattr(exc, "remote_kind",
                                    type(exc).__name__)}
                if isinstance(exc, RemoteJobError):
                    response["job_failed"] = True
                retry = getattr(exc, "retry_after", None)
                if retry is not None:
                    response["retry_after"] = round(retry, 1)
            self._respond(handler, response)
            if response.get("op") == "shutdown" and response.get("ok"):
                self.shutdown()
                return

    @staticmethod
    def _respond(handler, response: dict) -> None:
        handler.wfile.write(
            (json.dumps(response, default=repr) + "\n").encode())
        handler.wfile.flush()

    def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping", "pid": os.getpid(),
                    "protocol": PROTOCOL_VERSION,
                    "workers": self.workers}
        if op == "status":
            with self._state_lock:
                stats = dict(self.stats)
            doc = {"ok": True, "op": "status",
                   "workers": self.workers,
                   "stats": stats, "store": dict(self.store.stats),
                   "store_root": str(self.store.root),
                   "campaigns": self.store.list_campaigns()}
            if self.sched is not None:
                doc["sched"] = self.sched.snapshot()
            return doc
        if op == "campaign":
            name = _check_campaign_name(request.get("name"))
            campaign = self.store.load_campaign(name)
            if campaign is None:
                raise ServeError(f"unknown campaign {name!r}")
            return {"ok": True, "op": "campaign",
                    "campaign": campaign.to_dict()}
        if op == "shutdown":
            return {"ok": True, "op": "shutdown"}
        if op == "submit":
            return self._submit(request)
        raise ServeError(f"unknown op {op!r}")

    # -- jobs ------------------------------------------------------------

    def _load_image(self, request: dict,
                    campaign) -> tuple[BinaryImage, str]:
        for name in ("image_json", "image"):
            value = request.get(name)
            if value is not None and not isinstance(value, str):
                raise ServeError(f"bad {name!r}: must be a string, not "
                                 f"{type(value).__name__}")
        if request.get("image_json"):
            image = BinaryImage.parse(request["image_json"],
                                      "'image_json'")
        elif request.get("image"):
            path = request["image"]
            try:
                text = Path(path).read_bytes()
            except OSError as exc:
                raise ServeError(f"cannot read image file {path!r}: "
                                 f"{exc.strerror or exc}") from None
            image = BinaryImage.parse(text, f"image file {path!r}")
        elif campaign is not None:
            src = self.store.get("source", campaign.image_key)
            if src is None:
                raise ServeError(
                    f"campaign {campaign.name!r} has no stored image; "
                    f"resubmit with 'image'")
            return BinaryImage.from_json(src), campaign.image_key
        else:
            raise ServeError("submit needs 'image' or 'image_json'")
        key = image_key(image)
        # Persist the source so campaign resubmissions can omit it.
        if not self.store.contains("source", key):
            self.store.put("source", key, image.to_json())
        return image, key

    def _campaign_mutex(self, name: str) -> threading.Lock:
        with self._state_lock:
            lock = self._campaign_locks.get(name)
            if lock is None:
                lock = self._campaign_locks[name] = threading.Lock()
            return lock

    def _submit(self, request: dict) -> dict:
        if self._shutdown.is_set():
            raise ServeError("daemon is shutting down; job rejected")
        options = request.get("options", {})
        if not isinstance(options, dict):
            raise ServeError(f"bad options {options!r}: must be a JSON "
                             f"object")
        unknown = sorted(set(options) - set(JOB_OPTIONS))
        if unknown:
            raise ServeError(
                f"unknown job option(s) {', '.join(map(repr, unknown))}"
                f": options may hold {', '.join(JOB_OPTIONS)}")
        for name, value in options.items():
            # A string is not a boolean: "false" would read as true.
            if not (isinstance(value, bool)
                    or (name == "check" and value == "strict")):
                allowed = ('true, false or "strict"' if name == "check"
                           else "true or false")
                raise ServeError(f"bad job option {name!r}: {value!r} "
                                 f"is not {allowed}")
        campaign_name = request.get("campaign")
        if campaign_name is not None:
            _check_campaign_name(campaign_name)
        with self._state_lock:
            self._job_seq += 1
            job_id = self._job_seq
        runs = decode_runs(request.get("inputs", []))
        obs.event("job.submitted", job=job_id,
                  campaign=campaign_name, inputs=len(runs))
        obs.count("serve.jobs.submitted")
        # Single-lock mode serializes whole jobs.  Pool mode only
        # serializes same-campaign submissions (the accumulate-then-run
        # contract needs it); distinct images run fully concurrently.
        if self.sched is None:
            guard = self._job_lock
        elif campaign_name:
            guard = self._campaign_mutex(campaign_name)
        else:
            guard = contextlib.nullcontext()
        with guard:
            campaign = (self.store.load_campaign(campaign_name)
                        if campaign_name else None)
            if campaign_name and campaign is None and not runs \
                    and not (request.get("image")
                             or request.get("image_json")):
                raise ServeError(
                    f"new campaign {campaign_name!r} needs an image "
                    f"and at least one input")
            image, img_key = self._load_image(request, campaign)
            if campaign_name:
                if campaign is None:
                    from .store import Campaign
                    campaign = Campaign(name=campaign_name,
                                        image_key=img_key)
                elif campaign.image_key != img_key:
                    raise ServeError(
                        f"campaign {campaign_name!r} is bound to image "
                        f"{campaign.image_key}, got {img_key}")
                campaign.add_inputs(runs)
                # Jobs run over the accumulated set: coverage grows
                # monotonically across submissions.
                runs = [list(items) for items in campaign.inputs]
                if not runs:
                    raise ServeError(
                        f"campaign {campaign_name!r} has no inputs")
            if not runs:
                raise ServeError("submit needs at least one input run")
            spec = {
                "op": "recompile", "job": job_id,
                "image_key": img_key,
                "inputs": encode_runs(runs),
                "options": options,
                "output": request.get("output"),
                "return_artifact": bool(request.get("return_artifact")),
            }
            obs.event("job.started", job=job_id, image=img_key,
                      campaign=campaign_name, inputs=len(runs))
            with obs.span("job.execute", job=job_id,
                          campaign=campaign_name or "",
                          inputs=len(runs)) as sp:
                if self.sched is None:
                    try:
                        result = execute_job(spec, self.store,
                                             image=image)
                    except Exception as exc:
                        kind, error = job_failure(exc)
                        raise RemoteJobError(
                            error, remote_kind=kind) from exc
                    result["ok"] = True
                else:
                    spec["image_json"] = image.to_json()
                    result = self.sched.submit(spec)
                    if not result.get("ok"):
                        error = result.get("error", "job failed")
                        if not result.get("job_failed"):
                            # The scheduler shut down before the job
                            # ran or finished: the daemon did not
                            # serve it.
                            raise SchedError(error)
                        raise RemoteJobError(
                            error, remote_kind=result.get(
                                "kind", "RemoteJobError"))
                if obs.enabled():
                    sp.set(worker=result.get("worker", -1),
                           **result["stats"])
            with self._state_lock:
                self.stats["jobs"] += 1
                self.stats[f"served_{result['served']}"] += 1
            if campaign_name:
                campaign.jobs += 1
                campaign.coverage = dict(result["coverage"])
                self.store.save_campaign(campaign)
            obs.count(f"serve.jobs.{result['served']}")
        obs.event("job.finished", job=job_id, **result["stats"])
        response: dict = {
            "ok": True, "op": "submit", "job": job_id,
            "served": result["served"],
            "stats": result["stats"],
            "image_key": result["image_key"],
            "result_key": result["result_key"],
            "fallback": result["fallback"],
            "notes": result["notes"],
            "coverage": result["coverage"],
        }
        if result.get("worker") is not None:
            response["worker"] = result["worker"]
        if campaign_name:
            response["campaign"] = campaign.to_dict()
        if result.get("accuracy") is not None:
            response["accuracy"] = result["accuracy"]
        if result.get("output"):
            response["output"] = result["output"]
        if result.get("artifact") is not None:
            response["artifact"] = result["artifact"]
        return response


class ServeClient:
    """Line-delimited-JSON client for a :class:`RecompileServer`.

    One connection per request keeps the client trivially robust; the
    daemon holds no per-connection state.  ``timeout`` bounds the whole
    exchange (connect, send, and the wait for the response), so a
    wedged daemon produces a clean :class:`ServeError` instead of a
    hang.
    """

    def __init__(self, socket_path: str | Path, timeout: float = 600.0):
        self.socket_path = str(socket_path)
        self.timeout = timeout

    def request(self, op: str, **fields) -> dict:
        doc = {"op": op, **fields}
        try:
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as conn:
                conn.settimeout(self.timeout)
                conn.connect(self.socket_path)
                conn.sendall((json.dumps(doc) + "\n").encode())
                chunks = []
                while True:
                    chunk = conn.recv(1 << 20)
                    if not chunk:
                        break
                    chunks.append(chunk)
                    if chunk.endswith(b"\n"):
                        break
        except socket.timeout as exc:
            raise ServeError(
                f"daemon at {self.socket_path} did not respond within "
                f"{self.timeout:g}s — it may be wedged, or the job is "
                f"still running (raise --timeout for long jobs)") \
                from exc
        except OSError as exc:
            raise ServeError(
                f"cannot reach daemon at {self.socket_path}: {exc}") \
                from exc
        if not chunks:
            raise ServeError("daemon closed the connection mid-request")
        response = json.loads(b"".join(chunks))
        if not response.get("ok"):
            hint = ""
            if response.get("retry_after") is not None:
                hint = f" (retry in ~{response['retry_after']:g}s)"
            message = (f"{response.get('kind', 'error')}: "
                       f"{response.get('error', 'request failed')}{hint}")
            if response.get("job_failed"):
                raise RemoteJobError(message, remote_kind=response.get(
                    "kind", "RemoteJobError"))
            refused = ServeError(message)
            # The message names the daemon's error kind already.
            refused.remote_kind = response.get("kind", "error")
            raise refused
        return response

    def ping(self) -> dict:
        return self.request("ping")

    def status(self) -> dict:
        return self.request("status")

    def campaign(self, name: str) -> dict:
        return self.request("campaign", name=name)

    def shutdown(self) -> dict:
        return self.request("shutdown")

    def submit(self, image: str | Path | None = None,
               image_json: str | None = None,
               inputs: list[list] | None = None,
               campaign: str | None = None,
               options: dict | None = None,
               output: str | None = None,
               return_artifact: bool = False) -> dict:
        fields: dict = {"inputs": encode_runs(inputs or [])}
        if image is not None:
            fields["image"] = str(image)
        if image_json is not None:
            fields["image_json"] = image_json
        if campaign is not None:
            fields["campaign"] = campaign
        if options:
            fields["options"] = options
        if output is not None:
            fields["output"] = output
        if return_artifact:
            fields["return_artifact"] = True
        return self.request("submit", **fields)


def serve_forever(socket_path: str | Path,
                  store: str | Path | None = None,
                  workers: int = 0,
                  queue_depth: int | None = None,
                  job_timeout: float | None = None) -> RecompileServer:
    """Convenience entry: build a server and block serving requests."""
    server = RecompileServer(socket_path, store=store,
                             workers=workers,
                             queue_depth=queue_depth,
                             job_timeout=job_timeout)
    server.serve_forever()
    return server
