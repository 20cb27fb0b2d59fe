"""The recompilation daemon: protocol, scheduling, campaigns."""

import contextlib
import gc
import json
import os
import re
import shutil
import socket
import socketserver
import tempfile
import threading
import time
import warnings

import pytest

from repro import compile_source, errors, obs, run_binary
from repro.binary import BinaryImage
from repro.errors import RemoteJobError, ServeError
from repro.serve import PROTOCOL_VERSION, RecompileServer, ServeClient
from repro.store import ArtifactStore

SOURCE = r"""
int score(int kind, int value) {
    if (kind == 0) return value * 2;
    if (kind == 1) return value + 100;
    return -value;
}

int main() {
    int kind = read_int();
    int value = read_int();
    printf("score=%d\n", score(kind, value));
    return 0;
}
"""


@pytest.fixture(scope="module")
def image():
    return compile_source(SOURCE, "gcc12", "3", "servetest")


@pytest.fixture(autouse=True)
def _obs_off():
    yield
    obs.disable_ledger()
    obs.disable()


def _wait_for_socket(path: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        time.sleep(0.02)
    raise RuntimeError(f"daemon socket {path} never appeared")


def _wait_for_daemon(path: str, timeout: float = 10.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        try:
            return ServeClient(path, timeout=timeout).ping()
        except ServeError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.02)


@contextlib.contextmanager
def _daemon(store_root):
    """A daemon on a thread, handed out once its socket path exists."""
    # AF_UNIX paths are length-limited (~104 bytes); pytest tmp paths
    # can exceed that, so the socket lives in a short mkdtemp dir.
    sockdir = tempfile.mkdtemp(prefix="repro-serve-")
    sock = os.path.join(sockdir, "d.sock")
    server = RecompileServer(sock, store=ArtifactStore(store_root))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _wait_for_socket(sock)
    client = ServeClient(sock, timeout=300)
    try:
        yield server, client
    finally:
        if not server._shutdown.is_set():
            try:
                client.shutdown()
            except ServeError:
                pass
        thread.join(timeout=10)
        server.close()
        shutil.rmtree(sockdir, ignore_errors=True)


@pytest.fixture
def served(tmp_path):
    with _daemon(tmp_path / "store") as pair:
        yield pair


def test_ping_reports_protocol(served):
    server, client = served
    response = client.ping()
    assert response["pid"] == os.getpid()
    assert response["protocol"] == PROTOCOL_VERSION


def test_socket_path_appears_only_once_the_daemon_listens(tmp_path,
                                                          monkeypatch):
    # Widen the gap between bind and listen: a client that waits only
    # for the path must still be answered on its first connect.
    activate = socketserver.TCPServer.server_activate

    def slow_activate(self):
        time.sleep(0.3)
        activate(self)

    monkeypatch.setattr(socketserver.TCPServer, "server_activate",
                        slow_activate)
    with _daemon(tmp_path / "store") as (_server, client):
        assert client.ping()["ok"]


def test_resubmission_is_served_from_store_byte_identical(served, image):
    server, client = served
    first = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          return_artifact=True)
    assert first["served"] == "cold"
    assert first["stats"]["traces_recorded"] == 1

    second = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                           return_artifact=True)
    assert second["served"] == "store"
    assert second["stats"]["traces_recorded"] == 0
    assert second["artifact"] == first["artifact"]
    assert second["result_key"] == first["result_key"]

    recovered = BinaryImage.from_json(first["artifact"])
    assert run_binary(recovered, [0, 7]).stdout == b"score=14\n"


def test_campaign_accumulates_inputs_and_stores_source(served, image):
    server, client = served
    first = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          campaign="demo")
    assert first["campaign"]["inputs"] == [[0, 7]]

    # The source is persisted, so follow-ups can omit the image; the
    # job runs over the accumulated input set.
    second = client.submit(inputs=[[2, 5]], campaign="demo",
                           return_artifact=True)
    assert second["served"] == "incremental"
    assert second["stats"]["traces_reused"] == 1
    assert second["stats"]["traces_recorded"] == 1
    assert second["campaign"]["inputs"] == [[0, 7], [2, 5]]
    assert second["campaign"]["jobs"] == 2
    assert second["coverage"]["inputs"] == 2

    summary = client.campaign("demo")["campaign"]
    assert summary["inputs"] == [[0, 7], [2, 5]]
    assert summary["coverage"] == second["coverage"]

    recovered = BinaryImage.from_json(second["artifact"])
    assert run_binary(recovered, [2, 5]).stdout == b"score=-5\n"
    assert run_binary(recovered, [0, 7]).stdout == b"score=14\n"


def test_status_reports_stats(served, image):
    server, client = served
    client.submit(image_json=image.to_json(), inputs=[[1, 7]])
    status = client.status()
    assert status["stats"]["jobs"] == 1
    assert status["stats"]["served_cold"] == 1
    assert status["store"]["put"] >= 2
    assert status["campaigns"] == []


def test_errors_do_not_kill_the_daemon(served, image):
    server, client = served
    with pytest.raises(ServeError, match="unknown op"):
        client.request("frobnicate")
    with pytest.raises(ServeError, match="needs 'image'"):
        client.submit(inputs=[[1]])
    with pytest.raises(ServeError, match="unknown campaign"):
        client.campaign("absent")
    with pytest.raises(ServeError, match="at least one input"):
        client.submit(image_json=image.to_json())
    assert client.ping()["ok"]
    assert client.status()["stats"]["errors"] == 4
    assert client.status()["stats"]["jobs"] == 0


@pytest.mark.parametrize("field, value, kind, named", [
    ("image_json", "not json", "LinkError", "'image_json'"),
    ("image_json", "{}", "LinkError", "'image_json'"),
    ("image_json", "[]", "LinkError", "'image_json'"),
    ("image_json", '{"text": 5}', "LinkError", "'image_json'"),
    ("image_json", "[" * 100_000, "LinkError", "'image_json'"),
    ("image_json", 5, "ServeError", "'image_json'"),
    ("image", 5, "ServeError", "'image'"),
    ("image", "TMP/absent.json", "ServeError", "TMP/absent.json"),
    ("image", "TMP/list.json", "LinkError", "TMP/list.json"),
], ids=["not-json", "empty-object", "a-list", "bad-section",
        "deep-nesting", "json-number", "path-number", "missing-file",
        "file-of-a-list"])
def test_a_bad_image_is_refused_with_a_typed_error(served, tmp_path,
                                                   field, value, kind,
                                                   named):
    # The daemon names the field, or the path it could not read.
    server, client = served
    (tmp_path / "list.json").write_text("[1, 2]")
    if isinstance(value, str):
        value = value.replace("TMP", str(tmp_path))
    with pytest.raises(ServeError) as refused:
        client.request("submit", inputs=[[0, 7]], **{field: value})
    assert refused.value.remote_kind == kind, str(refused.value)
    assert named.replace("TMP", str(tmp_path)) in str(refused.value)
    assert client.ping()["ok"]
    assert client.status()["stats"]["jobs"] == 0


def test_submit_rejects_unknown_or_malformed_options(served, image):
    server, client = served
    for retired in ("static_widen", "hybrid"):
        with pytest.raises(ServeError,
                           match=f"unknown job option.*'{retired}'"):
            client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          campaign="demo", options={retired: True})
    with pytest.raises(ServeError, match="must be a JSON object"):
        client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                      campaign="demo", options=["optimize"])
    # Values are typed: a string is not a boolean ("false" would read
    # as true), and check takes only a boolean or "strict".
    for name, value in (("optimize", "no"), ("optimize", "false"),
                        ("optimize", 1), ("check", "1"),
                        ("check", "STRICT"), ("check", None)):
        with pytest.raises(ServeError,
                           match=f"bad job option '{name}'"):
            client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          campaign="demo", options={name: value})
    assert client.ping()["ok"]
    status = client.status()
    assert status["stats"]["jobs"] == 0
    assert status["campaigns"] == []


def test_submit_takes_typed_options(served, image):
    server, client = served
    options = {"optimize": False, "check": "strict"}
    first = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          options=options)
    again = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          options=dict(options))
    assert (first["served"], again["served"]) == ("cold", "store")
    assert again["result_key"] == first["result_key"]


def test_campaign_names_that_would_share_a_file_are_refused(served,
                                                           image):
    # "team a" used to be stored as campaign/team_a.json, the file of
    # the campaign "team_a".
    server, client = served
    client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                  campaign="team_a")
    for bad in ("team a", "team/a", "../team_a", "", "t\u00e9am",
                "x" * 129):
        named = re.escape(f"bad campaign name {bad!r}")
        with pytest.raises(ServeError, match=named):
            client.submit(image_json=image.to_json(), inputs=[[2, 5]],
                          campaign=bad)
        with pytest.raises(ServeError, match=named):
            client.campaign(bad)
    assert client.campaign("team_a")["campaign"]["inputs"] == [[0, 7]]
    status = client.status()
    assert status["campaigns"] == ["team_a"]
    assert status["stats"]["jobs"] == 1


def test_campaign_rejects_image_rebinding(served, image):
    server, client = served
    other = compile_source(SOURCE.replace("* 2", "* 3"),
                           "gcc12", "3", "servetest2")
    client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                  campaign="demo")
    with pytest.raises(ServeError, match="bound to image"):
        client.submit(image_json=other.to_json(), inputs=[[1, 1]],
                      campaign="demo")


def _raw_request(client, line: bytes) -> dict:
    """Send one raw request line and read the daemon's response."""
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(10)
    conn.connect(client.socket_path)
    conn.sendall(line)
    raw = conn.makefile("rb").readline()
    conn.close()
    return json.loads(raw)


def test_malformed_request_line_gets_error_response(served):
    server, client = served
    lines = {
        b"this is not json\n": "JSONDecodeError",
        # Deeper than the decoder recurses.
        b'{"op": "ping", "x": ' + b"[" * 100_000 + b"\n":
            "RecursionError",
    }
    for line, cause in lines.items():
        response = _raw_request(client, line)
        assert response["ok"] is False
        assert response["kind"] == "ServeError"
        assert response["error"].startswith(
            f"request line is not JSON ({cause}: ")
        assert client.ping()["ok"]


@pytest.mark.parametrize("inputs, named", [
    ([[{"x": 1}]], "bad input item {'x': 1}"),
    ([[1.5]], "bad input item 1.5"),
    ([[True]], "bad input item True"),
    ([[7, {"b": 3}]], "bad input item {'b': 3}"),
    ([5], "bad input run 5"),
    ({"run": [1]}, "bad inputs {'run': [1]}"),
], ids=["dict", "float", "bool", "bytes-not-str", "run-not-list",
        "runs-not-list"])
def test_bad_input_item_gets_serve_error_naming_it(served, inputs, named):
    server, client = served
    request = {"op": "submit", "inputs": inputs}
    response = _raw_request(client, json.dumps(request).encode() + b"\n")
    assert response["ok"] is False
    assert response["kind"] == "ServeError"
    assert response["error"].startswith(named)


@pytest.mark.parametrize("request_", [
    {"op": "campaign", "name": 5},
    {"op": "campaign"},
    {"op": "submit", "campaign": 5, "inputs": [[0, 7]]},
    {"op": "submit", "campaign": ["a"], "inputs": [[0, 7]]},
], ids=["campaign-int", "campaign-missing", "submit-int", "submit-list"])
def test_non_string_campaign_name_gets_serve_error_naming_it(served,
                                                             request_):
    server, client = served
    response = _raw_request(client, json.dumps(request_).encode() + b"\n")
    assert response["ok"] is False
    assert response["kind"] == "ServeError"
    named = request_.get("name", request_.get("campaign"))
    assert response["error"].startswith(f"bad campaign name {named!r}")


def test_job_events_reach_the_ledger(served, image):
    server, client = served
    led = obs.enable_ledger()
    client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                  campaign="demo")
    kinds = [e["kind"] for e in led.events]
    for kind in ("job.submitted", "job.started", "job.finished",
                 "store.miss", "store.put"):
        assert kind in kinds, kind
    finished = [e for e in led.events if e["kind"] == "job.finished"]
    assert finished[0]["served"] == "cold"
    assert finished[0]["job"] == 1


def test_stale_socket_is_replaced_live_socket_refused(served):
    server, client = served
    # A second daemon must refuse to steal the live socket.
    rival = RecompileServer(server.socket_path, store=server.store)
    with pytest.raises(ServeError, match="another daemon"):
        rival.serve_forever()
    assert client.ping()["ok"]  # the refusal left the live daemon alone
    # But a dead leftover socket file is silently replaced.
    sockdir = tempfile.mkdtemp(prefix="repro-stale-")
    stale = os.path.join(sockdir, "d.sock")
    try:
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(stale)
        dead.close()  # file remains, nobody listening
        fresh = RecompileServer(stale, store=server.store)
        thread = threading.Thread(target=fresh.serve_forever,
                                  daemon=True)
        thread.start()
        assert _wait_for_daemon(stale)["ok"]
        ServeClient(stale).shutdown()
        thread.join(timeout=10)
    finally:
        shutil.rmtree(sockdir, ignore_errors=True)


def test_shutdown_stops_the_daemon_and_removes_socket(served):
    server, client = served
    assert client.shutdown()["ok"]
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and os.path.exists(
            client.socket_path):
        time.sleep(0.02)
    assert not os.path.exists(client.socket_path)
    with pytest.raises(ServeError, match="cannot reach"):
        client.ping()


# -- request-size limit ---------------------------------------------------

def test_oversized_request_gets_a_clear_error(served):
    server, client = served
    server.max_request_bytes = 4096
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(10)
    conn.connect(client.socket_path)
    conn.sendall(b'{"op": "ping", "pad": "' + b"x" * 8192 + b'"}\n')
    raw = conn.makefile("rb").readline()
    conn.close()
    response = json.loads(raw)
    assert response["ok"] is False
    assert response["kind"] == "ServeError"
    assert "exceeds the 4096 byte limit" in response["error"]
    # An in-limit request on a fresh connection still works.
    assert client.ping()["ok"]
    assert client.status()["stats"]["errors"] == 1


# -- client timeout -------------------------------------------------------

def test_client_timeout_is_a_clean_error():
    sockdir = tempfile.mkdtemp(prefix="repro-wedge-")
    sock = os.path.join(sockdir, "d.sock")
    try:
        # A listener that accepts but never responds: a wedged daemon.
        wedged = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        wedged.bind(sock)
        wedged.listen(1)
        client = ServeClient(sock, timeout=0.3)
        with pytest.raises(ServeError,
                           match="did not respond within 0.3s"):
            client.ping()
        wedged.close()
    finally:
        shutil.rmtree(sockdir, ignore_errors=True)


# -- socket hygiene -------------------------------------------------------

def test_every_socket_is_closed_without_the_collector(tmp_path):
    """A request to a missing daemon, a daemon that replaces a stale
    socket file, and its start and shutdown leave no socket for the
    collector to close."""
    sockdir = tempfile.mkdtemp(prefix="repro-leak-")
    sock = os.path.join(sockdir, "d.sock")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ServeError, match="cannot reach"):
                ServeClient(sock).ping()
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as dead:
                dead.bind(sock)   # the file stays; nobody listens
            server = RecompileServer(
                sock, store=ArtifactStore(tmp_path / "store"))
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            assert _wait_for_daemon(sock)["ok"]
            assert ServeClient(sock).shutdown()["ok"]
            thread.join(timeout=10)
            assert not thread.is_alive()
            del server, thread
            gc.collect()
        unclosed = [str(w.message) for w in caught
                    if issubclass(w.category, ResourceWarning)
                    and "socket" in str(w.message)]
        assert unclosed == []
    finally:
        shutil.rmtree(sockdir, ignore_errors=True)


# -- worker-pool mode -----------------------------------------------------

@pytest.fixture
def pooled(tmp_path):
    sockdir = tempfile.mkdtemp(prefix="repro-serve-")
    sock = os.path.join(sockdir, "d.sock")
    server = RecompileServer(sock,
                             store=ArtifactStore(tmp_path / "store"),
                             workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _wait_for_socket(sock)
    client = ServeClient(sock, timeout=300)
    try:
        yield server, client
    finally:
        if not server._shutdown.is_set():
            try:
                client.shutdown()
            except ServeError:
                pass
        thread.join(timeout=15)
        server.close()
        shutil.rmtree(sockdir, ignore_errors=True)


def test_pool_serves_jobs_and_reports_sched_status(pooled, image):
    server, client = pooled
    assert client.ping()["workers"] == 2
    first = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          return_artifact=True)
    assert first["served"] == "cold"
    assert first["worker"] in (0, 1)
    second = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                           return_artifact=True)
    assert second["served"] == "store"
    assert second["artifact"] == first["artifact"]
    status = client.status()
    sched = status["sched"]
    assert sched["workers"] == 2
    assert sched["stats"]["completed"] == 2
    assert sum(w["jobs"] for w in sched["per_worker"]) == 2


def test_pool_campaigns_accumulate_across_workers(pooled, image):
    server, client = pooled
    first = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          campaign="demo")
    assert first["campaign"]["inputs"] == [[0, 7]]
    second = client.submit(inputs=[[2, 5]], campaign="demo")
    assert second["served"] == "incremental"
    assert second["stats"]["traces_reused"] == 1
    assert second["campaign"]["inputs"] == [[0, 7], [2, 5]]
    # [2, 5] reached new code, so every replay stage ran both inputs;
    # [0, 9] reaches none, and the stages resume from the records the
    # second job stored, whichever worker ran it.
    assert second["stats"]["replay_reused"] == 0
    third = client.submit(inputs=[[0, 9]], campaign="demo")
    assert third["stats"]["replay_reused"] == 3 * 2


def test_pool_job_events_and_sched_events_reach_the_ledger(pooled,
                                                           image):
    server, client = pooled
    led = obs.enable_ledger()
    obs.enable(reset=True)
    client.submit(image_json=image.to_json(), inputs=[[0, 7]])
    kinds = [e["kind"] for e in led.events]
    # Parent-side scheduling events and the worker's shipped pipeline
    # events both land in the parent's in-memory ledger.
    for kind in ("job.submitted", "job.started", "sched.dispatch",
                 "store.put", "job.finished"):
        assert kind in kinds, kind
    assert obs.recorder().registry.counters["sched.dispatch"] == 1


def _assert_a_typed_job_failure(client, image):
    """The job fails while it runs, with a ``FileNotFoundError`` (the
    output path's directory does not exist): it answers a
    :mod:`repro.errors` kind, ``ServeError``, whose message still names
    the original class."""
    with pytest.raises(RemoteJobError,
                       match="ServeError: FileNotFoundError") as failed:
        client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                      output="/nonexistent-repro-dir/out.json")
    kind = failed.value.remote_kind
    assert kind == "ServeError"
    assert issubclass(getattr(errors, kind), errors.ReproError)
    assert client.ping()["ok"]


def test_a_job_failure_answers_a_repro_errors_kind(served, image):
    _server, client = served
    _assert_a_typed_job_failure(client, image)
    assert client.status()["stats"]["errors"] == 1


def test_pool_worker_errors_keep_their_kind(pooled, image):
    # The same failure inside a worker process: the kind survives the
    # process hop instead of flattening to RemoteJobError.
    server, client = pooled
    _assert_a_typed_job_failure(client, image)
    status = client.status()
    assert status["sched"]["stats"]["failed"] == 1
    assert status["sched"]["stats"]["respawns"] == 0  # worker survived


SLOW_SOURCE = r"""
int main() {
    int n = read_int();
    int s = 0;
    int i = 0;
    while (i < n) { s = s + i; i = i + 1; }
    printf("s=%d\n", s);
    return 0;
}
"""


def test_pool_job_timeout_fails_job_and_daemon_survives(tmp_path):
    sockdir = tempfile.mkdtemp(prefix="repro-serve-")
    sock = os.path.join(sockdir, "d.sock")
    server = RecompileServer(sock,
                             store=ArtifactStore(tmp_path / "store"),
                             workers=1, job_timeout=0.4)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        _wait_for_socket(sock)
        client = ServeClient(sock, timeout=300)
        # Tracing a 200k-iteration loop alone takes over a second — far
        # past the 0.4s limit — so the deadline fires mid-job
        # deterministically.
        slow = compile_source(SLOW_SOURCE, "gcc12", "3", "slowjob")
        with pytest.raises(ServeError,
                           match="JobTimeout.*wall-clock limit"):
            client.submit(image_json=slow.to_json(), inputs=[[200000]])
        # The worker slot was recycled; the daemon still serves.
        assert client.ping()["ok"]
        status = client.status()
        assert status["sched"]["stats"]["timeouts"] == 1
        assert status["sched"]["stats"]["respawns"] == 1
        client.shutdown()
        thread.join(timeout=15)
    finally:
        server.close()
        shutil.rmtree(sockdir, ignore_errors=True)


def test_job_timeout_requires_workers(tmp_path):
    # So does a queue bound, which the pool alone would enforce.
    for limit in ({"job_timeout": 5.0}, {"queue_depth": 0}):
        with pytest.raises(ServeError, match="needs the worker pool"):
            RecompileServer(tmp_path / "d.sock",
                            store=ArtifactStore(tmp_path / "store"),
                            **limit)


def test_pool_backpressure_reports_retry_hint(tmp_path, image):
    sockdir = tempfile.mkdtemp(prefix="repro-serve-")
    sock = os.path.join(sockdir, "d.sock")
    server = RecompileServer(sock,
                             store=ArtifactStore(tmp_path / "store"),
                             workers=1, queue_depth=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    fillers = []
    try:
        _wait_for_socket(sock)
        client = ServeClient(sock, timeout=60)
        # Fill the one worker and the one queue slot with scheduler
        # probes (no pipeline), so the next submission meets a full
        # queue without depending on how long a recompile takes.
        sched = server.sched
        for sleep in (60.0, 0.0):
            filler = threading.Thread(
                target=sched.submit,
                args=({"op": "probe", "sleep": sleep},), daemon=True)
            filler.start()
            fillers.append(filler)
            deadline = time.monotonic() + 10
            while not (sched.snapshot()["per_worker"][0]["busy"]
                       and sched.depth() == len(fillers) - 1):
                assert time.monotonic() < deadline, sched.snapshot()
                time.sleep(0.01)
        with pytest.raises(ServeError,
                           match=r"queue full.*retry in ~\d"):
            client.submit(image_json=image.to_json(), inputs=[[0, 7]])
        assert client.status()["sched"]["stats"]["rejected"] == 1
        sched._slots[0].proc.kill()   # end the long probe, not wait
        client.shutdown()
        thread.join(timeout=15)
    finally:
        server.close()
        for filler in fillers:
            filler.join(timeout=15)
        shutil.rmtree(sockdir, ignore_errors=True)


def test_shutdown_drains_inflight_jobs_and_rejects_new_ones(pooled,
                                                            image):
    server, client = pooled
    distinct = [image] + [
        compile_source(SOURCE.replace("value * 2", f"value * {k}"),
                       "gcc12", "3", f"drain{k}") for k in (7, 11)]
    boxes = []

    def submit(img):
        box = {}
        try:
            box["response"] = ServeClient(
                client.socket_path, timeout=300).submit(
                    image_json=img.to_json(), inputs=[[0, 3]])
        except ServeError as exc:
            box["error"] = exc
        boxes.append(box)

    threads = [threading.Thread(target=submit, args=(img,), daemon=True)
               for img in distinct]
    for thread in threads:
        thread.start()
    time.sleep(0.3)   # let some jobs reach the scheduler
    client.shutdown()
    for thread in threads:
        thread.join(timeout=60)
    assert len(boxes) == 3
    for box in boxes:
        # Every concurrent submission either completed (drained) or was
        # cleanly rejected — never a hang, never a torn response.
        if "response" in box:
            assert box["response"]["ok"]
        else:
            assert isinstance(box["error"], ServeError)
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and os.path.exists(
            client.socket_path):
        time.sleep(0.02)
    assert not os.path.exists(client.socket_path)


def test_stale_socket_is_replaced_under_worker_pool(tmp_path):
    sockdir = tempfile.mkdtemp(prefix="repro-stale-")
    stale = os.path.join(sockdir, "d.sock")
    try:
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(stale)
        dead.close()   # leftover file, nobody listening
        fresh = RecompileServer(stale,
                                store=ArtifactStore(tmp_path / "store"),
                                workers=2)
        thread = threading.Thread(target=fresh.serve_forever,
                                  daemon=True)
        thread.start()
        assert _wait_for_daemon(stale)["workers"] == 2
        ServeClient(stale).shutdown()
        thread.join(timeout=15)
        fresh.close()
    finally:
        shutil.rmtree(sockdir, ignore_errors=True)
