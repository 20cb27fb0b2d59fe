"""The ``python -m repro`` command-line interface."""

import logging
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main

SOURCE = r"""
int main() {
    int n = read_int();
    printf("double=%d\n", n * 2);
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return path


def test_compile_run_roundtrip(source_file, tmp_path, capsys):
    image = tmp_path / "prog.img.json"
    assert main(["compile", str(source_file), "-o", str(image)]) == 0
    assert main(["run", str(image), "--input", "int:21"]) == 0
    out = capsys.readouterr().out
    assert "double=42" in out
    assert "[exit 0" in out


def test_recompile_wytiwyg(source_file, tmp_path, capsys):
    image = tmp_path / "prog.img.json"
    recovered = tmp_path / "rec.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    assert main(["recompile", str(image), "-o", str(recovered),
                 "--input", "int:5"]) == 0
    assert main(["run", str(recovered), "--input", "int:5"]) == 0
    out = capsys.readouterr().out
    assert "double=10" in out


def test_recompile_binrec(source_file, tmp_path, capsys):
    image = tmp_path / "prog.img.json"
    recovered = tmp_path / "rec.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    main(["recompile", str(image), "-o", str(recovered),
          "--pipeline", "binrec", "--input", "int:5"])
    main(["run", str(recovered), "--input", "int:5"])
    assert "double=10" in capsys.readouterr().out


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_141_quietly(source_file, tmp_path,
                                              unbuffered):
    # `repro run ... | head -1` once the reader has gone: block-buffered
    # stdout fails at the final flush, unbuffered at the first print.
    # Either way the command ends as a writer SIGPIPE killed would, and
    # says nothing.
    image = tmp_path / "prog.img.json"
    assert main(["compile", str(source_file), "-o", str(image)]) == 0
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(image),
             "--input", "int:5", "/", "int:6", "/", "int:7"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_layout_command(source_file, tmp_path, capsys):
    image = tmp_path / "prog.img.json"
    main(["compile", str(source_file), "-o", str(image),
          "--compiler", "gcc44"])
    assert main(["layout", str(image), "--input", "int:5"]) == 0
    out = capsys.readouterr().out
    assert "fn_" in out and "bytes" in out


def test_multiple_input_runs(source_file, tmp_path, capsys):
    image = tmp_path / "prog.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    main(["run", str(image), "--input", "int:1", "/", "int:2"])
    out = capsys.readouterr().out
    assert "double=2" in out and "double=4" in out


@pytest.mark.parametrize("spec", ["float:1", "int:abc"])
def test_bad_input_spec_rejected(source_file, tmp_path, capsys, spec):
    image = tmp_path / "prog.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    capsys.readouterr()
    # A usage error exits 2, as argparse's own do: 1 is a failing check.
    for command in ("run", "check"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(image), "--input", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("bad input spec") and err.count("\n") == 1


def _store_gc(tmp_path, size):
    return main(["store", "gc", f"--max-bytes={size}", "--dry-run",
                 "--store", str(tmp_path / "store")])


@pytest.mark.parametrize("size", ["inf", "1e400", "-1"])
def test_store_gc_rejects_a_size_not_finite_and_non_negative(
        tmp_path, capsys, size):
    with pytest.raises(SystemExit) as exc:
        _store_gc(tmp_path, size)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("bad size") and err.count("\n") == 1


@pytest.mark.parametrize("size, limit", [("0", 0), ("512M", 512 << 20)])
def test_store_gc_accepts_zero_and_suffixed_sizes(tmp_path, capsys,
                                                   size, limit):
    assert _store_gc(tmp_path, size) == 0
    assert f"/{limit} bytes kept" in capsys.readouterr().out


@pytest.mark.parametrize("content, kind", [
    (None, "LinkError"),
    ('{"entry": 0}', "LinkError"),
    ("not json", "LinkError"),
    ("[1, 2]", "LinkError"),
    (b"\xff\xfe not json", "LinkError"),
], ids=["missing", "not-an-image", "not-json", "a-list", "not-text"])
def test_bad_image_file_is_one_line_error(tmp_path, capsys, content, kind):
    path = tmp_path / "img.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    for command in ("run", "recompile", "layout", "check", "explain"):
        assert main([command, str(path), "--input", "int:1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: {kind}: ")
        assert err.count("\n") == 1 and str(path) in err


def test_minic_syntax_error_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "bad.c"
    path.write_text("int main() { return 0 }\n")
    assert main(["compile", str(path), "-o",
                 str(tmp_path / "bad.img.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro compile: CompileError: ")
    assert err.count("\n") == 1


UNDERTRACE = r"""
int main() {
    int buf[16];
    int i;
    int n;
    n = read_int();
    for (i = 0; i < n; i++) buf[i] = i * 7;
    int s = 0;
    for (i = 0; i < n; i++) s += buf[i];
    printf("s=%d\n", s);
    return 0;
}
"""


@pytest.fixture
def undertrace_file(tmp_path):
    path = tmp_path / "under.c"
    path.write_text(UNDERTRACE)
    return path


def test_check_command_reports_coverage_gap(undertrace_file, tmp_path,
                                            capsys):
    image = tmp_path / "under.img.json"
    report_json = tmp_path / "check.json"
    main(["compile", str(undertrace_file), "-o", str(image)])
    # Warnings alone exit 0 by default, 1 under --strict.
    assert main(["check", str(image), "--input", "int:3",
                 "--json", str(report_json)]) == 0
    out = capsys.readouterr().out
    assert "coverage-gap" in out
    assert "warning" in out
    import json as _json
    doc = _json.loads(report_json.read_text())
    assert doc["counts"]["warning"] >= 1
    assert main(["check", str(image), "--input", "int:3",
                 "--strict"]) == 1


def test_check_command_clean_program_exits_zero(source_file, tmp_path,
                                                capsys):
    image = tmp_path / "prog.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    assert main(["check", str(image), "--input", "int:5",
                 "--strict"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_recompile_check_strict_aborts(undertrace_file, tmp_path,
                                       capsys):
    image = tmp_path / "under.img.json"
    recovered = tmp_path / "rec.img.json"
    main(["compile", str(undertrace_file), "-o", str(image)])
    assert main(["recompile", str(image), "-o", str(recovered),
                 "--input", "int:3", "--check", "strict"]) == 1
    err = capsys.readouterr().err
    assert "static check gate" in err
    assert not recovered.exists()


def test_check_json_is_the_same_on_every_run(tmp_path, capsys):
    # The escaped split is an error, so each run exits 1; the report
    # names every site without object addresses.
    source = Path(__file__).resolve().parents[2] / "examples" / "escape.c"
    image = tmp_path / "escape.img.json"
    assert main(["compile", str(source), "-o", str(image)]) == 0
    reports = []
    for n in range(2):
        report = tmp_path / f"check{n}.json"
        assert main(["check", str(image), "--input", "int:3",
                     "--json", str(report)]) == 1
        reports.append(report.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert b"escaped-frame-pointer" in reports[0]
    assert b"%<" not in reports[0]


@pytest.fixture(params=[0, 2], ids=["in-process", "pool"])
def daemon_socket(request, tmp_path):
    """The socket of a daemon serving on a thread, in process or with a
    two-worker pool (AF_UNIX paths are short: it lives in a mkdtemp)."""
    import tempfile
    import threading
    import time

    from repro.serve import RecompileServer, ServeClient
    from repro.store import ArtifactStore
    sockdir = tempfile.mkdtemp(prefix="repro-cli-")
    sock = os.path.join(sockdir, "d.sock")
    server = RecompileServer(sock, store=ArtifactStore(tmp_path / "store"),
                             workers=request.param)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not os.path.exists(sock) and time.monotonic() < deadline:
        time.sleep(0.02)
    try:
        yield sock
    finally:
        ServeClient(sock, timeout=30).shutdown()
        thread.join(timeout=15)
        server.close()
        shutil.rmtree(sockdir, ignore_errors=True)


def test_submit_exit_status_tells_a_failed_job_from_a_refusal(
        undertrace_file, tmp_path, daemon_socket, capsys):
    image = tmp_path / "under.img.json"
    main(["compile", str(undertrace_file), "-o", str(image)])
    capsys.readouterr()
    # The daemon runs the job and the strict gate aborts it: status 1,
    # as ``repro recompile --check strict`` exits, with one line naming
    # the job's own error.
    assert main(["submit", "--socket", daemon_socket, str(image),
                 "--input", "int:3", "--check", "strict"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro submit: StaticCheckError: static check "
                          "gate: ")
    assert err.count("\n") == 1
    # A request the daemon refuses (a new campaign with no image and no
    # input) is a usage error: status 2.
    assert main(["submit", "--socket", daemon_socket,
                 "--campaign", "nothing-yet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro submit: ServeError: new campaign "
                          "'nothing-yet' needs an image")
    assert err.count("\n") == 1
    assert main(["submit", "--socket", daemon_socket, str(image),
                 "--input", "int:3", "--campaign", "team a"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro submit: ServeError: bad campaign name "
                          "'team a'")
    assert err.count("\n") == 1
    # The daemon still serves a good job afterwards.
    assert main(["submit", "--socket", daemon_socket, str(image),
                 "--input", "int:3"]) == 0


def test_submit_of_a_job_the_pool_shut_down_unrun_exits_2(
        undertrace_file, tmp_path, capsys):
    # The pool's one worker is busy with a scheduler probe, so the
    # submitted job waits in the queue, and a close without a drain
    # fails it before it runs.  The daemon never ran it: status 2, not
    # the status 1 of a job that ran and failed.
    import tempfile
    import threading
    import time

    from repro.serve import RecompileServer, ServeClient
    from repro.store import ArtifactStore
    image = tmp_path / "under.img.json"
    main(["compile", str(undertrace_file), "-o", str(image)])
    capsys.readouterr()
    sockdir = tempfile.mkdtemp(prefix="repro-cli-")
    sock = os.path.join(sockdir, "d.sock")
    server = RecompileServer(sock, store=ArtifactStore(tmp_path / "store"),
                             workers=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    sched = server.sched

    def wait(predicate, what):
        deadline = time.monotonic() + 10
        while not predicate():
            assert time.monotonic() < deadline, what
            time.sleep(0.01)

    def start(fn, *args, **kwargs):
        t = threading.Thread(target=fn, args=args, kwargs=kwargs,
                             daemon=True)
        t.start()
        return t

    status = {}
    try:
        wait(lambda: os.path.exists(sock), "the socket")
        blocker = start(sched.submit, {"op": "probe", "sleep": 60.0})
        wait(lambda: sched.snapshot()["per_worker"][0]["busy"],
             "the worker busy")
        worker = sched._slots[0].proc
        client = start(lambda: status.update(code=main([
            "submit", "--socket", sock, str(image), "--input", "int:3"])))
        wait(lambda: sched.depth() == 1, "the job queued")
        closer = start(sched.close, drain=False)
        client.join(timeout=30)
        worker.kill()   # end the probe rather than wait out the close
        closer.join(timeout=15)
        blocker.join(timeout=15)
        assert not closer.is_alive() and not blocker.is_alive()
        assert status.get("code") == 2
        err = capsys.readouterr().err
        assert err == ("repro submit: SchedError: scheduler shut down "
                       "before the job ran\n")
        ServeClient(sock, timeout=30).shutdown()
        thread.join(timeout=15)
    finally:
        server.close()
        shutil.rmtree(sockdir, ignore_errors=True)


def test_submit_to_an_unreachable_daemon_exits_2(tmp_path, capsys):
    assert main(["submit", "--socket", str(tmp_path / "none.sock"),
                 "--ping"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro submit: ServeError: cannot reach daemon")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value, expected", [
    (None, False), ("", False), ("0", False), ("false", False),
    ("off", False), ("no", False), ("OFF", False), (" False ", False),
    ("1", True), ("yes", True), (" TRUE ", True), (True, True),
    ("strict", "strict"), (" Strict ", "strict"),
])
def test_check_spellings(monkeypatch, tmp_path, value, expected):
    # `--check MODE` is parsed once, here: the daemon (like the library)
    # receives only False, True or "strict".  None leaves the flag out;
    # True passes it bare.
    from repro.serve import ServeClient
    sent = {}

    def submit(self, **fields):
        sent.update(fields)
        return {"ok": True}

    monkeypatch.setattr(ServeClient, "submit", submit)
    argv = ["submit", "--socket", str(tmp_path / "d.sock"), "p.img.json",
            "--input", "int:1"]
    if value is True:
        argv.append("--check")
    elif value is not None:
        argv += ["--check", value]
    assert main(argv) == 0
    check = (sent["options"] or {}).get("check", False)
    assert check == expected and type(check) is type(expected)


def _serve_refusal(sock: Path, args: list[str]) -> str:
    """``repro serve`` with ``args`` must exit 2 with one stderr line,
    before any worker starts or the socket is bound; returns the line.
    A daemon that did start would serve forever, so it runs in its own
    process group, which a timeout kills whole."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(sock),
         *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True)
    try:
        _out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 2, err
    assert err.startswith("repro serve: ") and err.count("\n") == 1
    assert not sock.exists()
    return err


@pytest.mark.parametrize("numbers", [
    ["--workers", "-1"],
    ["--workers", "2", "--queue-depth", "0"],
    ["--workers", "1", "--job-timeout", "nan"],
], ids=["workers", "queue-depth", "job-timeout"])
def test_serve_rejects_out_of_range_numbers(tmp_path, numbers):
    _serve_refusal(tmp_path / "d.sock",
                   ["--store", str(tmp_path / "store"), *numbers])


@pytest.fixture
def not_a_directory(tmp_path):
    path = tmp_path / "afile"
    path.write_text("not a store")
    return path


@pytest.mark.parametrize("under", [False, True],
                         ids=["a-file", "under-a-file"])
def test_serve_refuses_a_store_root_that_is_not_a_directory(
        tmp_path, not_a_directory, under):
    root = not_a_directory / "store" if under else not_a_directory
    err = _serve_refusal(tmp_path / "d.sock", ["--store", str(root)])
    assert err.startswith(f"repro serve: StoreError: store root {root} "
                          f"is not usable: ")


@pytest.mark.parametrize("under", [False, True],
                         ids=["a-file", "under-a-file"])
def test_recompile_refuses_a_store_root_that_is_not_a_directory(
        source_file, tmp_path, not_a_directory, under, capsys, caplog):
    # One line and status 2, before any work: no entry is reported
    # corrupt and recomputed on the way.
    image = tmp_path / "prog.img.json"
    recovered = tmp_path / "rec.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    capsys.readouterr()
    root = not_a_directory / "store" if under else not_a_directory
    with caplog.at_level(logging.WARNING, logger="repro.store"):
        assert main(["recompile", str(image), "-o", str(recovered),
                     "--input", "int:3", "--store", str(root)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro recompile: StoreError: store root "
                          f"{root} is not usable: ")
    assert err.count("\n") == 1
    assert caplog.records == []
    assert not recovered.exists()


def test_recompile_recomputes_a_truncated_store_entry(
        source_file, tmp_path, capsys, caplog):
    image = tmp_path / "prog.img.json"
    recovered = tmp_path / "rec.img.json"
    store = tmp_path / "store"
    main(["compile", str(source_file), "-o", str(image)])
    argv = ["recompile", str(image), "-o", str(recovered),
            "--input", "int:3", "--store", str(store)]
    assert main(argv) == 0
    results = list((store / "result").glob("*.pkl"))
    assert results
    for entry in results:
        entry.write_bytes(entry.read_bytes()[:16])
    recovered.unlink()
    with caplog.at_level(logging.WARNING, logger="repro.store"):
        assert main(argv) == 0
    assert any("corrupt store entry" in r.getMessage()
               for r in caplog.records)
    assert main(["run", str(recovered), "--input", "int:3"]) == 0
    assert "double=6" in capsys.readouterr().out


def test_recompile_store_without_dir_uses_the_default_root(
        source_file, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.chdir(tmp_path)
    main(["compile", str(source_file), "-o", "prog.img.json"])
    assert main(["recompile", "prog.img.json", "-o", "rec.img.json",
                 "--input", "int:3", "--store"]) == 0
    assert (tmp_path / ".repro_store" / "result").is_dir()
    assert not (tmp_path / "result").exists()


def test_submit_reports_a_broken_store_with_a_typed_error(
        source_file, tmp_path, daemon_socket, capsys):
    # The daemon's store root stops being a directory after it started:
    # the request fails with the store's own error kind, naming the
    # entry it could not write.
    image = tmp_path / "prog.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    capsys.readouterr()
    store = tmp_path / "store"
    shutil.rmtree(store)
    store.write_text("no longer a directory")
    assert main(["submit", "--socket", daemon_socket, str(image),
                 "--input", "int:3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro submit: StoreError: cannot write store "
                          f"entry {store}{os.sep}")
    assert err.count("\n") == 1


def test_explain_command_chains_widening(undertrace_file, tmp_path,
                                         capsys):
    """The provenance query names the coverage-gap finding and the
    widening event behind the grown variable."""
    image = tmp_path / "under.img.json"
    main(["compile", str(undertrace_file), "-o", str(image)])
    assert main(["explain", str(image), "--input", "int:3"]) == 0
    out = capsys.readouterr().out
    assert "coverage-gap" in out
    assert "widened to cover" in out
    assert "seeded by traced ref" in out
    # An unknown --var spec reports the recovered names and exits 1.
    assert main(["explain", str(image), "--input", "int:3",
                 "--var", "fn_0:sv_m4"]) == 1
    assert "matches no recovered variable" in capsys.readouterr().err


def test_ledger_flag_writes_jsonl(source_file, tmp_path):
    import json as _json
    image = tmp_path / "prog.img.json"
    ledger = tmp_path / "events.jsonl"
    main(["compile", str(source_file), "-o", str(image)])
    from repro import obs
    try:
        assert main(["--ledger", str(ledger), "recompile", str(image),
                     "-o", str(tmp_path / "rec.img.json"),
                     "--input", "int:5"]) == 0
    finally:
        obs.disable_ledger()
    docs = obs.read_events(ledger)
    kinds = {d["kind"] for d in docs}
    assert {"run.start", "run.finish", "frame.var.seed",
            "validate.verdict"} <= kinds
    for d in docs:
        _json.dumps(d)  # every line round-trips


def test_obs_diff_command(tmp_path, capsys):
    import json as _json
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = {"version": 2, "spans": [],
            "metrics": {"counters": {"store.miss": 2},
                        "gauges": {}, "histograms": {}, "timers": {},
                        "profiles": {}}}
    other = {"version": 2, "spans": [],
             "metrics": {"counters": {}, "gauges": {},
                         "histograms": {}, "timers": {},
                         "profiles": {}}}
    a.write_text(_json.dumps(base))
    b.write_text(_json.dumps(other))
    assert main(["obs", "diff", str(a), str(b)]) == 0
    assert "store.miss" in capsys.readouterr().out
    assert main(["obs", "diff", str(a), str(b), "--json"]) == 0
    doc = _json.loads(capsys.readouterr().out)
    assert doc["counters"]["removed"] == {"store.miss": 2}


def _bench_json(path, mean):
    import json as _json
    path.write_text(_json.dumps({"benchmarks": [
        {"name": "bench_a", "stats": {"mean": mean, "median": mean},
         "extra_info": {}}]}))
    return str(path)


def test_obs_regress_command_gates(tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", 1.0)
    ok = _bench_json(tmp_path / "ok.json", 1.2)
    slow = _bench_json(tmp_path / "slow.json", 2.0)
    assert main(["obs", "regress", "--baseline", base,
                 "--fresh", ok]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["obs", "regress", "--baseline", base,
                 "--fresh", slow, "--tolerance", "1.5"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "FAIL" in out


@pytest.mark.parametrize("content", ["not json", "[]", '"x"',
                                     '{"metrics": 5}'],
                         ids=["not-json", "a-list", "a-string",
                              "metrics-not-an-object"])
def test_malformed_obs_report_is_one_line_usage_error(tmp_path, capsys,
                                                      content):
    # Exit 1 means a regression; a broken report must read as usage.
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    good = tmp_path / "base.json"
    good.write_text('{"spans": [], "metrics": {}}')
    for argv in (["obs", "diff", str(bad), str(good)],
                 ["obs", "diff", str(good), str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro obs: ReportError: ")
        assert err.count("\n") == 1 and str(bad) in err
    base = _bench_json(tmp_path / "bench.json", 1.0)
    for argv in (["obs", "regress", "--baseline", str(bad),
                  "--fresh", base],
                 ["obs", "regress", "--baseline", base,
                  "--fresh", str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro obs: ReportError: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_obs_regress_rejects_a_tolerance_not_finite_and_positive(
        tmp_path, capsys, tolerance):
    base = _bench_json(tmp_path / "base.json", 1.0)
    slow = _bench_json(tmp_path / "slow.json", 10.0)
    with pytest.raises(SystemExit) as exc:
        main(["obs", "regress", "--baseline", base, "--fresh", slow,
              "--tolerance", tolerance])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tolerance" in err and err.count("\n") == 1


def test_obs_regress_nan_mean_fails_closed(tmp_path, capsys):
    import json as _json
    base = _bench_json(tmp_path / "base.json", 1.0)
    fresh = tmp_path / "nan.json"
    fresh.write_text(_json.dumps({"benchmarks": [
        {"name": "bench_a", "stats": {"mean": float("nan")}}]}))
    assert main(["obs", "regress", "--baseline", base,
                 "--fresh", str(fresh)]) == 1
    assert "REGRESSED" in capsys.readouterr().out
