"""The ``python -m repro`` command-line interface."""

import os
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
           if k not in ("PYTHONUNBUFFERED", "REPRO_OBS", "REPRO_LEDGER")}
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
    (None, "FileNotFoundError"),
    ('{"entry": 0}', "LinkError"),
    ("not json", "LinkError"),
    ("[1, 2]", "LinkError"),
], ids=["missing", "not-an-image", "not-json", "a-list"])
def test_bad_image_file_is_one_line_error(tmp_path, capsys, content, kind):
    path = tmp_path / "img.json"
    if content is not None:
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
