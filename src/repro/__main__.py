"""Command-line interface: ``python -m repro <command>``.

Commands mirror the toolchain a downstream user needs:

* ``compile``   MiniC source -> binary image (JSON container)
* ``run``       execute a binary image on inputs
* ``recompile`` WYTIWYG-recompile a binary image (or ``--pipeline
  binrec`` / ``secondwrite``); ``--check`` arms the static gate;
  ``--store DIR`` routes the run through the content-addressed
  artifact store so repeated runs reuse traces and results
* ``serve``     run the recompilation daemon: jobs over a Unix socket,
  backed by the artifact store and named campaigns
* ``submit``    client for ``serve``: submit a job (or ``--status`` /
  ``--ping`` / ``--shutdown``) to a running daemon
* ``layout``    print the stack layout WYTIWYG recovers for a binary
* ``check``     run the static corroboration + sanitizer suite on the
  layout the traces alone recover and print the findings (exit 1 on
  errors; ``--strict`` fails on warnings too; ``--widen`` first
  applies the static widening every recompile applies)
* ``explain``   run the layout pipeline with the event ledger on and
  print the provenance chain (seeds, merges, widenings, findings)
  behind each recovered variable (``--var fn_08048000:sv_m8``)
* ``obs diff``  structural diff of two observability JSON reports
* ``obs regress``  perf-regression gate: fresh pytest-benchmark JSONs
  vs committed baselines, exit 1 past tolerance
* ``eval``      regenerate the paper's tables and figures

Inputs are passed as ``--input int:N bytes:TEXT ...``; a ``/`` item
separates multiple runs (e.g. ``--input int:1 / int:2``).

Observability: ``--obs-out report.json`` (or ``REPRO_OBS=1`` in the
environment) activates :mod:`repro.obs` — the command then prints a
per-stage summary table to stderr, and ``--obs-out`` additionally
writes the full JSON report.  ``--ledger events.jsonl`` (or
``REPRO_LEDGER=...``) additionally records the structured event ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import obs
from .baselines import binrec_recompile, secondwrite_recompile
from .binary import BinaryImage
from .cc import compile_source
from .core import wytiwyg_lift, wytiwyg_recompile
from .emu import run_binary, trace_binary
from .errors import LinkError, ReproError, StaticCheckError


def _usage_error(message: str) -> SystemExit:
    """The exit for malformed command-line input: print ``message``
    and exit 2, as argparse does, so a script can tell it from a
    failing ``check`` or an aborted ``recompile`` (status 1)."""
    print(message, file=sys.stderr)
    return SystemExit(2)


def _parse_item(item: str) -> int | bytes:
    if item.startswith("bytes:"):
        return item[6:].encode()
    if item.startswith("int:"):
        try:
            return int(item[4:], 0)
        except ValueError:
            pass
    raise _usage_error(f"bad input spec {item!r} "
                       f"(use int:N, bytes:TEXT, or /)")


def _parse_inputs(spec: list[str]) -> list[list]:
    """['int:3', 'bytes:abc', '/', 'int:9'] -> [[3, b'abc'], [9]]."""
    runs: list[list] = [[]]
    for item in spec:
        if item == "/":
            runs.append([])
        else:
            runs[-1].append(_parse_item(item))
    return runs


def _load_image(path: str) -> BinaryImage:
    """The binary image stored in the file at ``path``; a file that
    holds none raises :class:`~repro.errors.LinkError`."""
    text = Path(path).read_text()
    try:
        return BinaryImage.from_json(text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise LinkError(f"{path} is not a binary image "
                        f"({type(exc).__name__}: {exc})") from None


def cmd_compile(args) -> int:
    source = Path(args.source).read_text()
    image = compile_source(source, args.compiler, args.opt_level,
                           Path(args.source).stem)
    Path(args.output).write_text(image.to_json())
    print(f"compiled {args.source} [{args.compiler} -O{args.opt_level}] "
          f"-> {args.output} ({len(image.text.data)} text bytes)")
    return 0


def cmd_run(args) -> int:
    image = _load_image(args.image)
    runs = _parse_inputs(args.input)
    for items in runs:
        result = run_binary(image, items)
        sys.stdout.write(result.stdout.decode("latin-1"))
        print(f"[exit {result.exit_code}, {result.cycles} cycles]")
    return 0


def cmd_recompile(args) -> int:
    image = _load_image(args.image)
    runs = _parse_inputs(args.input)
    if args.pipeline == "wytiwyg":
        try:
            if args.store is not None:
                from .core.incremental import incremental_recompile
                from .store import ArtifactStore
                result = incremental_recompile(
                    image, runs, ArtifactStore(args.store),
                    check=args.check)
                print(f"  store: served={result.stats.served} "
                      f"traces reused={result.stats.traces_reused} "
                      f"recorded={result.stats.traces_recorded}")
            else:
                result = wytiwyg_recompile(image, runs, check=args.check)
        except StaticCheckError as exc:
            print(f"static check gate aborted recompilation: {exc}",
                  file=sys.stderr)
            if exc.report is not None:
                print(exc.report.render(), file=sys.stderr)
            return 1
        recovered = result.recovered
        for note in result.notes:
            print(f"  {note}")
        if result.fallback:
            print("  (fell back to the unsymbolized pipeline)")
        if result.accuracy is not None:
            acc = result.accuracy
            print(f"  accuracy vs ground truth: "
                  f"P={acc.precision:.0%} R={acc.recall:.0%}")
    elif args.pipeline == "binrec":
        recovered = binrec_recompile(image.stripped(), runs)
    else:
        recovered = secondwrite_recompile(image.stripped()).recovered
    Path(args.output).write_text(recovered.to_json())
    print(f"recompiled [{args.pipeline}] -> {args.output}")
    return 0


def cmd_serve(args) -> int:
    from .serve import RecompileServer
    server = RecompileServer(args.socket, store=args.store,
                             workers=args.workers,
                             queue_depth=args.queue_depth,
                             job_timeout=args.job_timeout)
    pool = (f", workers={server.workers}" if server.workers else "")
    print(f"repro serve: listening on {args.socket} "
          f"(store {server.store.root}{pool})",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    print("repro serve: stopped", file=sys.stderr)
    return 0


def cmd_submit(args) -> int:
    from .serve import ServeClient
    client = ServeClient(args.socket, timeout=args.timeout)
    if args.ping:
        response = client.ping()
    elif args.status:
        response = client.status()
    elif args.shutdown:
        response = client.shutdown()
    elif args.campaign_info:
        response = client.campaign(args.campaign_info)
    else:
        if args.image is None and args.campaign is None:
            raise _usage_error("submit needs an IMAGE (or --campaign "
                               "with a stored image, or --ping/--status/"
                               "--shutdown)")
        runs = _parse_inputs(args.input) if args.input else []
        options = {}
        if args.no_optimize:
            options["optimize"] = False
        if args.check is not None:
            options["check"] = args.check
        response = client.submit(
            image=args.image, inputs=runs, campaign=args.campaign,
            options=options or None, output=args.output)
    print(json.dumps(response, indent=2, default=repr))
    return 0


def _parse_size(text: str) -> int:
    """A finite, non-negative byte count with an optional K/M/G suffix
    (binary units)."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    text = text.strip().lower().removesuffix("b")
    factor = units.get(text[-1:], None)
    if factor is not None:
        text = text[:-1]
    try:
        size = float(text) * (factor or 1)
        if 0 <= size < float("inf"):   # not nan, inf or negative
            return int(size)
    except ValueError:
        pass
    raise _usage_error(f"bad size {text!r}: use bytes or a K/M/G "
                       f"suffix (e.g. 512M)")


def cmd_store_gc(args) -> int:
    from .store import ArtifactStore
    store = ArtifactStore(args.store)
    summary = store.gc(_parse_size(args.max_bytes),
                       pin_campaigns=not args.no_pin,
                       dry_run=args.dry_run)
    verb = "would evict" if args.dry_run else "evicted"
    print(f"store gc [{store.root}]: {verb} {summary['evicted']} "
          f"entries ({summary['evicted_bytes']} bytes), "
          f"{summary['after_bytes']}/{summary['limit_bytes']} bytes "
          f"kept, {summary['pinned_kept']} campaign-pinned skipped",
          file=sys.stderr if args.json else sys.stdout)
    if args.json:
        print(json.dumps(summary, indent=2))
    return 0


def cmd_layout(args) -> int:
    image = _load_image(args.image)
    runs = _parse_inputs(args.input)
    result = wytiwyg_recompile(image, runs, optimize=False)
    for name, layout in sorted(result.layouts.items()):
        if not layout.variables:
            continue
        print(f"{name}:")
        for var in layout.variables:
            print(f"  [{var.start:6d}, {var.end:6d})  "
                  f"{var.end - var.start:4d} bytes  align {var.align}")
    if result.accuracy is not None:
        acc = result.accuracy
        print(f"accuracy vs ground truth: {acc.counts} "
              f"(P={acc.precision:.0%} R={acc.recall:.0%})")
    return 0


def cmd_check(args) -> int:
    image = _load_image(args.image)
    runs = _parse_inputs(args.input)
    traces = trace_binary(image, runs)
    _module, _layouts, _notes, report = wytiwyg_lift(
        traces, static_widen=args.widen)
    print(report.render())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"check report written to {args.json}")
    counts = report.counts()
    failing = counts["error"]
    if args.strict:
        failing += counts["warning"]
    return 1 if failing else 0


def cmd_explain(args) -> int:
    image = _load_image(args.image)
    runs = _parse_inputs(args.input)
    # The provenance query needs the event stream of *this* run: unless
    # the user pointed the ledger at a file, record in memory.
    led = obs.ledger()
    owned = led is None
    if owned:
        led = obs.enable_ledger()
    try:
        result = wytiwyg_recompile(
            image, runs, optimize=False, collect_accuracy=False)
        events = (led.events if led.path is None
                  else obs.read_events(led.path))
        try:
            pairs = list(obs.select_variables(result.layouts, args.var))
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        for func, var in pairs:
            prov = obs.explain_variable(events, func,
                                        (var.start, var.end), var.name)
            print(obs.render_provenance(prov))
    finally:
        if owned:
            obs.disable_ledger()
    return 0


def cmd_obs_diff(args) -> int:
    a = obs.load_report(args.a)
    b = obs.load_report(args.b)
    diff = obs.diff_reports(a, b, ratio_threshold=args.ratio_threshold)
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(obs.render_diff(diff))
    return 0


def cmd_obs_regress(args) -> int:
    baseline = obs.load_benchmarks(args.baseline)
    fresh = obs.load_benchmarks(args.fresh)
    try:
        result = obs.regress(baseline, fresh, tolerance=args.tolerance)
    except ValueError as exc:      # a --tolerance not finite and > 0
        raise _usage_error(f"repro obs regress: --tolerance: {exc}") \
            from None
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(obs.render_regress(result))
    return 0 if result["ok"] else 1


def cmd_eval(args) -> int:
    from examples.run_paper_eval import main as eval_main  # pragma: no cover
    return eval_main(["--full"] if args.full else [])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--obs-out", metavar="PATH", default=None,
        help="enable observability and write the JSON report here "
             "(a per-stage summary also goes to stderr)")
    parser.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="record the structured event ledger (JSONL) to this file "
             "(equivalent to REPRO_LEDGER=PATH)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile MiniC to a binary image")
    p.add_argument("source")
    p.add_argument("-o", "--output", default="a.img.json")
    p.add_argument("--compiler", default="gcc12",
                   choices=("gcc12", "gcc44", "clang16"))
    p.add_argument("--opt-level", default="3", choices=("0", "3"))
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="execute a binary image")
    p.add_argument("image")
    p.add_argument("--input", nargs="*", default=[])
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("recompile", help="lift and recompile an image")
    p.add_argument("image")
    p.add_argument("-o", "--output", default="recovered.img.json")
    p.add_argument("--pipeline", default="wytiwyg",
                   choices=("wytiwyg", "binrec", "secondwrite"))
    p.add_argument("--input", nargs="*", default=[])
    p.add_argument("--check", nargs="?", const="1", default=None,
                   metavar="MODE",
                   help="arm the static check gate: error findings "
                        "abort before optimization (pass 'strict' to "
                        "abort on warnings too)")
    p.add_argument("--store", metavar="DIR", nargs="?",
                   const="", default=None,
                   help="route the run through the content-addressed "
                        "artifact store at DIR (default $REPRO_STORE "
                        "or .repro_store): repeated runs reuse traces "
                        "and results")
    p.set_defaults(func=cmd_recompile)

    p = sub.add_parser(
        "serve",
        help="recompilation daemon: jobs over a local Unix socket")
    p.add_argument("--socket", default=".repro-serve.sock",
                   metavar="PATH", help="Unix socket path to listen on")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="artifact store root (default $REPRO_STORE "
                        "or .repro_store)")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="run jobs on a pool of N long-lived worker "
                        "processes with image affinity "
                        "(default 0: jobs serialize in-process)")
    p.add_argument("--queue-depth", type=int, default=None, metavar="N",
                   help="bound the scheduler's job queue (default "
                        "4 per worker); submissions past it are "
                        "rejected with a retry hint")
    p.add_argument("--job-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-job wall-clock limit (needs --workers): "
                        "an overrunning job fails and its worker is "
                        "recycled")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a job to a running repro serve daemon")
    p.add_argument("image", nargs="?", default=None,
                   help="binary image to recompile (optional when the "
                        "campaign already has a stored image)")
    p.add_argument("--socket", default=".repro-serve.sock",
                   metavar="PATH", help="daemon socket path")
    p.add_argument("--input", nargs="*", default=[])
    p.add_argument("--campaign", default=None, metavar="NAME",
                   help="accumulate inputs into this named campaign "
                        "and run over its full input set")
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="write the recovered image here (server-side)")
    p.add_argument("--no-optimize", action="store_true",
                   help="skip the optimizer stage")
    p.add_argument("--check", nargs="?", const="1", default=None,
                   metavar="MODE", help="arm the static check gate")
    p.add_argument("--timeout", type=float, default=600.0,
                   metavar="SECONDS", help="client-side timeout")
    p.add_argument("--ping", action="store_true",
                   help="liveness probe instead of a job")
    p.add_argument("--status", action="store_true",
                   help="daemon counters + store stats instead of a job")
    p.add_argument("--shutdown", action="store_true",
                   help="stop the daemon instead of submitting a job")
    p.add_argument("--campaign-info", default=None, metavar="NAME",
                   help="print one campaign's summary instead of a job")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "store", help="artifact-store maintenance (gc)")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    q = store_sub.add_parser(
        "gc",
        help="evict least-recently-used artifacts down to a byte cap")
    q.add_argument("--max-bytes", required=True, metavar="SIZE",
                   help="target store size (bytes, or K/M/G suffix)")
    q.add_argument("--store", default=None, metavar="DIR",
                   help="store root (default $REPRO_STORE or "
                        ".repro_store)")
    q.add_argument("--dry-run", action="store_true",
                   help="report what would be evicted, delete nothing")
    q.add_argument("--no-pin", action="store_true",
                   help="allow evicting campaign sources and traces "
                        "(breaks image-less campaign resubmission)")
    q.add_argument("--json", action="store_true",
                   help="also print the full summary as JSON")
    q.set_defaults(func=cmd_store_gc)

    p = sub.add_parser("layout", help="print recovered stack layouts")
    p.add_argument("image")
    p.add_argument("--input", nargs="*", default=[])
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser(
        "check",
        help="static corroboration + sanitizer findings for an image")
    p.add_argument("image")
    p.add_argument("--input", nargs="*", default=[])
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on warnings as well as errors")
    p.add_argument("--widen", action="store_true",
                   help="apply the widening suggestions before "
                        "reporting, as every recompile does")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the report as JSON")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "explain",
        help="provenance chain behind recovered stack variables")
    p.add_argument("image")
    p.add_argument("--input", nargs="*", default=[])
    p.add_argument("--var", metavar="SPEC", default=None,
                   help="which variable(s) to explain: FUNC:NAME one "
                        "variable (e.g. fn_08048000:sv_m8), NAME every "
                        "function's variable of that name, FUNC the "
                        "whole frame; default: everything")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "obs", help="observability artifact tools (diff, regress)")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "diff", help="structural diff of two obs JSON reports")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("--ratio-threshold", type=float, default=0.2,
                   metavar="R",
                   help="ignore timer/histogram mean shifts below this "
                        "relative change (default 0.2)")
    q.add_argument("--json", action="store_true",
                   help="print the diff as JSON instead of text")
    q.set_defaults(func=cmd_obs_diff)

    q = obs_sub.add_parser(
        "regress",
        help="perf gate: fresh pytest-benchmark JSONs vs baselines")
    q.add_argument("--baseline", nargs="+", required=True,
                   metavar="JSON",
                   help="committed baseline pytest-benchmark JSON(s)")
    q.add_argument("--fresh", nargs="+", required=True, metavar="JSON",
                   help="freshly produced pytest-benchmark JSON(s)")
    q.add_argument("--tolerance", type=float, default=1.5, metavar="X",
                   help="fail when fresh mean > X * baseline mean "
                        "(default 1.5)")
    q.add_argument("--json", action="store_true",
                   help="print the verdict as JSON instead of text")
    q.set_defaults(func=cmd_obs_regress)

    p = sub.add_parser("eval", help="regenerate the paper's evaluation")
    p.add_argument("--full", action="store_true")
    p.set_defaults(func=cmd_eval)

    args = parser.parse_args(argv)
    if args.obs_out:
        obs.enable()
    if args.ledger:
        obs.enable_ledger(args.ledger)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone (``repro run ... | head -1``).
        # Point stdout at /dev/null so the interpreter's final flush
        # cannot fail again, and exit with the status a shell reports
        # for a writer SIGPIPE ended (128 + 13).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        status = 141
    except (ReproError, OSError) as exc:
        # Bad input (a missing or malformed image, a MiniC error, no
        # traced runs): one line, not a traceback.
        print(f"repro {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        status = 2
    finally:
        if args.ledger:
            obs.disable_ledger()
    rec = obs.recorder()
    if rec is not None:
        doc = obs.export(rec)
        if args.obs_out:
            obs.write_json(rec, args.obs_out)
            print(f"observability report written to {args.obs_out}",
                  file=sys.stderr)
        print(obs.summary(doc), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
