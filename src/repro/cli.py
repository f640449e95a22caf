"""Command-line interface: ``python -m repro <command>``.

Every query-shaped command routes through the :class:`repro.api.Session`
facade - the same facade the ``repro serve`` daemon answers from - so
batch stdout and served payloads are byte-identical by construction.

Commands
--------

``run <file.mc>``
    Compile and execute a MiniC source file; print its output.
``disasm <file.mc>``
    Compile a MiniC source file and print the generated assembly.
``workloads``
    List the built-in workload suite.
``regions [names...]``
    Region-locality profile (Figure 2 / Table 2 style) per workload
    (named ``profile`` before the span profiler took that name).
``predict [--scheme NAME] [names...]``
    Access-region prediction accuracy per workload.
``timing [names...]``
    Figure 8 configurations on the chosen workloads.
``experiment <id> [names...]``
    Run one paper experiment (table1, figure2, table2, figure4,
    table3, figure5, section33, figure8) or ablation/extension
    (a1..a8) and print its table.  Every experiment id is also a
    top-level alias: ``repro figure4`` == ``repro experiment figure4``.
``stats <id> [names...] [--format table|json|csv] [--check]``
    Run an experiment with metrics collection enabled and print the
    collected per-cell metrics.  ``--check`` exits non-zero if any
    registered metric is NaN or negative.
``profile <run...> [--chrome FILE] [--request ID]``
    Aggregate ``--trace-spans`` run directories into a wall-clock
    span tree and optionally export Chrome trace-event / Perfetto
    JSON.  ``--request ID`` instead merges the spans stamped with one
    client ``request_id`` across *all* the given runs into a single
    wall-clock timeline - e.g. the journals of two supervised daemon
    incarnations either side of a crash.
``serve [--port P] [--warm W[@S] ...] [--telemetry FILE]``
    Long-running daemon keeping traces and predictor state resident
    in memory, answering predict/regions/timing/experiment queries
    from many concurrent clients over a line-JSON TCP/Unix socket
    (admission control, latency histograms, health/stats/metrics
    endpoints; ``--telemetry`` samples the serving metrics into a
    bounded JSONL ring buffer).
``top [--port P | --unix-socket PATH]``
    Live terminal dashboard for a running daemon: subscribes to the
    ``stats --stream`` op and renders QPS, latency quantiles, LRU
    hit rate, shed counters, and the admission state per frame.
``bench load [--clients N] [--count M] [--scenario thrash]``
    Multiprocess load generator against a running daemon; reports
    p50/p95/p99 latency and sustained QPS into ``BENCH_serve.json``
    (``--scenario thrash`` drills admission shedding).  Speed claims
    come from the repository benchmark, ``benchmarks/perf``.

Exit codes
----------

``0`` success - except ``repro run``, which propagates the simulated
program's own exit code.  ``2`` validation errors (unknown workload or
experiment, malformed flags, missing input files).  ``1`` runtime
failures (cell failures after retries, connection failures, crashes).
``repro --version`` prints the package version.

Shared flags
------------

Every trace-consuming command accepts the same flags via a shared
parent parser:

``--scale S``        workload scale (per-command default when omitted)
``--jobs N``         fan independent workload cells across N processes
``--shard-rows R``   stream traces as bounded R-row shards so peak
                     memory stays independent of trace length; the
                     engine fans experiment cells out over
                     (workload, shard) pairs (0 = off)
``--trace-cache DIR`` archive functional traces on disk for reuse
``--metrics-out FILE`` collect metrics and export them to FILE
                     (JSON, or CSV when FILE ends in ``.csv``)
``--checkpoint DIR`` journal completed cells to DIR; a re-run resumes
                     with only the missing cells
``--inject-fault SPEC`` deterministic fault-injection drill (worker
                     crashes, cell failures, stalls, cache corruption;
                     see ``repro.testing.faults``)
``--trace-spans DIR`` write a run manifest and hierarchical span
                     journal to DIR (``repro profile DIR`` reads it);
                     purely additive - results stay byte-identical

``experiment`` (and every experiment alias) also takes ``--verbose``:
it journals spans - into the ``--trace-spans`` directory if given,
else into a temporary directory removed afterwards - and prints the
stage report rendered from that journal to stderr
(:func:`repro.obs.profile.render_stage_report`).
"""

from __future__ import annotations

import argparse
import atexit
import signal
import sys
import tempfile
import threading
import traceback
from contextlib import ExitStack
from pathlib import Path
from typing import List, Optional, Tuple

from repro import __version__, api, config, metrics
from repro.compiler import compile_source
from repro.cpu import run_program
from repro.eval import engine, reporting
from repro.metrics import export
from repro.obs import manifest as run_manifest
from repro.obs import profile as obs_profile
from repro.obs import spans
from repro.testing import faults as fault_injection
from repro.workloads import suite

_STATS_FORMATS = ("table", "json", "csv")


def _positive_jobs(text: str) -> int:
    """``--jobs`` values must be integers >= 1 - anything else is a
    user error, not something to silently coerce."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid --jobs value {text!r} (expected an integer >= 1)")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 1, got {value}")
    return value


def _shard_rows(text: str) -> int:
    """``--shard-rows`` values must be integers >= 0 (0 = off)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid --shard-rows value {text!r} (expected an "
            f"integer >= 0; 0 disables sharding)")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--shard-rows must be >= 0, got {value}")
    return value


def _fault_spec(text: str) -> str:
    """Validate ``--inject-fault`` at parse time for a clear error."""
    try:
        fault_injection.parse_spec(text)
    except fault_injection.SpecError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _common_parser() -> argparse.ArgumentParser:
    """The shared parent parser: one flag spelling for every command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale", type=float, default=None, metavar="S",
        help="workload scale factor (default: per-command)")
    common.add_argument(
        "--jobs", type=_positive_jobs, default=None, metavar="N",
        help="run independent workload cells across N processes "
             "(default: $REPRO_JOBS or 1)")
    common.add_argument(
        "--trace-cache", metavar="DIR", default=None,
        help="archive functional traces in DIR and reuse them on "
             "later runs (default: $REPRO_TRACE_CACHE)")
    common.add_argument(
        "--shard-rows", type=_shard_rows, default=None, metavar="R",
        help="stream traces as bounded R-row shards so peak memory "
             "stays independent of trace length; 0 disables "
             "(default: $REPRO_SHARD_ROWS or off)")
    common.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="collect metrics during the run and export them to FILE "
             "(JSON, or CSV when FILE ends in .csv)")
    common.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="journal completed cells to DIR so an interrupted run "
             "resumes with only the missing cells")
    common.add_argument(
        "--inject-fault", metavar="SPEC", type=_fault_spec,
        default=None,
        help="deterministic fault-injection drill, e.g. "
             "'crash:index=1' or 'corrupt:name=db_vortex' "
             "(default: $REPRO_INJECT_FAULT)")
    common.add_argument(
        "--trace-spans", metavar="DIR", default=None,
        help="write a run manifest and span journal to DIR for "
             "'repro profile DIR' (default: $REPRO_TRACE_SPANS)")
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Access Region Locality (MICRO 1999) reproduction")
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parser()

    run = sub.add_parser("run", help="compile and execute a MiniC file")
    run.add_argument("source", type=Path)
    run.set_defaults(handler=_cmd_run)

    disasm = sub.add_parser("disasm", help="print generated assembly")
    disasm.add_argument("source", type=Path)
    disasm.set_defaults(handler=_cmd_disasm)

    workloads = sub.add_parser("workloads", help="list the workload suite")
    workloads.set_defaults(handler=_cmd_workloads)

    regions = sub.add_parser("regions", parents=[common],
                             help="region-locality profile")
    regions.add_argument("names", nargs="*", default=[])
    regions.set_defaults(handler=_cmd_regions,
                         default_scale=api.DEFAULT_REGIONS_SCALE)

    predict = sub.add_parser("predict", parents=[common],
                             help="prediction accuracy")
    predict.add_argument("names", nargs="*", default=[])
    predict.add_argument("--scheme", default=api.DEFAULT_SCHEME)
    predict.set_defaults(handler=_cmd_predict,
                         default_scale=api.DEFAULT_PREDICT_SCALE)

    timing = sub.add_parser("timing", parents=[common],
                            help="Figure 8 configurations")
    timing.add_argument("names", nargs="*", default=[])
    timing.set_defaults(handler=_cmd_timing,
                        default_scale=api.DEFAULT_TIMING_SCALE)

    experiment = sub.add_parser("experiment", parents=[common],
                                help="run a paper experiment")
    experiment.add_argument("id", choices=list(api.EXPERIMENT_IDS))
    experiment.add_argument("names", nargs="*", default=[])
    experiment.add_argument(
        "--verbose", action="store_true",
        help="journal spans and print the stage report read from "
             "them (cache outcomes, seconds per span name, per-cell "
             "lines) to stderr")
    experiment.set_defaults(handler=_cmd_experiment,
                            default_scale=api.DEFAULT_EXPERIMENT_SCALE)

    stats = sub.add_parser(
        "stats", parents=[common],
        help="run an experiment and print its collected metrics")
    stats.add_argument("id", choices=list(api.EXPERIMENT_IDS))
    stats.add_argument("names", nargs="*", default=[])
    stats.add_argument("--format", choices=_STATS_FORMATS,
                       default="table")
    stats.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any registered metric is NaN or negative")
    stats.set_defaults(handler=_cmd_stats,
                       default_scale=api.DEFAULT_EXPERIMENT_SCALE)

    profile = sub.add_parser(
        "profile",
        help="aggregate a --trace-spans run: span tree, Perfetto "
             "export")
    profile.add_argument(
        "runs", nargs="+", type=Path, metavar="run",
        help="run directory written by --trace-spans (or a bare "
             "spans.jsonl file); several merge for --request")
    profile.add_argument(
        "--request", metavar="ID", default=None,
        help="render the merged cross-incarnation timeline of one "
             "client request_id instead of the span tree")
    profile.add_argument(
        "--chrome", metavar="FILE", type=Path, default=None,
        help="also export Chrome trace-event JSON (loadable in "
             "Perfetto / chrome://tracing)")
    profile.set_defaults(handler=_cmd_profile)

    serve = sub.add_parser(
        "serve", parents=[common],
        help="serve predict/regions/timing/experiment queries from a "
             "resident session over a line-JSON socket")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address [%(default)s]")
    serve.add_argument("--port", type=int, default=None, metavar="P",
                       help="TCP port (0 = ephemeral) "
                            "[default: 7907]")
    serve.add_argument("--unix-socket", metavar="PATH", default=None,
                       help="serve on a Unix-domain socket instead "
                            "of TCP")
    serve.add_argument("--workers", type=_positive_jobs, default=8,
                       metavar="N",
                       help="max concurrently executing requests "
                            "[%(default)s]")
    serve.add_argument("--queue", type=int, default=16, metavar="D",
                       help="admission queue depth; requests beyond "
                            "workers+queue are rejected with a 503 "
                            "response [%(default)s]")
    serve.add_argument("--warm", action="append", default=[],
                       metavar="WORKLOAD[@SCALE]",
                       help="pre-warm this workload's trace before "
                            "accepting traffic ('all' = full suite; "
                            "scale defaults to --scale); repeatable")
    serve.add_argument("--port-file", metavar="FILE", default=None,
                       help="write the bound TCP port to FILE once "
                            "the daemon is warmed and serving "
                            "(removed again on exit)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS", dest="serve_deadline_ms",
                       help="default per-request deadline when the "
                            "client sets no timeout_ms; past it the "
                            "request gets a 504 with partial stage "
                            "timings (0 = off) [default: "
                            "$REPRO_SERVE_DEADLINE_MS or off]")
    serve.add_argument("--idle-timeout", type=float, default=30.0,
                       metavar="S",
                       help="drop (and count) connections whose "
                            "partial request line stalls longer than "
                            "S seconds [%(default)s]")
    serve.add_argument("--max-resident", type=_positive_jobs,
                       default=16, metavar="N",
                       help="resident trace LRU capacity; churn "
                            "beyond it drives the degraded/shedding "
                            "state [%(default)s]")
    serve.add_argument("--warm-manifest", metavar="FILE", default=None,
                       help="persist the resident warm set to FILE as "
                            "it changes and re-warm from it at "
                            "startup, so a (supervised) restart "
                            "recovers its working set")
    serve.add_argument("--telemetry", metavar="FILE", default=None,
                       help="sample the serving metrics into FILE "
                            "every --telemetry-interval seconds as a "
                            "bounded JSONL ring buffer (rotates to "
                            "FILE.old past $REPRO_TELEMETRY_MAX_BYTES)")
    serve.add_argument("--telemetry-interval", type=float, default=5.0,
                       metavar="S",
                       help="seconds between telemetry samples "
                            "[%(default)s]")
    serve.add_argument("--supervise", action="store_true",
                       help="run the daemon as a supervised child "
                            "process: restart it on crash with "
                            "exponential backoff, give up after "
                            "repeated rapid failures (crash-loop "
                            "breaker)")
    serve.set_defaults(handler=_cmd_serve,
                       default_scale=api.DEFAULT_PREDICT_SCALE)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard for a running 'repro serve' "
             "daemon (subscribes to its stats --stream op)")
    top.add_argument("--host", default="127.0.0.1",
                     help="daemon address [%(default)s]")
    top.add_argument("--port", type=int, default=None, metavar="P",
                     help="daemon TCP port [default: 7907]")
    top.add_argument("--unix-socket", metavar="PATH", default=None,
                     help="connect over a Unix-domain socket instead "
                          "of TCP")
    top.add_argument("--interval", type=float, default=1.0,
                     metavar="S",
                     help="seconds between frames [%(default)s]")
    top.add_argument("--count", type=int, default=0, metavar="N",
                     help="exit after N frames (0 = until "
                          "interrupted) [%(default)s]")
    top.add_argument("--no-color", action="store_true",
                     help="plain text even on a TTY (also disables "
                          "the per-frame screen clear)")
    top.set_defaults(handler=_cmd_top)

    bench = sub.add_parser("bench", help="serving benchmarks")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    load = bench_sub.add_parser(
        "load", help="multiprocess load generator against a running "
                     "'repro serve' daemon")
    load.add_argument("--clients", type=_positive_jobs, default=4,
                      metavar="N", help="client processes [%(default)s]")
    load.add_argument("--count", type=_positive_jobs, default=50,
                      metavar="M",
                      help="requests per client [%(default)s]")
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, default=None,
                      help="daemon TCP port [default: 7907]")
    load.add_argument("--unix-socket", metavar="PATH", default=None)
    load.add_argument("--op", default="predict",
                      choices=("predict", "regions", "timing",
                               "experiment"),
                      help="request type to issue [%(default)s]")
    load.add_argument("--workloads", nargs="+", default=["db_vortex"],
                      metavar="NAME",
                      help="workload names in each request "
                           "[%(default)s]")
    load.add_argument("--scale", type=float, default=0.2,
                      help="workload scale in each request "
                           "[%(default)s]")
    load.add_argument("--scheme", default=api.DEFAULT_SCHEME,
                      help="prediction scheme for --op predict "
                           "[%(default)s]")
    load.add_argument("--experiment", default="table1",
                      choices=list(api.EXPERIMENT_IDS),
                      help="experiment id for --op experiment "
                           "[%(default)s]")
    load.add_argument("--scenario", default="uniform",
                      choices=("uniform", "thrash"),
                      help="'uniform' = identical requests from every "
                           "client; 'thrash' = the backpressure drill "
                           "(cheap memoised load plus cold-churn "
                           "clients; run against a daemon with a "
                           "small --max-resident) [%(default)s]")
    load.add_argument("--out", default="BENCH_serve.json",
                      metavar="FILE",
                      help="write the JSON load report to FILE "
                           "[%(default)s]")
    load.set_defaults(handler=_cmd_bench_load)

    # Every experiment id as a top-level alias:
    # ``repro figure4`` == ``repro experiment figure4``.
    for experiment_id in api.EXPERIMENT_IDS:
        alias = sub.add_parser(experiment_id, parents=[common])
        alias.add_argument("names", nargs="*", default=[])
        alias.add_argument("--verbose", action="store_true")
        alias.set_defaults(handler=_cmd_experiment, id=experiment_id,
                           default_scale=api.DEFAULT_EXPERIMENT_SCALE)

    return parser


# -- shared plumbing ----------------------------------------------------

#: Flags whose destinations are :class:`repro.config.Config` fields.
_CONFIG_FLAGS = ("jobs", "trace_cache", "shard_rows", "checkpoint",
                 "inject_fault", "trace_spans", "serve_deadline_ms")


def _install_config(args) -> config.Config:
    """The run's configuration - flag > ``REPRO_*`` > default - built
    once and installed process-wide."""
    flags = {name: getattr(args, name) for name in _CONFIG_FLAGS
             if getattr(args, name, None) is not None}
    return config.install(config.Config.from_env().replace(**flags))


def _apply_common(args) -> None:
    """Fresh per-run accumulators (the flags live in the config)."""
    engine.reset_fault_stats()
    engine.take_metrics()           # drop any stale per-cell snapshots
    if getattr(args, "metrics_out", None):
        metrics.enable()


def _scale(args) -> float:
    return args.scale if args.scale is not None else args.default_scale


def _export_metrics(args, experiment: str, scale: float, cells) -> None:
    """Write the ``--metrics-out`` export and deactivate collection."""
    if not getattr(args, "metrics_out", None):
        return
    document = export.experiment_document(
        experiment, scale, cells,
        resilience=engine.resilience_snapshot())
    path = export.write_document(document, args.metrics_out)
    print(f"metrics written to {path}", file=sys.stderr)
    metrics.disable()


# -- command handlers ---------------------------------------------------

def _cmd_run(args) -> int:
    compiled = compile_source(args.source.read_text(), args.source.stem)
    trace = run_program(compiled)
    for value in trace.output:
        print(value)
    print(f"# {len(trace):,} instructions, exit code {trace.exit_code}",
          file=sys.stderr)
    return trace.exit_code


def _cmd_disasm(args) -> int:
    compiled = compile_source(args.source.read_text(), args.source.stem)
    program = compiled.program
    by_index = {index: name for name, index in program.labels.items()}
    for index, instruction in enumerate(program.instructions):
        if index in by_index:
            print(f"{by_index[index]}:")
        print(f"  {program.pc_of_index(index):#010x}  {instruction}")
    return 0


def _cmd_workloads(_args) -> int:
    print(f"{'name':<12} {'mirrors':<12} {'kind':<5} description")
    for name in suite.ALL_WORKLOADS:
        spec = suite.spec(name)
        print(f"{name:<12} {spec.mirrors:<12} {spec.kind:<5} "
              f"{spec.description}")
    return 0


def _cmd_regions(args) -> int:
    _apply_common(args)
    response = api.Session().regions(api.RegionsRequest(
        names=tuple(args.names), scale=_scale(args)))
    for line in response.lines:
        print(line)
    _export_metrics(args, "regions", response.request.scale,
                    engine.take_metrics())
    return 0


def _cmd_profile(args) -> int:
    """Aggregate span journals: tree and Chrome export, or
    (``--request``) one request's cross-incarnation timeline."""
    try:
        runs = obs_profile.load_runs(args.runs)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.request:
        timeline = obs_profile.request_timeline(runs, args.request)
        print(obs_profile.render_request_timeline(timeline))
        return 0 if timeline.entries else 1
    # Export before printing: the artifact still lands when stdout is
    # piped into a pager/head that closes early.
    if args.chrome is not None:
        path = obs_profile.write_chrome(runs[0], args.chrome)
        print(f"chrome trace written to {path}", file=sys.stderr)
    for index, run in enumerate(runs):
        if index:
            print()
        print(obs_profile.render_tree(run))
    return 0


def _cmd_predict(args) -> int:
    _apply_common(args)
    response = api.Session().predict(api.PredictRequest(
        names=tuple(args.names), scale=_scale(args),
        scheme=args.scheme))
    for line in response.lines:
        print(line)
    _export_metrics(args, "predict", response.request.scale,
                    engine.take_metrics())
    return 0


def _cmd_timing(args) -> int:
    _apply_common(args)
    response = api.Session().timing(api.TimingRequest(
        names=tuple(args.names), scale=_scale(args)))
    for block in response.lines:
        print(block)
    _export_metrics(args, "timing", response.request.scale,
                    engine.take_metrics())
    return 0


def _run_experiment(args):
    """Run the selected driver through the Session facade."""
    response = api.Session().experiment(api.ExperimentRequest(
        experiment=args.id, names=tuple(args.names),
        scale=_scale(args)))
    return response.result, response.request.scale


def _cmd_experiment(args) -> int:
    _apply_common(args)
    result, scale = _run_experiment(args)
    print(result.render())
    _export_metrics(args, args.id, scale, result.metrics)
    return 0


def _metrics_table(document: dict) -> str:
    """Human-readable summary table of an export document."""
    rows = []
    sections = sorted(document["cells"].items())
    if len(sections) > 1:
        sections.append(("TOTAL", document["totals"]))
    for cell, snapshot in sections:
        for name in sorted(snapshot):
            entry = snapshot[name]
            rows.append([cell, name, entry["kind"],
                         export.summarize_entry(entry)])
    return reporting.format_table(
        ["cell", "metric", "kind", "value"], rows,
        title=f"Metrics: {document['experiment']} "
              f"@ scale {document['scale']}")


def _cmd_stats(args) -> int:
    _apply_common(args)
    metrics.enable()        # stats always collects, even without a file
    try:
        result, scale = _run_experiment(args)
    finally:
        metrics.disable()
    document = export.experiment_document(
        args.id, scale, result.metrics,
        resilience=engine.resilience_snapshot())
    if args.format == "json":
        sys.stdout.write(export.to_json(document))
    elif args.format == "csv":
        sys.stdout.write(export.to_csv(document))
    else:
        print(_metrics_table(document))
    if args.metrics_out:
        path = export.write_document(document, args.metrics_out)
        print(f"metrics written to {path}", file=sys.stderr)
    if args.check:
        problems = export.validate(document)
        for problem in problems:
            print(f"invalid metric: {problem}", file=sys.stderr)
        if problems:
            return 1
    return 0


# -- serving ------------------------------------------------------------

def _parse_warm(specs: List[str],
                default_scale: float) -> List[Tuple[str, float]]:
    """``--warm WORKLOAD[@SCALE]`` entries as (name, scale) pairs."""
    pairs: List[Tuple[str, float]] = []
    for text in specs:
        name, _, scale_text = text.partition("@")
        if scale_text:
            try:
                scale = float(scale_text)
            except ValueError:
                raise ValueError(
                    f"invalid --warm spec {text!r} (expected "
                    f"WORKLOAD or WORKLOAD@SCALE)") from None
        else:
            scale = default_scale
        names = suite.ALL_WORKLOADS if name in ("all", "*") else (name,)
        for workload in names:
            suite.spec(workload)    # raises with the known-name list
            pairs.append((workload, scale))
    return pairs


def _remove_file_quietly(path) -> None:
    try:
        Path(path).unlink()
    except OSError:
        pass


def _cmd_serve(args) -> int:
    if args.supervise:
        return _cmd_serve_supervised(args)
    from repro.serve.server import (DEFAULT_PORT, ReproServer,
                                    read_warm_manifest)
    _apply_common(args)
    pairs = _parse_warm(args.warm, _scale(args))
    if args.warm_manifest:
        # Re-warm the previous incarnation's working set (best-effort;
        # a missing or corrupt manifest just starts cold).
        known = set(pairs)
        for pair in read_warm_manifest(args.warm_manifest):
            if pair not in known:
                pairs.append(pair)
                known.add(pair)
    port = args.port if args.port is not None else DEFAULT_PORT
    session = api.Session(resident=True,
                          max_resident_traces=args.max_resident)
    server = ReproServer(session, host=args.host, port=port,
                         unix_socket=args.unix_socket,
                         max_inflight=args.workers,
                         queue_depth=args.queue,
                         idle_timeout_s=args.idle_timeout,
                         warm_manifest=args.warm_manifest,
                         telemetry_path=args.telemetry,
                         telemetry_interval_s=args.telemetry_interval)
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    installed = []
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            installed.append((signum, signal.signal(signum, _on_signal)))
    address = server.start()
    port_file = None
    try:
        if pairs:
            warmed = session.warm(pairs)
            print(f"repro serve: warmed {len(warmed)} trace(s)",
                  file=sys.stderr)
        where = address if isinstance(address, str) \
            else f"{address[0]}:{address[1]}"
        print(f"repro serve: listening on {where} "
              f"(workers={args.workers}, queue={args.queue})",
              file=sys.stderr)
        if args.port_file and not isinstance(address, str):
            port_file = Path(args.port_file)
            port_file.write_text(f"{address[1]}\n")
            # Belt and braces against stale port files: the finally
            # below covers exceptions, atexit covers sys.exit paths,
            # and the supervisor sweeps before every restart (nothing
            # covers SIGKILL - that is the supervisor's sweep).
            atexit.register(_remove_file_quietly, port_file)
        while not (stop.is_set() or server.stop_requested.is_set()):
            server.stop_requested.wait(0.2)
    finally:
        for signum, previous in installed:
            signal.signal(signum, previous)
        server.shutdown(drain=True)
        if port_file is not None:
            _remove_file_quietly(port_file)
    print("repro serve: stopped", file=sys.stderr)
    return 0


def _cmd_serve_supervised(args) -> int:
    from repro.serve.supervisor import (Supervisor, install_stop_signals,
                                        serve_child_command)
    raw = list(getattr(args, "raw_argv", None) or sys.argv[1:])
    child_args = [token for token in raw if token != "--supervise"]
    if child_args and child_args[0] == "serve":
        child_args = child_args[1:]
    supervisor = Supervisor(serve_child_command(child_args),
                            port_file=args.port_file)
    if threading.current_thread() is threading.main_thread():
        install_stop_signals(supervisor)
    return supervisor.run()


def _cmd_top(args) -> int:
    from repro.serve.server import DEFAULT_PORT
    from repro.serve.top import run_top
    if args.unix_socket:
        address = args.unix_socket
    else:
        port = args.port if args.port is not None else DEFAULT_PORT
        address = (args.host, port)
    color = False if args.no_color else None
    try:
        return run_top(address, interval_s=args.interval,
                       count=args.count, color=color, clear=color)
    except OSError as exc:
        print(f"repro top: cannot reach daemon at {address}: {exc}",
              file=sys.stderr)
        return 1


def _cmd_bench_load(args) -> int:
    from repro.serve import bench
    from repro.serve.server import DEFAULT_PORT
    if args.unix_socket:
        address = args.unix_socket
    else:
        port = args.port if args.port is not None else DEFAULT_PORT
        address = (args.host, port)
    if args.scenario == "thrash":
        report = bench.run_thrash(address, names=args.workloads,
                                  scale=args.scale, out=args.out)
    else:
        params = {"names": list(args.workloads), "scale": args.scale}
        if args.op == "predict":
            params["scheme"] = args.scheme
        elif args.op == "experiment":
            params = {"experiment": args.experiment,
                      "names": list(args.workloads),
                      "scale": args.scale}
        report = bench.run_load(address, clients=args.clients,
                                count=args.count, op=args.op,
                                params=params, out=args.out)
    print(bench.render_report(report))
    print(f"load report written to {args.out}", file=sys.stderr)
    if report.get("dead_clients"):
        print(f"repro bench: {report['dead_clients']} client(s) died "
              f"mid-run", file=sys.stderr)
        return 1
    return 0 if report.get("errors", 0) == 0 else 1


# -- entry point --------------------------------------------------------

def _observed(args, argv: Optional[List[str]]) -> int:
    """Install the run's configuration, then run the handler, tracing
    it when ``--trace-spans`` (or the environment) names a run
    directory or ``--verbose`` asks for the stage report.

    Tracing is strictly additive: the manifest and span journal go to
    the run directory, the root CLI span wraps the whole handler, and
    worker journals are merged when the tracer is torn down - stdout
    and every export stay byte-identical to an untraced run.
    ``--verbose`` without a run directory journals into a temporary
    one, removed once the report (stderr) is rendered from it.
    """
    cfg = _install_config(args)
    verbose = getattr(args, "verbose", False)
    if cfg.trace_spans is None and not verbose:
        return args.handler(args)
    with ExitStack() as scope:
        directory = cfg.trace_spans or scope.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-spans-"))
        code = _traced(args, argv, cfg, directory)
        if verbose:
            print(obs_profile.render_stage_report(
                obs_profile.load_run(directory),
                resilience=engine.resilience_snapshot()),
                file=sys.stderr)
        return code


def _traced(args, argv: Optional[List[str]], cfg: config.Config,
            directory) -> int:
    """Run the handler with span journaling into ``directory``."""
    tracer = spans.enable(directory)
    experiment = getattr(args, "id", None)
    scale = getattr(args, "scale", None)
    if scale is None:
        scale = getattr(args, "default_scale", None)
    run_manifest.write_manifest(directory, run_manifest.build_manifest(
        run_id=tracer.run_id,
        command=args.command,
        argv=argv if argv is not None else sys.argv[1:],
        experiment=experiment,
        scale=scale,
        jobs=cfg.jobs,
    ))
    try:
        with spans.span(f"cli:{args.command}", experiment=experiment,
                        scale=scale) as root:
            code = args.handler(args)
            root.set("exit_code", code)
            return code
    finally:
        spans.disable()


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # argparse cannot match a trailing ``names*`` positional once
        # optionals are interleaved after a required positional
        # (``stats table1 --scale 0.2 db_vortex``); fold the stragglers
        # back into ``names`` instead of rejecting them.
        if not hasattr(args, "names") or any(
                token.startswith("-") for token in extra):
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.names = [*args.names, *extra]
    # The verbatim invocation, for handlers that re-spawn themselves
    # (``serve --supervise`` builds its child command from it).
    args.raw_argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return _observed(args, argv)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        sys.stderr.close()
        return 0
    except KeyboardInterrupt:
        return 130
    except (ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:
        # Validation errors: the request itself was malformed.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Runtime failures: a well-formed request that could not be
        # served.  The traceback goes to stderr so failures in long
        # sweeps and CI logs stay diagnosable.
        traceback.print_exc()
        print(f"repro: runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
