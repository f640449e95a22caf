"""The repository benchmark: four workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE]
    python3 benchmarks/perf/run.py compare PARENT.jsonl CHANGE.jsonl
    python3 benchmarks/perf/run.py expect      # regenerate expected.json

``PYTHONPATH=src python -m benchmarks.perf ...`` is the same command.

Each workload runs in a fresh child process (its own peak RSS, no memo
shared with other workloads) with every ``REPRO_*`` variable removed
from its environment and the program's own span tracer off.  The
child measures for ``--seconds``, checks every output against
``expected.json``, and reports; this process prints each metric with
its unit on stderr and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  A traced run also writes its spans to
``DIR/<workload>/spans.jsonl`` + ``manifest.json``, readable with
``repro profile``.  ``--out FILE`` appends the full result, with the
run stamp, as one JSON line (the input of ``compare``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not __package__:
    # Run as a script: make the program and this package importable.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: A child that has not reported by then is killed (the whole command
#: must finish within 180 seconds).
CHILD_TIMEOUT_S = 170


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_stamp(seed: int) -> dict:
    """What produced a result: revision, machine, versions, load."""
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg_1m": os.getloadavg()[0], "seed": seed,
            "scrubbed_env": sorted(key for key in os.environ
                                   if key.startswith("REPRO_"))}


def child_environment() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              trace_dir: Path) -> dict:
    command = [sys.executable, "-m", "benchmarks.perf", "child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--trace-dir", str(trace_dir)]
    completed = subprocess.run(command, cwd=ROOT, env=child_environment(),
                               stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with "
                           f"{completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def report(workload: str, trace: bool, result: dict,
           bench: dict) -> dict:
    """The contract's result object for one workload run."""
    section = "per_layer" if trace else "end_to_end"
    measured = result[section]
    metrics = {}
    for entry in bench[section]:
        name = entry["name"]
        if name not in measured:
            raise RuntimeError(f"{workload} did not report {name}")
        metrics[name] = {"value": measured[name], "unit": entry["unit"]}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_main(argv) -> int:
    from benchmarks.perf import measure, spec
    bench = _benchmark_json()
    parser = argparse.ArgumentParser(prog="benchmarks.perf")
    parser.add_argument("--workload", action="append",
                        choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path,
                        default=measure.OUT_DIR / "trace")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    for workload in args.workload or spec.WORKLOADS:
        stamp = run_stamp(args.seed)
        result = run_child(workload, args.seed, args.seconds,
                           bool(args.trace), args.trace_dir)
        line = report(workload, bool(args.trace), result, bench)
        for name, entry in line["metrics"].items():
            print(f"{workload:<13} {name:<32} {entry['value']:>14.6g} "
                  f"{entry['unit']}", file=sys.stderr)
        print(f"{workload:<13} attempted {line['attempted']} failed "
              f"{line['failed']}", file=sys.stderr)
        if args.out is not None:
            record = {"workload": workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "stamp": stamp, "finished_unix": time.time(),
                      **line}
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        print("# stamp " + json.dumps(stamp, sort_keys=True))
        print(json.dumps(line, sort_keys=True), flush=True)
    return 0


def child_main(argv) -> int:
    """One workload in this (fresh) process; prints its raw result."""
    from repro.obs import manifest as run_manifest
    from benchmarks.perf import batch, measure, serve_mix
    from benchmarks.perf.tracing import SpanRecorder
    parser = argparse.ArgumentParser(prog="benchmarks.perf child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    manifest = run_manifest.build_manifest(
        run_id=f"{args.workload}-{args.seed}-{os.getpid()}",
        command="benchmarks.perf", experiment=args.workload,
        scale=batch.SCALE, jobs=1, seed=args.seed)
    recorder = SpanRecorder(enabled=bool(args.trace))
    expected = measure.load_expected()
    if args.workload == "serve-mix":
        result = serve_mix.run(args.seed, args.seconds, recorder, expected)
    else:
        result = batch.run(args.workload, args.seed, args.seconds,
                           recorder, expected)
    if args.trace:
        recorder.write(args.trace_dir / args.workload, manifest)
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmarks.perf: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    command = argv[0] if argv else ""
    if command == "compare":
        from benchmarks.perf import compare
        return compare.main(argv[1:], _benchmark_json())
    if command == "expect":
        from benchmarks.perf import expect
        return expect.main(argv[1:])
    if command == "child":
        return child_main(argv[1:])
    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main())
