"""Multiprocess load generator for ``repro serve``.

``repro bench load --clients N --count M`` forks N independent client
processes (the py-tpcc/cbperf driver model: real processes, not
threads, so client-side work never serialises on one GIL), each
holding one persistent connection and issuing M identical requests
back to back.  The parent aggregates per-request latencies into
p50/p95/p99/mean/max, computes sustained QPS over the overlapping
client window, fetches the daemon's ``health`` and ``stats``
documents, and writes the whole report to ``BENCH_serve.json``.

Client processes are part of the measurement: one that dies mid-run
(connection torn down, crash, kill) is recorded in the report
(``dead_clients`` / ``client_failures``) and makes the CLI exit
nonzero instead of silently averaging over the survivors.  Only a run
where *no* client produced results raises outright.

``repro bench load --scenario thrash`` runs the backpressure drill
instead of uniform load: cheap clients hammer one memoised request
while churn clients stream unique cold requests through a deliberately
undersized resident-trace LRU, and the report shows cheap throughput
holding (``cheap_qps_ratio``) while the churn is shed with 503 +
``retry_after_ms`` and ``health`` goes ``degraded``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as pyqueue
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serve.client import ServeClient
from repro.serve.server import Address

#: One client's work: ``(op, params)`` requests, issued in order.
Plan = Sequence[Tuple[str, dict]]


def _client_worker(address: Address, plan: Plan, label: str,
                   barrier, queue) -> None:
    """One load-generating client process.

    Waits on the start barrier so every client begins together, then
    issues its plan's requests, recording per-request wall latency.
    Results (latencies, error/rejection counts, active window) go back
    through ``queue``, tagged with this client's ``label``.
    """
    latencies_ms: List[float] = []
    ok = errors = rejected = 0
    sample = None
    retry_after = None
    client = None
    try:
        client = ServeClient(address)
        barrier.wait(timeout=60)
        started = time.perf_counter()
        for op, params in plan:
            t0 = time.perf_counter()
            response = client.call(op, **params)
            latencies_ms.append((time.perf_counter() - t0) * 1000.0)
            if response.get("ok"):
                ok += 1
                if sample is None:
                    sample = response.get("result")
            elif response.get("status") == 503:
                rejected += 1
                if retry_after is None:
                    retry_after = response.get("retry_after_ms")
            else:
                errors += 1
        ended = time.perf_counter()
        queue.put({"label": label, "latencies_ms": latencies_ms,
                   "ok": ok, "errors": errors, "rejected": rejected,
                   "start": started, "end": ended, "sample": sample,
                   "retry_after_ms": retry_after})
    except Exception as exc:         # surfaced by the parent
        queue.put({"fatal": f"{type(exc).__name__}: {exc}",
                   "label": label})
    finally:
        if client is not None:
            client.close()


def _run_clients(address: Address, plans: Sequence[Plan],
                 labels: Optional[Sequence[str]] = None,
                 timeout_s: float = 600.0)\
        -> Tuple[List[dict], List[str]]:
    """Run one client process per plan; ``(results, failures)``.

    ``failures`` holds one line per client that produced no results -
    its own fatal report, or the exit status of a client that died
    without reporting (killed, crashed before its except clause).
    Dead clients never hang the parent and never abort the survivors.
    """
    if labels is None:
        labels = ["client"] * len(plans)
    context = multiprocessing.get_context()
    queue = context.Queue()
    barrier = context.Barrier(len(plans))
    processes = [context.Process(target=_client_worker,
                                 args=(address, list(plan), label,
                                       barrier, queue),
                                 daemon=True)
                 for plan, label in zip(plans, labels)]
    for process in processes:
        process.start()
    results: List[dict] = []
    failures: List[str] = []
    deadline = time.monotonic() + timeout_s
    while len(results) + len(failures) < len(processes):
        try:
            item = queue.get(timeout=0.5)
        except pyqueue.Empty:
            if all(not p.is_alive() for p in processes):
                # Everyone has exited; drain stragglers, then charge
                # the remaining silence to the dead.
                while len(results) + len(failures) < len(processes):
                    try:
                        item = queue.get(timeout=0.2)
                    except pyqueue.Empty:
                        break
                    if "fatal" in item:
                        failures.append(item["fatal"])
                    else:
                        results.append(item)
                missing = len(processes) - len(results) - len(failures)
                exitcodes = [p.exitcode for p in processes
                             if p.exitcode not in (0, None)]
                for index in range(missing):
                    code = exitcodes[index] if index < len(exitcodes) \
                        else "unknown"
                    failures.append(f"client exited with code {code} "
                                    f"without reporting")
                break
            if time.monotonic() > deadline:
                for process in processes:
                    process.terminate()
                raise RuntimeError(
                    "load client failed: timed out waiting for "
                    "client results")
            continue
        if "fatal" in item:
            failures.append(item["fatal"])
        else:
            results.append(item)
    for process in processes:
        process.join(timeout=60)
    return results, failures


def _latency_summary(results: Sequence[dict]) -> Tuple[dict, float, int]:
    """``(latency_ms summary, overlapping wall_s, ok count)``."""
    latencies = np.array([lat for result in results
                          for lat in result["latencies_ms"]],
                         dtype=np.float64)
    ok = sum(result["ok"] for result in results)
    wall_s = (max(result["end"] for result in results)
              - min(result["start"] for result in results)) \
        if results else 0.0
    summary = {
        "p50": round(float(np.percentile(latencies, 50)), 3),
        "p95": round(float(np.percentile(latencies, 95)), 3),
        "p99": round(float(np.percentile(latencies, 99)), 3),
        "mean": round(float(latencies.mean()), 3),
        "max": round(float(latencies.max()), 3),
    } if latencies.size else {}
    return summary, float(wall_s), ok


def _write_report(report: dict, out: Union[str, Path, None]) -> dict:
    if out is not None:
        path = Path(out)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(report, indent=2, sort_keys=True)
                       + "\n")
        os.replace(tmp, path)
    return report


def run_load(address: Address, clients: int = 4, count: int = 50,
             op: str = "predict", params: Optional[dict] = None,
             out: Union[str, Path, None] = None) -> dict:
    """Drive the daemon at ``address`` and return the load report.

    Per-request errors and admission rejections are counted, not
    fatal; clients that die mid-run are flagged in the report
    (``dead_clients``) so the caller can fail the run.  Raises
    ``RuntimeError`` only when *no* client produced results
    (connection refused, whole fleet dead).
    """
    if clients < 1 or count < 1:
        raise ValueError("clients and count must both be >= 1")
    params = dict(params or {})
    plan = [(op, params)] * count
    results, failures = _run_clients(address, [plan] * clients)
    if not results:
        raise RuntimeError(f"load client failed: "
                           f"{failures[0] if failures else 'no results'}")

    latency_ms, wall_s, ok = _latency_summary(results)
    requests = sum(len(result["latencies_ms"]) for result in results)
    report = {
        "op": op,
        "params": params,
        "clients": clients,
        "count": count,
        "requests": requests,
        "ok": ok,
        "errors": sum(result["errors"] for result in results),
        "rejected": sum(result["rejected"] for result in results),
        "dead_clients": len(failures),
        "client_failures": failures,
        "wall_s": round(wall_s, 6),
        "qps": round(ok / max(1e-9, wall_s), 3),
        "latency_ms": latency_ms,
        "sample": next((result["sample"] for result in results
                        if result.get("sample") is not None), None),
    }
    # Live endpoint snapshots ride along so CI can assert on them.
    with ServeClient(address) as probe:
        report["health"] = probe.health()
        report["stats"] = probe.stats()
    # Which daemon incarnation served the run - lets a trend journal
    # distinguish "same daemon, slower" from "restarted between runs".
    report["incarnation"] = report["health"].get("incarnation")
    return _write_report(report, out)


# -- the thrash / backpressure drill ------------------------------------

def _churn_plan(names: Sequence[str], count: int, salt: int) -> Plan:
    """``count`` cold requests no two of which share an LRU key.

    Tiny, distinct scales make every request a resident-trace miss
    (and, against an undersized LRU, an eviction) while each
    individual simulation stays cheap enough that the drill's cost is
    the churn, not the compute.
    """
    plan = []
    for index in range(count):
        scale = round(0.03 + 0.0005 * (salt * count + index), 6)
        plan.append(("regions", {"names": [names[index % len(names)]],
                                 "scale": scale}))
    return plan


def run_thrash(address: Address, names: Sequence[str] = ("db_vortex",),
               scale: float = 0.2, cheap_clients: int = 3,
               churn_clients: int = 2, count: int = 1000,
               churn_count: int = 60, prime_count: int = 24,
               out: Union[str, Path, None] = None) -> dict:
    """The load-shedding acceptance drill; returns its report.

    Phase 1 measures baseline QPS for one memoised (cheap) request
    with ``cheap_clients`` clients.  Phase 2 streams up to
    ``prime_count`` unique cold requests through the daemon's
    resident LRU until its admission controller reports the thrash
    (``degraded``).  Phase 3 repeats the baseline measurement while
    ``churn_clients`` keep hammering cold requests - the degraded
    steady state, where expensive requests shed and cheap ones flow.
    Run it against a daemon whose LRU is smaller than the churn
    working set (``repro serve --max-resident 2``) and the report
    shows the resilient outcome: ``cheap_qps_ratio`` near 1.0, churn
    shed with 503 + retry hints, ``health.status`` = ``degraded``.
    """
    cheap_params = {"names": list(names), "scale": scale}
    with ServeClient(address) as primer:
        # Warm + memoise the cheap request so phase clients hit the
        # memo table from their first call.
        primer.result("predict", **cheap_params)
    cheap_plan = [("predict", cheap_params)] * count

    baseline_results, baseline_failures = _run_clients(
        address, [cheap_plan] * cheap_clients)
    if not baseline_results:
        raise RuntimeError(
            f"load client failed: "
            f"{baseline_failures[0] if baseline_failures else 'no results'}")
    baseline_latency, baseline_wall, baseline_ok = \
        _latency_summary(baseline_results)
    baseline_qps = baseline_ok / max(1e-9, baseline_wall)

    # Prime: churn the LRU (distinct scales from the phase-3 churn
    # plans) until the daemon enters the degraded state, so phase 3
    # measures the shedding steady state rather than the detection
    # transient (where admitted cold simulations still compete with
    # the cheap traffic for the interpreter).
    primed = 0
    prime_state = None
    # A salt past every phase-3 churn plan: the prime scales must not
    # collide with theirs, or the "churn" clients replay memoised
    # requests instead of cold ones.
    prime_salt = (churn_clients * churn_count) // prime_count + 1
    with ServeClient(address) as churner:
        for op, params in _churn_plan(names, prime_count, prime_salt):
            churner.call(op, **params)
            primed += 1
            prime_state = churner.health()["status"]
            if prime_state != "ok":
                break

    plans: List[Plan] = [cheap_plan] * cheap_clients
    plans += [_churn_plan(names, churn_count, salt)
              for salt in range(churn_clients)]
    labels = ["cheap"] * cheap_clients + ["churn"] * churn_clients
    mixed_results, mixed_failures = _run_clients(address, plans,
                                                 labels=labels)
    cheap_results = [r for r in mixed_results
                     if r.get("label") == "cheap"]
    churn_results = [r for r in mixed_results
                     if r.get("label") == "churn"]
    cheap_latency, cheap_wall, cheap_ok = \
        _latency_summary(cheap_results) if cheap_results \
        else ({}, 0.0, 0)
    thrash_qps = cheap_ok / max(1e-9, cheap_wall)
    shed = sum(r["rejected"] for r in churn_results)
    retry_after = next((r["retry_after_ms"] for r in churn_results
                        if r.get("retry_after_ms") is not None), None)

    with ServeClient(address) as probe:
        health = probe.health()
        stats = probe.stats()
    failures = list(baseline_failures) + list(mixed_failures)
    report = {
        "scenario": "thrash",
        "params": cheap_params,
        "cheap_clients": cheap_clients,
        "churn_clients": churn_clients,
        "count": count,
        "churn_count": churn_count,
        "prime": {"requests": primed, "state": prime_state},
        "baseline": {
            "qps": round(baseline_qps, 3),
            "ok": baseline_ok,
            "latency_ms": baseline_latency,
        },
        "thrash": {
            "cheap_qps": round(thrash_qps, 3),
            "cheap_ok": cheap_ok,
            "latency_ms": cheap_latency,
            "churn_ok": sum(r["ok"] for r in churn_results),
            "churn_shed": shed,
            "retry_after_ms": retry_after,
        },
        "cheap_qps_ratio": round(thrash_qps / max(1e-9, baseline_qps),
                                 3),
        "dead_clients": len(failures),
        "client_failures": failures,
        "health": health,
        "admission": stats.get("admission"),
    }
    return _write_report(report, out)


def render_report(report: dict) -> str:
    """A one-screen human summary of a load report."""
    if report.get("scenario") == "thrash":
        return render_thrash_report(report)
    latency = report.get("latency_ms") or {}
    lines = [
        f"load: {report['clients']} clients x {report['count']} "
        f"requests  op={report['op']}",
        f"  ok {report['ok']}  errors {report['errors']}  "
        f"rejected {report['rejected']}  wall {report['wall_s']:.2f}s  "
        f"qps {report['qps']:.1f}",
    ]
    if latency:
        lines.append(
            f"  latency ms  p50 {latency['p50']:.2f}  "
            f"p95 {latency['p95']:.2f}  p99 {latency['p99']:.2f}  "
            f"mean {latency['mean']:.2f}  max {latency['max']:.2f}")
    if report.get("dead_clients"):
        lines.append(f"  DEAD CLIENTS: {report['dead_clients']} "
                     f"({'; '.join(report['client_failures'])})")
    health = report.get("health") or {}
    if health:
        lines.append(f"  server: pid {health.get('pid')}  uptime "
                     f"{health.get('uptime_s')}s  warmed "
                     f"{len(health.get('warmed', []))} trace(s)")
    return "\n".join(lines)


def render_thrash_report(report: dict) -> str:
    """A one-screen human summary of a thrash-drill report."""
    baseline = report.get("baseline") or {}
    thrash = report.get("thrash") or {}
    health = report.get("health") or {}
    lines = [
        f"thrash drill: {report['cheap_clients']} cheap clients x "
        f"{report['count']} + {report['churn_clients']} churn clients "
        f"x {report['churn_count']}",
        f"  baseline cheap qps {baseline.get('qps', 0):.1f}  ->  "
        f"under churn {thrash.get('cheap_qps', 0):.1f}  "
        f"(ratio {report.get('cheap_qps_ratio', 0):.2f})",
        f"  churn: ok {thrash.get('churn_ok', 0)}  shed "
        f"{thrash.get('churn_shed', 0)}  retry_after_ms "
        f"{thrash.get('retry_after_ms')}",
        f"  health: {health.get('status')}",
    ]
    if report.get("dead_clients"):
        lines.append(f"  DEAD CLIENTS: {report['dead_clients']} "
                     f"({'; '.join(report['client_failures'])})")
    return "\n".join(lines)
