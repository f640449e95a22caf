"""The ``serve-mix`` workload: a resident ``repro serve`` daemon under
an open-loop request mix.

Set-up starts the daemon (``--warm`` for the five benchmark programs
at scale 0.05, fresh trace cache) :data:`batch.SETUP_REPEATS` times;
``setup_s`` is the median time from spawn to the port file appearing.
The first daemon is the one measured; the others are stopped once
ready, which also lets the first daemon's admission window drain (see
README.md, "Serve readiness defect"): set-up then polls ``health``
until the window holds no trace misses, and only then primes the hot
set.

The load comes from this process alone, two threads with one
connection each, pinned to one vCPU and the daemon to another
(:func:`cpu_split`).  Arrivals are Poisson from the seed, first at
:data:`LOW_RPS`, then at :data:`HIGH_RPS`; 95% of requests reuse a
24-key hot set (memo hits) and 5% are fresh keys (predict over a
random 1-4 program subset and scheme, or regions over a subset) that
replay a resident trace under the session lock.  Latency is timed from
when each request was due, so a stall also charges the requests queued
behind it.  These open-loop latencies are per-layer metrics: on the
2-vCPU test host their run-to-run spread (30-50% of the median for the
99th percentile) is wider than any bound a gate can use.

A closed-loop phase then sends bursts of :data:`BURST_REQUESTS` hot
requests back to back over both connections.  The end-to-end metrics
come from it: ``wall_s`` is the fastest burst, ``p50_ms``/``p99_ms``
the lowest per-burst request-latency percentiles (fastest of several
samples, as in ``measure.best_cells``).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.predictor.schemes import ALL_SCHEMES
from repro.serve.client import ServeClient

from benchmarks.perf import measure, spec
from benchmarks.perf.batch import SCALE, SETUP_REPEATS, WORKLOADS
from benchmarks.perf.tracing import SpanRecorder

#: Fixed arrival rates (requests/s).  ``HIGH_RPS`` keeps the daemon
#: about 30% busy on a 2-vCPU box; at 900 requests/s (about 55% busy)
#: the host's slow spells tipped it into queueing collapse.  The
#: rates stay fixed across commits so a faster daemon shows lower
#: latency rather than a different load.
LOW_RPS = 150.0
HIGH_RPS = 500.0

HOT_KEYS = 24
FRESH_SHARE = 0.05
BURST_REQUESTS = 1000

#: Share of the measured time spent in each phase.
PHASES = (("low", LOW_RPS, 0.3), ("high", HIGH_RPS, 0.5))
BURST_SHARE = 0.20

_SCHEMES = tuple(scheme.name for scheme in ALL_SCHEMES)

Key = Tuple[str, Tuple[str, ...], Optional[str]]


def random_key(rng: random.Random, max_names: int) -> Key:
    op = "predict" if rng.random() < 0.75 else "regions"
    count = rng.randint(1, min(max_names, len(WORKLOADS)))
    names = tuple(rng.sample(WORKLOADS, count))
    return (op, names, rng.choice(_SCHEMES) if op == "predict" else None)


def params_of(key: Key) -> dict:
    op, names, scheme = key
    params = {"names": list(names), "scale": SCALE}
    if scheme is not None:
        params["scheme"] = scheme
    return params


def expected_lines(expected: dict, key: Key) -> List[str]:
    op, names, scheme = key
    table = expected["serve"][op]
    return [table[name][scheme] if scheme else table[name]
            for name in names]


def response_ok(response: Optional[dict], expected: dict,
                key: Key) -> bool:
    return (response is not None and response.get("status") == 200
            and response["result"]["lines"]
            == expected_lines(expected, key))


def schedule(rng: random.Random, rate: float, duration: float,
             hot: List[Key], used: set) -> List[Tuple[float, Key, str]]:
    """Poisson arrivals over ``duration`` seconds: ``(offset, key,
    kind)`` with kind ``hit`` (hot set) or ``fresh`` (never sent)."""
    items = []
    offset = 0.0
    while True:
        offset += rng.expovariate(rate)
        if offset >= duration:
            return items
        if rng.random() >= FRESH_SHARE:
            items.append((offset, rng.choice(hot), "hit"))
            continue
        for _ in range(10_000):
            key = random_key(rng, 4)
            if key not in used:
                break
        else:
            raise RuntimeError("fresh request keys exhausted")
        used.add(key)
        items.append((offset, key, "fresh"))


def send_due(client: ServeClient, items, origin: float, expected: dict,
             recorder: SpanRecorder, phase: str, out: list) -> None:
    """Send each item at its due time; record ``(kind, latency_ms,
    late_ms, ok)`` with latency and lateness measured from due."""
    for offset, key, kind in items:
        due = origin + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        with recorder.span("serve.request", phase=phase, kind=kind,
                           op=key[0]) as sp:
            try:
                response = client.call(key[0], **params_of(key))
            except OSError:
                response = None
            sp.set("request", client.last_request_id)
        done = time.perf_counter()
        out.append((kind, (done - due) * 1000.0, (sent - due) * 1000.0,
                    response_ok(response, expected, key)))


def run_split(target) -> None:
    """Run ``target(0)`` on the calling thread and ``target(1)`` on one
    helper thread - the two connections of the load generator."""
    helper = threading.Thread(target=target, args=(1,))
    helper.start()
    try:
        target(0)
    finally:
        helper.join(timeout=60)
    if helper.is_alive():
        raise RuntimeError("load thread did not finish")


def send_burst(client: ServeClient, keys, expected: dict,
               out: list) -> None:
    """Closed loop: each request as soon as the previous answered;
    records ``(ok, latency_ms)``."""
    for key in keys:
        started = time.perf_counter()
        try:
            response = client.call(key[0], **params_of(key))
        except OSError:
            response = None
        out.append((response_ok(response, expected, key),
                    (time.perf_counter() - started) * 1000.0))


# -- daemon lifecycle ---------------------------------------------------

def cpu_split() -> Tuple[Optional[set], Optional[set]]:
    """``(daemon CPUs, load-generator CPUs)``: one CPU each when this
    process may use two or more.  Unpinned, the two processes' threads
    land on the two vCPUs in a different arrangement each run, and the
    closed-loop latencies followed the arrangement."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


class Daemon:
    """One ``repro serve`` child with its own trace cache and log."""

    def __init__(self, directory: Path,
                 cpus: Optional[set] = None) -> None:
        directory.mkdir(parents=True)
        self.port_file = directory / "port"
        self.log = open(directory / "serve.log", "wb")
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--port", "0", "--port-file", str(self.port_file),
                   "--scale", str(SCALE),
                   "--trace-cache", str(directory / "cache")]
        for name in WORKLOADS:
            command += ["--warm", name]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(measure.ROOT / "src"),
                          env.get("PYTHONPATH"))))
        self.started = time.perf_counter()
        pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
        self.proc = subprocess.Popen(command, cwd=measure.ROOT, env=env,
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     preexec_fn=pin)
        self.port = 0

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Seconds from spawn until the daemon is warm and listening."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            try:
                text = self.port_file.read_text()
            except OSError:
                text = ""
            if text.endswith("\n"):
                self.port = int(text)
                return time.perf_counter() - self.started
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}")
            time.sleep(0.01)
        raise RuntimeError("daemon not ready in time")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.log.close()


def counters(client: ServeClient) -> Dict[str, float]:
    snapshot = client.stats()["metrics"]
    return {name: entry.get("value") or 0
            for name, entry in snapshot.items()
            if entry.get("kind") == "counter"}


def memo_ratio(before: dict, after: dict) -> float:
    def delta(suffix: str) -> float:
        return sum(after.get(f"api.{op}.memo.{suffix}", 0)
                   - before.get(f"api.{op}.memo.{suffix}", 0)
                   for op in ("predict", "regions"))
    hits, misses = delta("hits"), delta("misses")
    return hits / (hits + misses) if hits + misses else 0.0


# -- the run ------------------------------------------------------------

def run(seed: int, seconds: float, recorder: SpanRecorder,
        expected: dict) -> dict:
    rng = random.Random(f"serve-mix:{seed}")
    hot: List[Key] = []
    while len(hot) < HOT_KEYS:
        key = random_key(rng, 2)
        if key not in hot:
            hot.append(key)
    used = set(hot)
    attempted = failed = 0
    daemons: List[Daemon] = []
    clients: List[ServeClient] = []
    daemon_cpus, load_cpus = cpu_split()
    affinity = os.sched_getaffinity(0)
    with measure.scratch_dir("serve-mix-") as tmp:
        try:
            if load_cpus:
                os.sched_setaffinity(0, load_cpus)
            setups = []
            with recorder.span("bench.workload", workload="serve-mix"):
                for index in range(SETUP_REPEATS):
                    with recorder.span("bench.setup", index=index):
                        daemon = Daemon(tmp / f"daemon-{index}",
                                        daemon_cpus)
                        daemons.append(daemon)
                        setups.append(daemon.wait_ready())
                        if index:
                            daemon.stop()
                daemon = daemons[0]
                address = ("127.0.0.1", daemon.port)
                clients = [ServeClient(address, timeout=10.0)
                           for _ in range(2)]
                with recorder.span("serve.settle"):
                    started = time.perf_counter()
                    while clients[0].health()["admission"]["window"][
                            "misses"]:
                        if time.perf_counter() - started > 30:
                            raise RuntimeError("admission window stuck")
                        time.sleep(0.1)
                    settle_s = time.perf_counter() - started
                with recorder.span("serve.prime"):
                    primed: list = []
                    send_burst(clients[0], hot, expected, primed)
                attempted += len(primed)
                failed += sum(1 for ok, _ in primed if not ok)

                layer: Dict[str, float] = {}
                first = counters(clients[0])
                for phase, rate, share in PHASES:
                    items = schedule(rng, rate, seconds * share, hot, used)
                    before = counters(clients[0])
                    cpu = measure.cpu_seconds(daemon.proc.pid)
                    outs: List[list] = [[], []]
                    origin = time.perf_counter() + 0.05
                    with recorder.span("bench.phase", phase=phase):
                        run_split(lambda i: send_due(
                            clients[i], items[i::2], origin, expected,
                            recorder, phase, outs[i]))
                    cpu = measure.cpu_seconds(daemon.proc.pid) - cpu
                    after = counters(clients[0])
                    result = outs[0] + outs[1]
                    attempted += len(result)
                    failed += sum(1 for s in result if not s[3])
                    layer.update(rate_metrics(phase, result, cpu,
                                              memo_ratio(before, after)))
                bursts, burst_latency = [], []
                burst_keys = [rng.choice(hot)
                              for _ in range(BURST_REQUESTS)]
                began = time.perf_counter()
                while len(bursts) < 3 or \
                        time.perf_counter() - began < seconds * BURST_SHARE:
                    replies: List[list] = [[], []]
                    with recorder.span("bench.pass", index=len(bursts)):
                        started = time.perf_counter()
                        run_split(lambda i: send_burst(
                            clients[i], burst_keys[i::2], expected,
                            replies[i]))
                        bursts.append(time.perf_counter() - started)
                    answers = replies[0] + replies[1]
                    burst_latency.append([ms for _, ms in answers])
                    attempted += len(answers)
                    failed += sum(1 for ok, _ in answers if not ok)
                last = counters(clients[0])
                peak = measure.vm_hwm_mib(daemon.proc.pid)
        finally:
            os.sched_setaffinity(0, affinity)
            for client in clients:
                client.close()
            for daemon in daemons:
                daemon.stop()
    end_to_end = {"wall_s": min(bursts),
                  "setup_s": measure.median(setups),
                  "peak_rss_mib": peak,
                  "p50_ms": min(measure.percentile(latency, 50)
                                for latency in burst_latency),
                  "p99_ms": min(measure.percentile(latency, 99)
                                for latency in burst_latency)}
    per_layer = {}
    if recorder.enabled:
        per_layer = {name: 0.0 for name in spec.PER_LAYER}
        per_layer.update(layer)
        per_layer["bench.wall_s"] = end_to_end["wall_s"]
        per_layer["api.trace_misses"] = last.get("api.trace.misses", 0) \
            - first.get("api.trace.misses", 0)
        per_layer["serve.shed"] = last.get("serve.shed", 0) \
            - first.get("serve.shed", 0)
        per_layer["serve.warm_s"] = setups[0]
        per_layer["serve.settle_s"] = settle_s
    return {"attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "per_layer": per_layer}


def rate_metrics(rate: str, samples: list, cpu_s: float,
                 memo_hit_ratio: float) -> Dict[str, float]:
    """The per-rate serve metrics from ``(kind, latency_ms, late_ms,
    ok)`` samples."""
    everything = [s[1] for s in samples]
    hits = [s[1] for s in samples if s[0] == "hit"]
    fresh = [s[1] for s in samples if s[0] == "fresh"]
    return {
        f"serve.p50_ms.{rate}": measure.percentile(everything, 50),
        f"serve.p99_ms.{rate}": measure.percentile(everything, 99),
        f"serve.hit_p50_ms.{rate}": measure.percentile(hits, 50),
        f"serve.hit_p99_ms.{rate}": measure.percentile(hits, 99),
        f"serve.fresh_p50_ms.{rate}": measure.percentile(fresh, 50),
        f"serve.fresh_p99_ms.{rate}": measure.percentile(fresh, 99),
        f"serve.gen_late_p99_ms.{rate}":
            measure.percentile([s[2] for s in samples], 99),
        f"serve.cpu_ms_per_req.{rate}":
            cpu_s * 1000.0 / max(1, len(samples)),
        f"api.memo_hit_ratio.{rate}": memo_hit_ratio,
    }
