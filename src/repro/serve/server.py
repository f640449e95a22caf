"""The ``repro serve`` daemon: prediction-as-a-service over sockets.

A :class:`ReproServer` wraps one resident :class:`repro.api.Session`
behind a thread-per-connection front end speaking the line-delimited
JSON protocol of :mod:`repro.serve.protocol` on a TCP or Unix-domain
socket.  Traces and memoised responses stay hot in the session, so a
warm request costs a dictionary lookup plus serialisation rather than
a functional simulation.

Operational posture:

* **Deadlines.**  Every request carries a wall-clock budget - its own
  ``timeout_ms``, or the server default (``REPRO_SERVE_DEADLINE_MS``).
  Session operations check the budget at stage boundaries; a request
  past its deadline gets a ``504`` carrying the partial per-stage
  timings instead of holding a worker slot hostage.  Socket reads of
  partial request lines and response writes have their own idle
  timeouts, so slow-loris clients are dropped (and counted) rather
  than pinning connection threads.
* **Adaptive admission control.**  Work ops pass a cost-aware gate
  (:class:`repro.serve.admission.AdmissionController`): at most
  ``max_inflight`` execute concurrently and at most ``queue_depth``
  more wait; beyond that everything bounces with ``503``.  Before
  that hard bound bites, resident-LRU thrash (eviction churn, cold
  hit rates) puts the daemon in a ``degraded`` state where expensive
  (non-memoised) requests are shed with ``503`` + ``retry_after_ms``
  while cheap memoised requests keep flowing.  Control ops
  (``health``/``stats``/``shutdown``) always bypass the gate so the
  daemon stays observable under overload.
* **Metrics.**  Per-request latency histograms (overall and per op),
  request/error/rejection/shed/deadline counters, and the session's
  ``api.*`` residency counters all live in one metrics registry;
  ``stats`` returns a live snapshot with p50/p95/p99 estimated from
  the latency histogram plus the admission window.  The ``metrics``
  control op renders the same registry as Prometheus exposition text,
  and ``stats`` with ``{"stream": true}`` pushes compact telemetry
  frames to the subscribed connection (``repro top`` renders them).
  With ``telemetry_path`` set, a :class:`TelemetryRecorder` thread
  samples the same snapshot every ``telemetry_interval_s`` seconds
  into a size-capped ``telemetry.jsonl`` ring buffer.
* **Request correlation.**  Every decoded request binds a
  ``(request_id, attempt)`` trace context (client-minted and stable
  across retries, or server-minted when absent) for the duration of
  dispatch: spans opened anywhere downstream - the ``serve:request``
  lifecycle span, the session's ``api:trace`` fetches, engine cell
  spans in pool workers - auto-attach the id, and every response
  echoes ``request_id``/``attempt``/``incarnation``.  A flushed
  ``serve:request:start`` event is journalled *before* execution, so
  even an incarnation SIGKILL'd mid-request leaves the attempt on the
  ``repro profile --request`` timeline.
* **Incarnation identity.**  Each server carries an
  ``incarnation_id`` - stamped by the supervisor via
  ``REPRO_INCARNATION_ID`` (unique per spawn) or self-minted -
  persisted into the span-journal manifest and echoed in every
  response, ``health`` document, span, and telemetry sample, so
  journals appended across supervised restarts stay attributable.
* **Spans.**  When span tracing is enabled (``--trace-spans``), every
  request lifecycle is journalled as a ``serve:request`` span carrying
  op, status, deadline, request-correlation, and incarnation
  attributes.
* **Warm-set manifest.**  With ``warm_manifest`` set, the resident
  ``(workload, scale)`` set is persisted (atomically) whenever it
  changes, so a supervisor can re-warm a restarted daemon to the same
  working set (``--warm-manifest``).
* **Fault injection.**  ``serve:*`` directives from
  :mod:`repro.testing.faults` hook the dispatch path (drop / stall /
  corrupt-response / oom-evict) so chaos drills exercise the exact
  production code paths deterministically.
* **Clean shutdown.**  :meth:`shutdown` stops accepting, lets in-flight
  requests finish and their responses flush (drain), then closes every
  connection; the ``shutdown`` op requests the same from the wire.
  Requests whose deadline expires mid-drain still get their ``504``,
  so a drain never deadlocks on a doomed request.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro import __version__, api, config
from repro.metrics import prometheus
from repro.metrics.registry import Histogram
from repro.obs import manifest as run_manifest
from repro.obs import spans
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.telemetry import TelemetryRecorder
from repro.testing import faults as fault_injection

#: Default TCP port (an unassigned port in the user range).
DEFAULT_PORT = 7907

#: Latency histogram bucket bounds (milliseconds).
LATENCY_BUCKETS_MS = (0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500,
                      1000, 2000, 5000, 10000)

#: Ops that bypass admission control (must respond under overload).
CONTROL_OPS = frozenset({"health", "stats", "metrics", "shutdown"})

#: Bounds accepted for ``stats --stream`` intervals (seconds).
STREAM_MIN_INTERVAL_S = 0.02
STREAM_MAX_INTERVAL_S = 60.0


def mint_incarnation_id() -> str:
    """A fresh daemon incarnation id (unsupervised spawns)."""
    return f"i-{int(time.time() * 1000):x}-{os.getpid():x}"

#: Either a ``(host, port)`` TCP address or a Unix-socket path.
Address = Union[Tuple[str, int], str]

#: Poll interval for socket timeouts (how fast loops notice shutdown).
_POLL_S = 0.2

#: How long a *partial* request line may sit before the connection is
#: dropped as a slow-loris client (seconds).
DEFAULT_IDLE_TIMEOUT_S = 30.0

#: How long one response write may block before the client is dropped.
DEFAULT_WRITE_TIMEOUT_S = 30.0


def read_warm_manifest(path: Union[str, Path])\
        -> List[Tuple[str, float]]:
    """The ``(workload, scale)`` pairs persisted by a previous daemon.

    Returns ``[]`` for a missing or unreadable manifest - re-warming
    is best-effort by design (a corrupt manifest costs warmth, never
    a failed restart).
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
        pairs = [(str(name), float(scale))
                 for name, scale in document["pairs"]]
    except (OSError, ValueError, TypeError, KeyError):
        return []
    return pairs


class ReproServer:
    """A daemon answering :mod:`repro.api` queries for many clients.

    Construct, :meth:`start`, and query the bound :attr:`address`; or
    pass the instance around embedded in tests.  ``session`` defaults
    to a fresh resident :class:`repro.api.Session`; pass your own to
    pre-warm or to share a metrics registry.  ``admission`` defaults
    to an :class:`AdmissionController` built from ``max_inflight`` /
    ``queue_depth``; pass your own to tune the thrash window.
    """

    def __init__(self, session: Optional[api.Session] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_socket: Optional[str] = None,
                 max_inflight: int = 8, queue_depth: int = 16,
                 debug_ops: bool = False,
                 admission: Optional[AdmissionController] = None,
                 deadline_ms: Optional[float] = None,
                 idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
                 write_timeout_s: float = DEFAULT_WRITE_TIMEOUT_S,
                 warm_manifest: Union[str, Path, None] = None,
                 incarnation_id: Optional[str] = None,
                 telemetry_path: Union[str, Path, None] = None,
                 telemetry_interval_s: float = 5.0) -> None:
        if admission is None:
            admission = AdmissionController(max_inflight=max_inflight,
                                            queue_depth=queue_depth)
        self.admission = admission
        self.max_inflight = admission.max_inflight
        self.queue_depth = admission.queue_depth
        self.session = session if session is not None \
            else api.Session(resident=True)
        self.registry = self.session.metrics
        self.deadline_ms = deadline_ms if deadline_ms is not None \
            else config.active().serve_deadline_ms
        self.idle_timeout_s = idle_timeout_s
        self.write_timeout_s = write_timeout_s
        self._warm_manifest = Path(warm_manifest) if warm_manifest \
            else None
        self._manifest_lock = threading.Lock()
        # LRU traffic drives both the admission window and the
        # persisted warm set.
        self.session.trace_events = self._on_trace_event
        self._host = host
        self._port = port
        self._unix_socket = unix_socket
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._conn_lock = threading.Lock()
        self._stopping = threading.Event()
        #: Set by the ``shutdown`` op; the owner (CLI main loop or a
        #: test) observes it and calls :meth:`shutdown`.
        self.stop_requested = threading.Event()
        self._metrics_lock = threading.Lock()
        self._inflight = 0
        self._started_at = time.monotonic()
        #: Which daemon spawn this is: the supervisor stamps a unique
        #: id per child via REPRO_INCARNATION_ID; bare daemons mint
        #: their own.  Echoed in every response/span/telemetry sample.
        self.incarnation_id = incarnation_id \
            or config.active().incarnation_id or mint_incarnation_id()
        spans.set_incarnation(self.incarnation_id)
        #: Server-minted trace-id sequence for clients that send none.
        self._trace_seq = itertools.count(1)
        self._telemetry: Optional[TelemetryRecorder] = None
        if telemetry_path:
            self._telemetry = TelemetryRecorder(
                self.telemetry_snapshot, telemetry_path,
                interval_s=telemetry_interval_s)
        #: Work ops: ``op -> (request_builder, executor)``.
        self._work_ops: Dict[str, Tuple[Callable, Callable]] = {
            "predict": (self._build_predict, self._exec_predict),
            "regions": (self._build_regions, self._exec_regions),
            "timing": (self._build_timing, self._exec_timing),
            "experiment": (self._build_experiment,
                           self._exec_experiment),
        }
        #: Control ops: ``op -> handler(params)``.
        self._control_ops: Dict[str, Callable] = {
            "health": self._op_health,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "shutdown": self._op_shutdown,
        }
        if debug_ops:
            self._work_ops["sleep"] = (self._build_sleep,
                                       self._exec_sleep)

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> Address:
        """The bound address: ``(host, port)`` or the Unix-socket path."""
        if self._unix_socket is not None:
            return self._unix_socket
        return (self._host, self._port)

    def start(self) -> Address:
        """Bind, listen, and start the accept loop; returns the address."""
        if self._unix_socket is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                os.unlink(self._unix_socket)
            except OSError:
                pass
            listener.bind(self._unix_socket)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            self._host, self._port = listener.getsockname()
        listener.listen(128)
        listener.settimeout(_POLL_S)
        self._listener = listener
        self._started_at = time.monotonic()
        tracer = spans.active()
        if tracer is not None:
            # Persist which incarnation is appending to this journal;
            # supervised restarts overwrite it, but every request span
            # also carries the id, so profile merges stay attributable
            # even mid-journal.
            run_manifest.update_manifest(
                tracer.directory,
                {"incarnation_id": self.incarnation_id})
        if self._telemetry is not None:
            self._telemetry.start()
        accept = threading.Thread(target=self._accept_loop,
                                  name="repro-serve-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
        return self.address

    def wait_for_stop(self, timeout: Optional[float] = None) -> bool:
        """Block until a wire-side ``shutdown`` op arrives."""
        return self.stop_requested.wait(timeout)

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the daemon.

        With ``drain`` (the default), requests already executing finish
        and their responses are flushed before connections close; the
        accept loop stops immediately either way.  A draining request
        that is already past its deadline completes as a ``504``
        (deadlines are checked before expensive stages), so the drain
        cannot deadlock on work that will never be wanted.
        """
        self._stopping.set()
        if self._telemetry is not None:
            self._telemetry.stop(final_sample=True)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if drain:
            deadline = time.monotonic() + timeout
            for thread in list(self._threads):
                remaining = max(0.0, deadline - time.monotonic())
                thread.join(remaining)
        with self._conn_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        if self._unix_socket is not None:
            try:
                os.unlink(self._unix_socket)
            except OSError:
                pass

    # -- LRU traffic / warm manifest ------------------------------------

    def _on_trace_event(self, kind: str) -> None:
        """Session LRU listener: feed admission, persist the warm set.

        Warm-up loads (``"warm"``) change the resident set but are not
        request traffic, so they stay out of the admission window - a
        freshly warmed daemon must not read them as a cold cache.
        """
        if kind != "warm":
            self.admission.note_trace_event(kind)
        if kind != "hit":
            self._write_warm_manifest()

    def _write_warm_manifest(self) -> None:
        """Atomically persist the resident set for supervisor re-warm."""
        path = self._warm_manifest
        if path is None:
            return
        document = {"version": 1,
                    "pairs": [[name, scale]
                              for name, scale in self.session.warmed()]}
        payload = json.dumps(document, sort_keys=True) + "\n"
        with self._manifest_lock:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
                tmp.write_text(payload)
                os.replace(tmp, path)
            except OSError:
                pass        # best-effort: warmth, not correctness

    # -- socket loops ---------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(_POLL_S)
            with self._conn_lock:
                self._conns.append(conn)
            thread = threading.Thread(target=self._client_loop,
                                      args=(conn,), daemon=True)
            thread.start()
            self._threads.append(thread)

    def _send(self, conn: socket.socket, payload: bytes) -> bool:
        """Write one response line; False drops the connection.

        A client that stops reading (full receive buffer) blocks the
        write; after ``write_timeout_s`` it is dropped and counted
        rather than pinning this connection thread forever.
        """
        try:
            conn.settimeout(self.write_timeout_s)
            try:
                conn.sendall(payload)
                return True
            finally:
                conn.settimeout(_POLL_S)
        except socket.timeout:
            self._count("write_drops")
            return False
        except OSError:
            return False

    def _client_loop(self, conn: socket.socket) -> None:
        """One persistent connection: request line in, response out."""
        buffer = b""
        last_activity = time.monotonic()
        try:
            while True:
                newline = buffer.find(b"\n")
                if newline >= 0:
                    line, buffer = buffer[:newline], buffer[newline + 1:]
                    if not line.strip():
                        continue
                    payload, stream = self._dispatch(line)
                    if payload is None:     # injected serve:drop
                        break
                    if not self._send(conn, payload):
                        break
                    if stream is not None:
                        # A stats stream: push frames until done; the
                        # connection stays usable for more requests
                        # when the stream ends on its own count.
                        if not self._stream_stats(conn, stream):
                            break
                    # Drain semantics: finish the request in hand, then
                    # stop reading once shutdown has begun.
                    if self._stopping.is_set():
                        break
                    last_activity = time.monotonic()
                    continue
                if self._stopping.is_set():
                    break
                if len(buffer) > protocol.MAX_LINE:
                    self._send(conn, protocol.encode(
                        protocol.error_response(
                            None, protocol.STATUS_BAD_REQUEST,
                            "request line too long")))
                    break
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    # A *partial* request line going nowhere is a
                    # slow-loris client; an idle connection between
                    # requests is normal keep-alive and stays open.
                    if buffer and (time.monotonic() - last_activity
                                   > self.idle_timeout_s):
                        self._count("idle_drops")
                        break
                    continue
                except OSError:
                    break
                if not chunk:
                    break
                buffer += chunk
                last_activity = time.monotonic()
        except OSError:
            pass        # client went away mid-response
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._conn_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    # -- dispatch -------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._metrics_lock:
            self.registry.scoped("serve").counter(name).inc(amount)

    def _observe(self, op: str, status: int, elapsed_ms: float) -> None:
        """Record one finished request into the metrics registry."""
        ns = self.registry.scoped("serve")
        with self._metrics_lock:
            ns.counter("requests").inc()
            ns.counter(f"op.{op}.requests").inc()
            ns.counter(f"status.{status}").inc()
            if status >= 400:
                ns.counter("errors").inc()
            ns.histogram("latency_ms", LATENCY_BUCKETS_MS)\
                .observe(elapsed_ms)
            ns.histogram(f"op.{op}.latency_ms", LATENCY_BUCKETS_MS)\
                .observe(elapsed_ms)

    def _dispatch(self, line: bytes)\
            -> Tuple[Optional[bytes], Optional[dict]]:
        """One request line to ``(response payload, stream spec)``.

        A ``None`` payload means "respond with silence": an injected
        ``serve:drop`` closing the connection the way a crashed
        responder would.  A non-None stream spec tells the caller to
        keep pushing telemetry frames (``stats --stream``) after the
        first response.
        """
        started = time.perf_counter()
        received = time.monotonic()
        try:
            op, params, request_id, timeout_ms, trace_id, attempt = \
                protocol.decode_request(line)
        except protocol.ProtocolError as exc:
            self._observe("invalid", protocol.STATUS_BAD_REQUEST,
                          (time.perf_counter() - started) * 1000.0)
            response = protocol.error_response(
                None, protocol.STATUS_BAD_REQUEST, str(exc))
            response["incarnation"] = self.incarnation_id
            return protocol.encode(response), None
        if trace_id is None:
            # Mint one server-side so journal grep / profile --request
            # works even for clients that sent no correlation id.
            trace_id = (f"srv-{self.incarnation_id}-"
                        f"{next(self._trace_seq):x}")
        with spans.request_context(trace_id, attempt):
            # Flushed immediately: a SIGKILL mid-request still leaves
            # this attempt on the cross-incarnation timeline.
            spans.event("serve:request:start", op=op,
                        incarnation=self.incarnation_id)
            corrupt: Optional[fault_injection.Directive] = None
            for directive in fault_injection.fire_serve(op):
                mode = directive.mode
                self._count(f"faults.{mode}")
                if mode == "drop":
                    return None, None
                if mode == "stall":
                    time.sleep(directive.seconds)
                elif mode == "corrupt-response":
                    corrupt = directive
                elif mode == "oom-evict":
                    self.session.evict_residents()
            response = self._handle(op, params, request_id, timeout_ms,
                                    started, received)
        response.setdefault("request_id", trace_id)
        response.setdefault("attempt", attempt)
        response.setdefault("incarnation", self.incarnation_id)
        payload = protocol.encode(response)
        if corrupt is not None:
            payload = fault_injection.corrupt_response(payload,
                                                       corrupt.seed)
        stream = None
        if op == "stats" and response.get("ok") \
                and params.get("stream"):
            stream = {
                "interval_s": min(
                    STREAM_MAX_INTERVAL_S,
                    max(STREAM_MIN_INTERVAL_S,
                        float(params.get("interval_s", 1.0)))),
                "count": int(params.get("count", 0)),
                "request_id": trace_id,
            }
        return payload, stream

    def _handle(self, op: str, params: dict, request_id,
                timeout_ms: Optional[float], started: float,
                received: float) -> dict:
        if op in CONTROL_OPS:
            return self._execute(
                op, lambda: self._control_ops[op](params),
                request_id, started, received, deadline_ms=None)
        pair = self._work_ops.get(op)
        if pair is None:
            known = sorted(self._work_ops) + sorted(self._control_ops)
            self._observe(op, protocol.STATUS_NOT_FOUND,
                          (time.perf_counter() - started) * 1000.0)
            return protocol.error_response(
                request_id, protocol.STATUS_NOT_FOUND,
                f"unknown op {op!r}; known: {known}")
        builder, executor = pair
        try:
            request = builder(params)
        except ValueError as exc:
            self._observe(op, protocol.STATUS_BAD_REQUEST,
                          (time.perf_counter() - started) * 1000.0)
            return protocol.error_response(
                request_id, protocol.STATUS_BAD_REQUEST, str(exc))
        except Exception as exc:
            self._observe(op, protocol.STATUS_ERROR,
                          (time.perf_counter() - started) * 1000.0)
            return protocol.error_response(
                request_id, protocol.STATUS_ERROR,
                f"{type(exc).__name__}: {exc}")
        deadline_ms = timeout_ms if timeout_ms is not None \
            else (self.deadline_ms or None)
        cheap = self.session.probe(request)
        decision = self.admission.admit(op, cheap)
        if not decision.allowed:
            counter = "shed" if decision.verdict == "shed" \
                else "rejected"
            self._count(counter)
            if decision.verdict == "shed":
                self._count(f"shed.{op}")
            self._observe(op, protocol.STATUS_BUSY,
                          (time.perf_counter() - started) * 1000.0)
            return protocol.error_response(
                request_id, protocol.STATUS_BUSY, decision.reason,
                retry_after_ms=decision.retry_after_ms)
        try:
            with self.admission.running:
                return self._execute(
                    op, lambda: executor(request), request_id,
                    started, received, deadline_ms)
        finally:
            self.admission.release()

    def _execute(self, op: str, call: Callable[[], dict], request_id,
                 started: float, received: float,
                 deadline_ms: Optional[float]) -> dict:
        with spans.span("serve:request", op=op) as sp:
            with self._metrics_lock:
                self._inflight += 1
            try:
                # The deadline anchors at *receipt*: time spent queued
                # behind the running gate counts against the budget,
                # and a request that exhausted it while waiting 504s
                # here instead of starting work nobody wants.
                with api.deadline_scope(deadline_ms, anchor=received):
                    api.check_deadline(f"serve:{op}")
                    result = call()
                status = protocol.STATUS_OK
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                response = protocol.ok_response(request_id, result,
                                                elapsed_ms)
            except api.DeadlineExceeded as exc:
                status = protocol.STATUS_TIMEOUT
                self._count("deadline_expired")
                response = protocol.timeout_response(
                    request_id, str(exc), exc.deadline_ms, exc.stages,
                    budgets=exc.budgets)
            except ValueError as exc:
                status = protocol.STATUS_BAD_REQUEST
                response = protocol.error_response(request_id, status,
                                                   str(exc))
            except Exception as exc:
                status = protocol.STATUS_ERROR
                response = protocol.error_response(
                    request_id, status,
                    f"{type(exc).__name__}: {exc}")
            finally:
                with self._metrics_lock:
                    self._inflight -= 1
            sp.set("status", status)
            sp.set("incarnation", self.incarnation_id)
            if deadline_ms:
                sp.set("deadline_ms", deadline_ms)
            self._observe(op, status,
                          (time.perf_counter() - started) * 1000.0)
            return response

    # -- work-op builders / executors -----------------------------------

    def _build_predict(self, params: dict) -> api.PredictRequest:
        protocol.check_params(params, frozenset({"names", "scale",
                                                 "scheme"}))
        return api.PredictRequest(
            names=tuple(params.get("names") or ()),
            scale=float(params.get("scale", api.DEFAULT_PREDICT_SCALE)),
            scheme=str(params.get("scheme", api.DEFAULT_SCHEME)))

    def _exec_predict(self, request: api.PredictRequest) -> dict:
        response = self.session.predict(request)
        return {"lines": list(response.lines),
                "names": list(response.request.names),
                "scale": response.request.scale,
                "scheme": response.request.scheme}

    def _build_regions(self, params: dict) -> api.RegionsRequest:
        protocol.check_params(params, frozenset({"names", "scale"}))
        return api.RegionsRequest(
            names=tuple(params.get("names") or ()),
            scale=float(params.get("scale", api.DEFAULT_REGIONS_SCALE)))

    def _exec_regions(self, request: api.RegionsRequest) -> dict:
        response = self.session.regions(request)
        return {"lines": list(response.lines),
                "names": list(response.request.names),
                "scale": response.request.scale}

    def _build_timing(self, params: dict) -> api.TimingRequest:
        protocol.check_params(params, frozenset({"names", "scale"}))
        return api.TimingRequest(
            names=tuple(params.get("names") or ()),
            scale=float(params.get("scale", api.DEFAULT_TIMING_SCALE)))

    def _exec_timing(self, request: api.TimingRequest) -> dict:
        response = self.session.timing(request)
        return {"lines": list(response.lines),
                "names": list(response.request.names),
                "scale": response.request.scale}

    def _build_experiment(self, params: dict) -> api.ExperimentRequest:
        protocol.check_params(params, frozenset({"experiment", "names",
                                                 "scale"}))
        experiment = params.get("experiment")
        if not isinstance(experiment, str):
            raise ValueError("'experiment' (string) is required")
        return api.ExperimentRequest(
            experiment=experiment,
            names=tuple(params.get("names") or ()),
            scale=params.get("scale"))

    def _exec_experiment(self, request: api.ExperimentRequest) -> dict:
        response = self.session.experiment(request)
        return {"rendered": response.rendered,
                "experiment": response.request.experiment,
                "names": list(response.request.names),
                "scale": response.request.scale}

    def _build_sleep(self, params: dict) -> dict:
        """Debug-only: hold a worker slot (admission-control tests)."""
        protocol.check_params(params, frozenset({"seconds"}))
        return {"seconds": min(30.0, float(params.get("seconds", 0.1)))}

    def _exec_sleep(self, request: dict) -> dict:
        # Deadline-aware slices: a sleeping request past its budget
        # 504s at the next boundary, which is what the drain-vs-
        # deadline race tests lean on.
        remaining = request["seconds"]
        while remaining > 0:
            api.check_deadline("sleep")
            slice_s = min(0.05, remaining)
            time.sleep(slice_s)
            remaining -= slice_s
        return {"slept_s": request["seconds"]}

    # -- telemetry / streaming ------------------------------------------

    def _latency_summary(self, snapshot: dict) -> dict:
        entry = snapshot.get("serve.latency_ms")
        if entry is None:
            return {}
        histogram = Histogram.from_snapshot("serve.latency_ms", entry)
        return {"p50": histogram.quantile(0.50),
                "p95": histogram.quantile(0.95),
                "p99": histogram.quantile(0.99),
                "mean": histogram.mean,
                "count": histogram.count}

    def telemetry_snapshot(self) -> dict:
        """One compact telemetry sample (JSON-able).

        The shared shape behind the continuous recorder
        (``telemetry.jsonl`` lines), the ``stats --stream`` frames,
        and ``repro top``: headline counters, live latency quantiles,
        the admission window, and residency - small enough to sample
        every few seconds without disturbing the serving path.
        """
        with self._metrics_lock:
            snapshot = self.registry.snapshot()
            inflight = self._inflight

        def counter(name: str) -> float:
            entry = snapshot.get(name)
            if entry is None or entry.get("kind") != "counter":
                return 0
            return entry["value"]

        return {
            "ts": round(time.time(), 3),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "incarnation": self.incarnation_id,
            "inflight": inflight,
            "requests": counter("serve.requests"),
            "errors": counter("serve.errors"),
            "shed": counter("serve.shed"),
            "rejected": counter("serve.rejected"),
            "deadline_expired": counter("serve.deadline_expired"),
            "latency_ms": self._latency_summary(snapshot),
            "admission": self.admission.snapshot(),
            "resident": len(self.session.warmed()),
            "memoised": self.session.memoised_count(),
        }

    def _stream_stats(self, conn: socket.socket, spec: dict) -> bool:
        """Push telemetry frames per the ``stats --stream`` spec.

        The first frame went out as the op's own response; this pushes
        the rest every ``interval_s`` seconds until ``count`` frames
        total have been sent (0 = until the client disconnects or the
        daemon stops).  Returns True when the stream ended on its own
        count (connection stays usable), False when the connection
        should close.
        """
        sent = 1                    # the dispatch response was frame 1
        count = spec["count"]
        while not self._stopping.is_set():
            if count and sent >= count:
                return True
            if self._stopping.wait(spec["interval_s"]):
                return False
            sent += 1
            frame = {"ok": True, "status": protocol.STATUS_OK,
                     "stream": True, "seq": sent,
                     "request_id": spec["request_id"],
                     "incarnation": self.incarnation_id,
                     "result": self.telemetry_snapshot()}
            if not self._send(conn, protocol.encode(frame)):
                return False
        return False

    # -- control-op handlers --------------------------------------------

    def _op_health(self, params: dict) -> dict:
        protocol.check_params(params, frozenset())
        with self._metrics_lock:
            inflight = self._inflight
        admission = self.admission.snapshot()
        return {"status": admission["state"],
                "pid": os.getpid(),
                "incarnation": self.incarnation_id,
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "inflight": inflight,
                "max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
                "deadline_ms": self.deadline_ms or None,
                "admission": admission,
                "memoised": self.session.memoised_count(),
                "warmed": [list(pair) for pair
                           in self.session.warmed()]}

    def _op_stats(self, params: dict) -> dict:
        protocol.check_params(params, frozenset({"stream", "interval_s",
                                                 "count"}))
        if params.get("stream"):
            interval = params.get("interval_s", 1.0)
            if not isinstance(interval, (int, float)) \
                    or isinstance(interval, bool) or interval <= 0:
                raise ValueError(
                    "'interval_s' must be a positive number")
            count = params.get("count", 0)
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count < 0:
                raise ValueError("'count' must be an integer >= 0")
            # Streamed mode returns the compact telemetry shape for
            # every frame, this first one included, so consumers
            # handle exactly one schema.
            return self.telemetry_snapshot()
        if params.get("interval_s") is not None \
                or params.get("count"):
            raise ValueError(
                "'interval_s'/'count' require \"stream\": true")
        with self._metrics_lock:
            snapshot = self.registry.snapshot()
        return {"uptime_s": round(time.monotonic() - self._started_at, 3),
                "incarnation": self.incarnation_id,
                "latency_ms": self._latency_summary(snapshot),
                "admission": self.admission.snapshot(),
                "metrics": snapshot}

    def _op_metrics(self, params: dict) -> dict:
        """Prometheus text exposition of the full metrics registry."""
        protocol.check_params(params, frozenset())
        with self._metrics_lock:
            snapshot = self.registry.snapshot()
        text = prometheus.render(
            snapshot,
            info={"incarnation": self.incarnation_id,
                  "pid": str(os.getpid()),
                  "version": __version__})
        return {"content_type": prometheus.CONTENT_TYPE,
                "text": text}

    def _op_shutdown(self, params: dict) -> dict:
        protocol.check_params(params, frozenset())
        self.stop_requested.set()
        return {"stopping": True}
