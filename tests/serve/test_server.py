"""The ``repro serve`` daemon: concurrency, admission, shutdown.

Servers are started in-process on ephemeral ports (``port=0``) so the
tests exercise the real socket stack without fixed-port collisions.
"""

import threading
import time

import pytest

import json

from repro import api
from repro.cli import main
from repro.predictor.schemes import ALL_SCHEMES
from repro.serve.admission import AdmissionController
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import CONTROL_OPS, ReproServer
from repro.workloads import suite

SCALE = 0.2
NAME = "db_vortex"


@pytest.fixture(scope="module")
def warm_server():
    """One warmed daemon shared by the read-only tests in this module."""
    session = api.Session(resident=True)
    session.warm([(NAME, SCALE)])
    server = ReproServer(session, port=0, max_inflight=8,
                         queue_depth=16)
    address = server.start()
    yield server, address
    server.shutdown(drain=True)
    suite.clear_caches()


class TestProtocolSurface:
    def test_health_endpoint(self, warm_server):
        _, address = warm_server
        with ServeClient(address) as client:
            health = client.health()
        assert health["status"] == "ok"
        assert health["max_inflight"] == 8
        assert [NAME, SCALE] in health["warmed"]

    def test_stats_endpoint_reports_latency_quantiles(self, warm_server):
        _, address = warm_server
        with ServeClient(address) as client:
            client.result("predict", names=[NAME], scale=SCALE)
            stats = client.stats()
        summary = stats["latency_ms"]
        assert summary["count"] >= 1
        assert summary["p50"] is not None
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        snapshot = stats["metrics"]
        assert snapshot["serve.requests"]["value"] >= 1
        assert "serve.latency_ms" in snapshot
        assert "serve.op.predict.latency_ms" in snapshot

    def test_unknown_op_is_404(self, warm_server):
        _, address = warm_server
        with ServeClient(address) as client:
            response = client.call("frobnicate")
        assert response["ok"] is False
        assert response["status"] == 404

    def test_unknown_param_is_400(self, warm_server):
        _, address = warm_server
        with ServeClient(address) as client:
            with pytest.raises(ServeError) as exc_info:
                client.result("predict", names=[NAME], turbo=True)
        assert exc_info.value.status == 400

    def test_unknown_workload_is_400(self, warm_server):
        _, address = warm_server
        with ServeClient(address) as client:
            with pytest.raises(ServeError) as exc_info:
                client.result("predict", names=["176.gcc"])
        assert exc_info.value.status == 400

    def test_malformed_json_is_400(self, warm_server):
        _, address = warm_server
        client = ServeClient(address)
        try:
            client._sock.sendall(b"this is not json\n")
            import json
            response = json.loads(client._read_line())
        finally:
            client.close()
        assert response["ok"] is False
        assert response["status"] == 400

    def test_request_id_echoed_back(self, warm_server):
        _, address = warm_server
        with ServeClient(address) as client:
            response = client.call("health")
        assert response["id"] == client._next_id


class TestConcurrentDeterminism:
    def test_eight_clients_byte_identical_to_batch_cli(self, warm_server,
                                                       capsys):
        """The redesign's acceptance bar: >= 8 concurrent clients all
        receive payloads byte-identical to the batch CLI's stdout."""
        _, address = warm_server
        assert main(["predict", "--scale", str(SCALE), NAME]) == 0
        expected = capsys.readouterr().out

        payloads = [None] * 8
        errors = []

        def worker(slot):
            try:
                with ServeClient(address) as client:
                    for _ in range(3):
                        result = client.result("predict", names=[NAME],
                                               scale=SCALE)
                        text = "".join(line + "\n"
                                       for line in result["lines"])
                        assert text == expected
                    payloads[slot] = text
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert all(payload == expected for payload in payloads)

    def test_experiment_payload_matches_batch_cli(self, warm_server,
                                                  capsys):
        _, address = warm_server
        assert main(["experiment", "table1", "--scale", str(SCALE),
                     NAME]) == 0
        expected = capsys.readouterr().out
        with ServeClient(address) as client:
            result = client.result("experiment", experiment="table1",
                                   names=[NAME], scale=SCALE)
        assert result["rendered"] + "\n" == expected


class TestAdmissionControl:
    def test_overload_is_rejected_with_503(self):
        server = ReproServer(api.Session(resident=True), port=0,
                             max_inflight=1, queue_depth=0,
                             debug_ops=True)
        address = server.start()
        try:
            ready = threading.Event()
            holder_response = {}

            def hold_slot():
                with ServeClient(address) as client:
                    ready.set()
                    holder_response.update(
                        client.call("sleep", seconds=1.5))

            holder = threading.Thread(target=hold_slot)
            holder.start()
            ready.wait(timeout=10)
            time.sleep(0.3)     # let the sleep op take the only slot
            rejected = 0
            with ServeClient(address) as client:
                for _ in range(5):
                    response = client.call("sleep", seconds=0.0)
                    if response["status"] == 503:
                        rejected += 1
                # Control ops bypass admission even under overload,
                # and health reports the saturated state honestly.
                assert client.health()["status"] == "overloaded"
                stats = client.stats()
            holder.join(timeout=30)
            assert rejected >= 1
            assert holder_response.get("ok") is True
            assert stats["metrics"]["serve.rejected"]["value"] \
                >= rejected
            assert "sleep" not in CONTROL_OPS
        finally:
            server.shutdown(drain=True)

    def test_constructor_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            ReproServer(max_inflight=0)
        with pytest.raises(ValueError):
            ReproServer(queue_depth=-1)


class TestWarmReadiness:
    #: The five programs of the repository benchmark's serve workload.
    PROGRAMS = ("go_ai", "ccomp", "lisp", "db_vortex", "swim_fp")
    WARM_SCALE = 0.05

    def test_warmed_daemon_admits_first_time_requests(self, tmp_path):
        """Warm-up loads stay out of the admission window.

        The window's sample floor is set to the warm-up's size, so
        were the five warm loads counted as misses the daemon would
        read a 0% hit rate, latch ``degraded`` and shed every
        first-time (not yet memoised) request with a 503.
        """
        manifest = tmp_path / "warm.json"
        session = api.Session(resident=True)
        server = ReproServer(
            session, port=0, warm_manifest=manifest,
            admission=AdmissionController(
                min_window_events=len(self.PROGRAMS)))
        address = server.start()
        try:
            session.warm([(name, self.WARM_SCALE)
                          for name in self.PROGRAMS])
            combos = [(name, scheme.name) for scheme in ALL_SCHEMES
                      for name in self.PROGRAMS][:16]
            statuses = [None] * len(combos)

            def send(slot):
                name, scheme = combos[slot]
                with ServeClient(address) as client:
                    statuses[slot] = client.call(
                        "predict", names=[name], scheme=scheme,
                        scale=self.WARM_SCALE)["status"]

            threads = [threading.Thread(target=send, args=(slot,))
                       for slot in range(len(combos))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            with ServeClient(address) as client:
                health = client.health()
        finally:
            server.shutdown(drain=True)
            suite.clear_caches()
        assert statuses == [200] * len(combos)
        assert health["status"] == "ok"
        assert health["admission"]["window"]["misses"] == 0
        # Warm-up loads still count as trace misses and still update
        # the persisted warm set.
        assert session.metrics.snapshot()["api.trace.misses"]["value"] \
            == len(self.PROGRAMS)
        warmed = json.loads(manifest.read_text())["pairs"]
        assert sorted(name for name, _ in warmed) \
            == sorted(self.PROGRAMS)


class TestShutdown:
    def test_drain_finishes_inflight_request(self):
        """Clean shutdown: the in-flight request completes and its
        response is flushed before the connection closes."""
        server = ReproServer(api.Session(resident=True), port=0,
                             debug_ops=True)
        address = server.start()
        inflight_response = {}

        def slow_request():
            with ServeClient(address) as client:
                inflight_response.update(
                    client.call("sleep", seconds=1.0))

        requester = threading.Thread(target=slow_request)
        requester.start()
        time.sleep(0.3)         # ensure the request is executing
        server.shutdown(drain=True, timeout=30)
        requester.join(timeout=30)
        assert inflight_response.get("ok") is True
        assert inflight_response["result"]["slept_s"] == 1.0

    def test_wire_shutdown_op_requests_stop(self):
        server = ReproServer(api.Session(resident=True), port=0)
        address = server.start()
        try:
            with ServeClient(address) as client:
                assert client.shutdown() == {"stopping": True}
            assert server.wait_for_stop(timeout=10)
        finally:
            server.shutdown(drain=True)

    def test_cli_serve_round_trip(self, tmp_path, capsys):
        """The ``repro serve`` subcommand end to end: warm, announce,
        serve, honour the wire-side shutdown op, exit 0."""
        port_file = tmp_path / "serve.port"
        exit_code = {}

        def run_daemon():
            exit_code["value"] = main(
                ["serve", "--port", "0", "--port-file", str(port_file),
                 "--warm", f"{NAME}@{SCALE}"])

        daemon = threading.Thread(target=run_daemon)
        daemon.start()
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            port = int(port_file.read_text())
            with ServeClient(("127.0.0.1", port)) as client:
                health = client.health()
                assert [NAME, SCALE] in health["warmed"]
                client.shutdown()
        finally:
            daemon.join(timeout=60)
        assert exit_code.get("value") == 0
        err = capsys.readouterr().err
        assert "warmed 1 trace(s)" in err
        assert "listening on 127.0.0.1:" in err
        suite.clear_caches()

    def test_cli_serve_rejects_bad_warm_spec(self, capsys):
        assert main(["serve", "--port", "0", "--warm",
                     f"{NAME}@fast"]) == 2
        assert "invalid --warm spec" in capsys.readouterr().err

    def test_unix_socket_round_trip(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        session = api.Session(resident=True)
        server = ReproServer(session, unix_socket=path)
        address = server.start()
        assert address == path
        try:
            with ServeClient(address) as client:
                assert client.health()["status"] == "ok"
        finally:
            server.shutdown(drain=True)
        suite.clear_caches()
