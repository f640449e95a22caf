"""Serving-path resilience: deadlines, shedding, retries, breakers.

Deadlock-sensitive assertions run the operation under test on a
helper thread and fail if it does not finish inside a hard budget
(the stdlib stand-in for pytest-timeout, which this environment does
not ship).
"""

import json
import socket
import threading
import time

import pytest

from repro import api, config
from repro.serve.admission import (AdmissionController, STATE_DEGRADED,
                                   STATE_OK, STATE_OVERLOADED)
from repro.serve.client import (CircuitOpenError, ServeClient,
                                connect_with_retry)
from repro.serve.server import ReproServer, read_warm_manifest
from repro.workloads import suite

SCALE = 0.2
NAME = "db_vortex"


@pytest.fixture(autouse=True)
def _no_faults(monkeypatch):
    monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)


def _drill(spec):
    """Run the block under the serve fault plan ``spec``."""
    return config.override(inject_fault=spec)


def finishes_within(budget_s, fn, *args, **kwargs):
    """Run ``fn`` on a thread; fail the test if it outlives budget."""
    box = {}

    def runner():
        try:
            box["result"] = fn(*args, **kwargs)
        except Exception as exc:        # surfaced below
            box["error"] = exc

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    thread.join(budget_s)
    assert not thread.is_alive(), \
        f"{fn} did not finish within {budget_s}s (deadlock?)"
    if "error" in box:
        raise box["error"]
    return box.get("result")


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- deadline plumbing (session layer) ----------------------------------

class TestDeadlineScope:
    def test_no_scope_is_a_noop(self):
        api.check_deadline("anything")      # must not raise

    def test_none_timeout_disables(self):
        with api.deadline_scope(None):
            assert api.current_deadline() is None
            api.check_deadline("stage")

    def test_expiry_raises_with_stage_attribution(self):
        with api.deadline_scope(20):
            api.check_deadline("stage-a")
            time.sleep(0.05)
            with pytest.raises(api.DeadlineExceeded) as excinfo:
                api.check_deadline("stage-b")
        exc = excinfo.value
        assert exc.deadline_ms == 20
        # The elapsed time was attributed to the stage that ran.
        labels = [label for label, _ in exc.stages]
        assert labels == ["stage-a"]
        assert exc.stages[0][1] >= 40
        assert exc.stage == "stage-b"

    def test_scopes_nest_and_restore(self):
        with api.deadline_scope(10_000):
            outer = api.current_deadline()
            with api.deadline_scope(5_000):
                assert api.current_deadline() is not outer
            assert api.current_deadline() is outer
        assert api.current_deadline() is None

    def test_anchor_backdates_the_budget(self):
        anchor = time.monotonic() - 1.0     # already spent
        with api.deadline_scope(500, anchor=anchor):
            with pytest.raises(api.DeadlineExceeded):
                api.check_deadline("immediate")

    def test_session_op_honours_deadline(self):
        session = api.Session(resident=True)
        with api.deadline_scope(0.001):
            time.sleep(0.01)
            with pytest.raises(api.DeadlineExceeded):
                session.regions(api.RegionsRequest(names=(NAME,),
                                                   scale=SCALE))
        suite.clear_caches()


# -- admission controller ----------------------------------------------

class TestAdmissionController:
    def test_healthy_allows(self):
        controller = AdmissionController(max_inflight=2, queue_depth=2)
        decision = controller.admit("predict", cheap=False)
        assert decision.allowed
        assert controller.state() == STATE_OK
        controller.release()

    def test_hard_bound_busies_everyone(self):
        controller = AdmissionController(max_inflight=1, queue_depth=0)
        assert controller.admit("predict", cheap=True).allowed
        decision = controller.admit("predict", cheap=True)
        assert decision.verdict == "busy"
        assert decision.retry_after_ms is not None
        assert controller.state() == STATE_OVERLOADED
        controller.release()
        assert controller.state() == STATE_OK

    def test_eviction_churn_degrades_and_sheds_expensive(self):
        clock = FakeClock()
        controller = AdmissionController(window_s=10.0,
                                         thrash_evictions_per_s=1.0,
                                         clock=clock)
        for _ in range(12):
            controller.note_trace_event("evict")
            clock.advance(0.1)
        assert controller.thrashing()
        assert controller.state() == STATE_DEGRADED
        shed = controller.admit("experiment", cheap=False)
        assert shed.verdict == "shed"
        assert shed.retry_after_ms == controller.shed_retry_after_ms
        # Cheap (memoised) traffic keeps flowing.
        assert controller.admit("predict", cheap=True).allowed
        controller.release()

    def test_window_expires_and_recovers_after_the_hold(self):
        clock = FakeClock()
        controller = AdmissionController(window_s=10.0,
                                         degraded_hold_s=15.0,
                                         clock=clock)
        for _ in range(20):
            controller.note_trace_event("evict")
        assert controller.state() == STATE_DEGRADED
        # The eviction window has drained, but the degraded state
        # latches: shedding silences the signal, so recovery waits
        # for the hold rather than flapping.
        clock.advance(11.0)
        assert controller.state() == STATE_DEGRADED
        clock.advance(15.0)
        assert controller.state() == STATE_OK
        assert controller.admit("experiment", cheap=False).allowed
        controller.release()

    def test_low_hit_rate_degrades_once_window_fills(self):
        clock = FakeClock()
        controller = AdmissionController(window_s=10.0,
                                         min_hit_rate=0.5,
                                         min_window_events=16,
                                         clock=clock)
        for _ in range(8):
            controller.note_trace_event("miss")
        assert not controller.thrashing()   # too few samples yet
        for _ in range(8):
            controller.note_trace_event("miss")
        assert controller.thrashing()

    def test_snapshot_shape(self):
        controller = AdmissionController()
        snapshot = controller.snapshot()
        assert snapshot["state"] == STATE_OK
        assert snapshot["window"]["hit_rate"] is None
        assert snapshot["shed_total"] == 0
        assert snapshot["busy_total"] == 0


# -- server deadline integration ----------------------------------------

class TestServerDeadlines:
    def _server(self, **kwargs):
        kwargs.setdefault("debug_ops", True)
        server = ReproServer(api.Session(resident=True), port=0,
                             **kwargs)
        return server, server.start()

    def test_per_request_timeout_ms_times_out_with_504(self):
        server, address = self._server()
        try:
            with ServeClient(address) as client:
                response = client.call("sleep", timeout_ms=80,
                                       seconds=2.0)
            assert response["status"] == 504
            assert response["ok"] is False
            assert response["deadline_ms"] == 80
            assert isinstance(response["stages"], list)
        finally:
            server.shutdown(drain=True)

    def test_server_default_deadline_applies(self):
        server, address = self._server(deadline_ms=80)
        try:
            with ServeClient(address) as client:
                response = client.call("sleep", seconds=2.0)
            assert response["status"] == 504
        finally:
            server.shutdown(drain=True)

    def test_env_default_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "80")
        server, address = self._server()
        try:
            assert server.deadline_ms == 80
            with ServeClient(address) as client:
                response = client.call("sleep", seconds=2.0)
            assert response["status"] == 504
        finally:
            server.shutdown(drain=True)

    def test_zero_deadline_disables(self):
        server, address = self._server(deadline_ms=0)
        try:
            with ServeClient(address) as client:
                response = client.call("sleep", seconds=0.05)
            assert response["status"] == 200
        finally:
            server.shutdown(drain=True)

    def test_timeouts_are_counted(self):
        server, address = self._server()
        try:
            with ServeClient(address) as client:
                client.call("sleep", timeout_ms=50, seconds=1.0)
                stats = client.stats()
            assert stats["metrics"]["serve.deadline_expired"]["value"] \
                == 1
            assert stats["metrics"]["serve.status.504"]["value"] == 1
        finally:
            server.shutdown(drain=True)

    def test_drain_races_inflight_deadline_expiry(self):
        """A request past its deadline during drain gets its 504 -
        the drain completes instead of hanging on doomed work."""
        server, address = self._server()
        client = ServeClient(address)
        box = {}

        def doomed():
            box["response"] = client.call("sleep", timeout_ms=300,
                                          seconds=30.0)

        requester = threading.Thread(target=doomed, daemon=True)
        requester.start()
        time.sleep(0.1)     # the sleep op is now in flight
        finishes_within(10.0, server.shutdown, drain=True)
        requester.join(5.0)
        assert not requester.is_alive()
        assert box["response"]["status"] == 504
        client.close()

    def test_expired_in_queue_rejected_before_execution(self):
        """A queued request whose budget dies waiting 504s on arrival
        at the worker slot, without running the handler."""
        server, address = self._server(max_inflight=1, queue_depth=4)
        try:
            holder = ServeClient(address)
            box = {}

            def hold():
                box["hold"] = holder.call("sleep", seconds=1.0)

            holding = threading.Thread(target=hold, daemon=True)
            holding.start()
            time.sleep(0.2)     # the only slot is now busy
            with ServeClient(address) as client:
                t0 = time.perf_counter()
                response = client.call("sleep", timeout_ms=100,
                                       seconds=30.0)
                elapsed = time.perf_counter() - t0
            assert response["status"] == 504
            # It expired in the queue and never slept 30s.
            assert elapsed < 5.0
            holding.join(10.0)
            assert box["hold"]["status"] == 200
            holder.close()
        finally:
            server.shutdown(drain=True)


# -- load shedding end to end -------------------------------------------

class TestLoadShedding:
    def test_thrash_sheds_cold_keeps_memoised(self):
        admission = AdmissionController(thrash_evictions_per_s=0.5,
                                        window_s=30.0)
        session = api.Session(resident=True, max_resident_traces=1)
        server = ReproServer(session, port=0, admission=admission)
        address = server.start()
        try:
            with ServeClient(address) as client:
                # Memoise one cheap request while healthy.
                warm = client.call("regions", names=[NAME], scale=SCALE)
                assert warm["status"] == 200
                # Churn the 1-entry LRU with distinct cold scales.
                for index in range(20):
                    scale = 0.03 + 0.001 * index
                    response = client.call("regions", names=[NAME],
                                           scale=scale)
                    if response["status"] == 503:
                        break
                else:
                    pytest.fail("cold requests were never shed")
                assert response["retry_after_ms"] is not None
                assert "thrash" in response["error"]
                # The memoised request still flows, byte-identically.
                again = client.call("regions", names=[NAME],
                                    scale=SCALE)
                assert again["status"] == 200
                assert again["result"] == warm["result"]
                health = client.health()
                assert health["status"] == "degraded"
                assert health["admission"]["shed_total"] >= 1
                stats = client.stats()
                assert stats["metrics"]["serve.shed"]["value"] >= 1
        finally:
            server.shutdown(drain=True)
            suite.clear_caches()


# -- client retry / circuit breaker -------------------------------------

class TestClientResilience:
    def _server(self, **kwargs):
        server = ReproServer(api.Session(resident=True), port=0,
                             debug_ops=True, **kwargs)
        return server, server.start()

    def test_retries_reconnect_through_drops(self):
        server, address = self._server()
        try:
            with _drill("serve:drop,times=2"):
                client = ServeClient(address, retries=3, backoff_s=0.01)
                response = client.call("sleep", seconds=0.0)
                assert response["status"] == 200
                assert client.retry_total == 2
                client.close()
        finally:
            server.shutdown(drain=True)

    def test_no_retries_propagates_drop(self):
        server, address = self._server()
        try:
            with _drill("serve:drop"):
                with ServeClient(address) as client:
                    with pytest.raises((ConnectionError, OSError)):
                        client.call("sleep", seconds=0.0)
        finally:
            server.shutdown(drain=True)

    def test_corrupt_response_retried_to_identical_payload(self):
        server, address = self._server()
        try:
            with ServeClient(address) as baseline_client:
                baseline = baseline_client.result(
                    "regions", names=[NAME], scale=SCALE)
            with _drill("serve:corrupt-response,times=1"):
                client = ServeClient(address, retries=2, backoff_s=0.01)
                result = client.result("regions", names=[NAME], scale=SCALE)
                assert result == baseline
                assert client.retry_total == 1
                client.close()
        finally:
            server.shutdown(drain=True)
            suite.clear_caches()

    def test_definitive_statuses_never_retry(self):
        server, address = self._server()
        try:
            client = ServeClient(address, retries=5, backoff_s=0.01)
            response = client.call("nonsense-op")
            assert response["status"] == 404
            assert client.retry_total == 0
            client.close()
        finally:
            server.shutdown(drain=True)

    def test_breaker_opens_and_recovers_half_open(self):
        server, address = self._server()
        clock = FakeClock()
        naps = []
        try:
            client = ServeClient(address, retries=1, backoff_s=0.01,
                                 breaker_threshold=2,
                                 breaker_reset_s=5.0, clock=clock,
                                 sleep=naps.append)
            # Two consecutive exhausted calls trip the breaker.
            with _drill("serve:drop,times=10"):
                for _ in range(2):
                    with pytest.raises((ConnectionError, OSError)):
                        client.call("sleep", seconds=0.0)
                with pytest.raises(CircuitOpenError) as excinfo:
                    client.call("sleep", seconds=0.0)
                assert excinfo.value.retry_after_s > 0
            # After the reset window a half-open trial goes through.
            clock.advance(6.0)
            response = client.call("sleep", seconds=0.0)
            assert response["status"] == 200
            # Success closed the circuit.
            assert client.call("sleep", seconds=0.0)["status"] == 200
            assert naps      # retries actually backed off
            client.close()
        finally:
            server.shutdown(drain=True)

    def test_connect_with_retry_reaches_late_server(self, tmp_path):
        path = str(tmp_path / "late.sock")
        server = ReproServer(api.Session(resident=True),
                             unix_socket=path, debug_ops=True)

        def late_start():
            time.sleep(0.3)
            server.start()

        threading.Thread(target=late_start, daemon=True).start()
        try:
            client = connect_with_retry(path, deadline_s=10.0)
            assert client.health()["status"] == "ok"
            client.close()
        finally:
            server.shutdown(drain=True)

    def test_connect_with_retry_gives_up(self):
        with pytest.raises(OSError):
            connect_with_retry(("127.0.0.1", 1), deadline_s=0.3,
                               poll_s=0.1)


# -- socket hygiene -----------------------------------------------------

class TestSocketTimeouts:
    def test_slow_loris_partial_line_dropped_and_counted(self):
        server = ReproServer(api.Session(resident=True), port=0,
                             idle_timeout_s=0.5)
        address = server.start()
        try:
            loris = socket.create_connection(address, timeout=10)
            loris.sendall(b'{"op": "heal')      # never finishes the line
            deadline = time.monotonic() + 10
            dropped = False
            while time.monotonic() < deadline:
                try:
                    if loris.recv(1024) == b"":
                        dropped = True
                        break
                except socket.timeout:
                    break
            assert dropped, "slow-loris connection was not dropped"
            loris.close()
            with ServeClient(address) as client:
                stats = client.stats()
            assert stats["metrics"]["serve.idle_drops"]["value"] == 1
        finally:
            server.shutdown(drain=True)

    def test_idle_keepalive_connection_survives(self):
        server = ReproServer(api.Session(resident=True), port=0,
                             idle_timeout_s=0.3, debug_ops=True)
        address = server.start()
        try:
            with ServeClient(address) as client:
                assert client.call("sleep", seconds=0.0)["status"] == 200
                time.sleep(0.8)     # idle but with no partial line
                assert client.call("sleep", seconds=0.0)["status"] == 200
        finally:
            server.shutdown(drain=True)


# -- warm-set manifest --------------------------------------------------

class TestWarmManifest:
    def test_manifest_written_and_read_back(self, tmp_path):
        manifest = tmp_path / "warm.json"
        session = api.Session(resident=True)
        server = ReproServer(session, port=0, warm_manifest=manifest)
        address = server.start()
        try:
            with ServeClient(address) as client:
                client.result("regions", names=[NAME], scale=SCALE)
            assert read_warm_manifest(manifest) == [(NAME, SCALE)]
            document = json.loads(manifest.read_text())
            assert document["version"] == 1
        finally:
            server.shutdown(drain=True)
            suite.clear_caches()

    def test_missing_or_corrupt_manifest_reads_empty(self, tmp_path):
        assert read_warm_manifest(tmp_path / "absent.json") == []
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert read_warm_manifest(bad) == []
        wrong_shape = tmp_path / "wrong.json"
        wrong_shape.write_text('{"version": 1, "pairs": "nope"}')
        assert read_warm_manifest(wrong_shape) == []
