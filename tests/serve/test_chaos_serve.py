"""Serve-layer chaos drills: ``serve:*`` fault directives in anger.

The contract under injected faults is deterministic degradation:
every answered request is byte-identical to the fault-free answer, or
a *typed* error status (503 with a retry hint, 504 with stage
timings, 500 with the exception type) - never a silently-wrong
payload, and never a wedged daemon.  ``pytest-timeout`` is not
available in this environment, so anything that could hang runs
under the ``finishes_within`` thread-join guard.
"""

import json
import threading
import time

import pytest

from repro import api, config
from repro.serve.admission import AdmissionController
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer
from repro.workloads import suite

NAME = "db_vortex"
SCALE = 0.2


def finishes_within(budget_s, fn, *args, **kwargs):
    """Run ``fn`` on a thread; fail the test if it outlives the budget.

    Returns ``fn``'s result.  Substitute for pytest-timeout: a
    deadlocked drain fails the assertion instead of hanging the run.
    """
    box = {}

    def runner():
        try:
            box["result"] = fn(*args, **kwargs)
        except BaseException as exc:     # propagate to the test thread
            box["error"] = exc

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    thread.join(budget_s)
    assert not thread.is_alive(), \
        f"{fn.__name__} still running after {budget_s}s"
    if "error" in box:
        raise box["error"]
    return box.get("result")


def canonical(response):
    """The response payload in comparison form (timings vary)."""
    return json.dumps(response["result"], sort_keys=True)


@pytest.fixture(autouse=True)
def _no_faults(monkeypatch):
    monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)


def _drill(spec):
    """Run the block under the serve fault plan ``spec``."""
    return config.override(inject_fault=spec)


@pytest.fixture(scope="module")
def warm_server():
    """One warmed daemon shared by the fault drills in this module."""
    session = api.Session(resident=True)
    session.warm([(NAME, SCALE)])
    server = ReproServer(session, port=0, debug_ops=True)
    address = server.start()
    yield server, address
    server.shutdown(drain=True)
    suite.clear_caches()


class TestByteIdentityUnderFaults:
    """Each fault mode either leaves the answer byte-identical or is
    absorbed by bounded client retries - the fault is invisible at
    the payload level."""

    def _baseline(self, address):
        with ServeClient(address) as client:
            response = client.call("predict", names=[NAME], scale=SCALE)
        assert response["ok"]
        return canonical(response)

    def test_drop_is_absorbed_by_retry(self, warm_server):
        _, address = warm_server
        baseline = self._baseline(address)
        with _drill("serve:drop,op=predict,times=1"):
            with ServeClient(address, retries=2) as client:
                response = client.call("predict", names=[NAME], scale=SCALE)
            assert response["ok"]
            assert canonical(response) == baseline

    def test_stall_delays_but_does_not_change_the_answer(self,
                                                         warm_server):
        _, address = warm_server
        baseline = self._baseline(address)
        with _drill("serve:stall,op=predict,seconds=0.2,times=1"):
            with ServeClient(address) as client:
                started = time.monotonic()
                response = client.call("predict", names=[NAME], scale=SCALE)
                elapsed = time.monotonic() - started
            assert response["ok"]
            assert canonical(response) == baseline
            assert elapsed >= 0.2

    def test_corrupt_response_is_retried_to_identical_bytes(
            self, warm_server):
        _, address = warm_server
        baseline = self._baseline(address)
        with _drill("serve:corrupt-response,op=predict,times=1,seed=7"):
            with ServeClient(address, retries=2) as client:
                response = client.call("predict", names=[NAME], scale=SCALE)
            assert response["ok"]
            assert canonical(response) == baseline
            assert client.retry_total >= 1

    def test_oom_evict_recomputes_identical_bytes(self, warm_server):
        server, address = warm_server
        baseline = self._baseline(address)
        with _drill("serve:oom-evict,op=predict,times=1,seed=1"):
            with ServeClient(address) as client:
                response = client.call("predict", names=[NAME], scale=SCALE)
            assert response["ok"]
            assert canonical(response) == baseline

    def test_fault_fires_are_counted(self, warm_server):
        _, address = warm_server
        with _drill("serve:stall,op=health,seconds=0.01,times=1;"
                    "serve:drop,op=sleep,times=1"):
            with ServeClient(address) as client:
                client.health()
                metrics = client.stats()["metrics"]
            assert metrics["serve.faults.stall"]["value"] >= 1


class TestTypedErrorStatuses:
    """Faults the client cannot be shielded from surface as *typed*
    statuses, never malformed or missing answers."""

    def test_stall_past_deadline_is_504_with_stage_timings(
            self, warm_server):
        _, address = warm_server
        with _drill("serve:stall,op=predict,seconds=0.4,times=1,seed=2"):
            with ServeClient(address) as client:
                response = client.call("predict", timeout_ms=100,
                                       names=[NAME], scale=SCALE)
            assert response["ok"] is False
            assert response["status"] == 504
            assert response["deadline_ms"] == 100
            assert isinstance(response["stages"], list)

    def test_internal_error_is_typed_500(self, warm_server,
                                         monkeypatch):
        server, address = warm_server

        def explode(_request):
            raise RuntimeError("simulated session failure")

        monkeypatch.setattr(server.session, "predict", explode)
        with ServeClient(address) as client:
            response = client.call("predict", names=[NAME], scale=SCALE)
        assert response["ok"] is False
        assert response["status"] == 500
        assert "RuntimeError" in response["error"]

    def test_eviction_storm_sheds_expensive_with_retry_hint(self):
        # oom-evict on every request turns the session into a
        # permanent cold-cache thrash; the admission controller must
        # answer expensive requests with 503 + retry_after_ms while
        # staying observable.
        # Threshold of 3 evictions over the window: the storm trips
        # it within a handful of requests.
        admission = AdmissionController(thrash_evictions_per_s=0.1,
                                        window_s=30.0)
        session = api.Session(resident=True)
        session.warm([(NAME, SCALE)])
        server = ReproServer(session, port=0, admission=admission)
        address = server.start()
        with _drill("serve:oom-evict,op=regions,times=50,seed=3"):
            try:
                with ServeClient(address) as client:
                    shed = None
                    for index in range(8):
                        response = client.call(
                            "regions", names=[NAME],
                            scale=round(0.03 + 0.001 * index, 6))
                        if response["status"] == 503:
                            shed = response
                            break
                    assert shed is not None, "thrash never shed"
                    assert shed["retry_after_ms"] > 0
                    assert client.health()["status"] == "degraded"
            finally:
                server.shutdown(drain=True)
                suite.clear_caches()


class TestDrainNeverDeadlocks:
    def test_drain_with_stalled_inflight_request_completes(self):
        # A request stalled past its deadline is in flight when drain
        # begins: the drain must flush its 504 and return, not wait
        # for work nobody wants.
        session = api.Session(resident=True)
        session.warm([(NAME, SCALE)])
        server = ReproServer(session, port=0, debug_ops=True)
        address = server.start()
        with _drill("serve:stall,op=predict,seconds=0.4,times=1,seed=4"):
            box = {}

            def doomed_request():
                with ServeClient(address) as client:
                    box["response"] = client.call(
                        "predict", timeout_ms=100, names=[NAME],
                        scale=SCALE)

            thread = threading.Thread(target=doomed_request, daemon=True)
            thread.start()
            time.sleep(0.1)     # let the request reach the stall
            try:
                finishes_within(10.0, server.shutdown, drain=True)
                thread.join(5.0)
                assert not thread.is_alive()
                assert box["response"]["status"] == 504
            finally:
                server.shutdown(drain=False)
                suite.clear_caches()
