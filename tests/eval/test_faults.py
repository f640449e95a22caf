"""Engine fault-tolerance tests: retries, timeouts, rebuilds, fallback.

Workers live at module level so they survive the pickle round-trip into
pool workers.  All injected faults are deterministic (attempt-keyed),
and backoff sleeps are observed through the injectable
``faults._sleep`` so no test waits out a real delay.
"""

import time
from pathlib import Path

import pytest

from repro import config
from repro.eval import engine, faults
from repro.obs import profile as obs_profile
from repro.eval.faults import CellFailure, CellTimeout, RetryPolicy
from repro.testing import faults as fi

NAMES = ("alpha", "beta", "gamma")


def _ok_cell(name, scale):
    return f"{name}@{scale}"


def _instant() -> RetryPolicy:
    """A policy with no real waiting, for pool tests."""
    return RetryPolicy(max_retries=2, backoff_base=0.0,
                       max_pool_rebuilds=2)


@pytest.fixture(autouse=True)
def _clean():
    engine.reset_fault_stats()
    engine.take_metrics()
    yield
    engine.reset_fault_stats()


def _report() -> str:
    """The stage report of an empty journal plus this run's counters."""
    return obs_profile.render_stage_report(
        obs_profile.RunProfile(source=Path()),
        resilience=engine.resilience_snapshot())


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.5)
        assert [policy.backoff(a) for a in (1, 2, 3, 4, 5)] == \
            [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_from_env(self):
        policy = config.Config.from_env({
            "REPRO_RETRIES": "5", "REPRO_RETRY_BACKOFF": "0.5",
            "REPRO_CELL_TIMEOUT": "30", "REPRO_POOL_REBUILDS": "1"}).retry
        assert policy.max_retries == 5
        assert policy.backoff_base == 0.5
        assert policy.cell_timeout == 30.0
        assert policy.max_pool_rebuilds == 1

    def test_from_env_defaults_and_garbage(self):
        with pytest.warns(RuntimeWarning) as caught:
            policy = config.Config.from_env({
                "REPRO_RETRIES": "nope", "REPRO_CELL_TIMEOUT": "-3"}).retry
        assert len(caught) == 2
        assert policy.max_retries == 2
        assert policy.cell_timeout is None

    def test_set_policy_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "9")
        with config.override(retry=RetryPolicy(max_retries=0)):
            assert config.active().retry.max_retries == 0
        assert config.active().retry.max_retries == 9


class TestSerialRetry:
    def test_transient_failure_is_retried(self, monkeypatch):
        naps = []
        monkeypatch.setattr(faults, "_sleep", naps.append)
        with config.override(inject_fault="fail:index=1"):
            results = engine.run_cells(_ok_cell, NAMES, 1.0, jobs=1)
            assert results == ["alpha@1.0", "beta@1.0", "gamma@1.0"]
            assert engine.fault_stats().retries == 1
            assert naps == [config.active().retry.backoff(1)]

    def test_backoff_sequence(self, monkeypatch):
        naps = []
        monkeypatch.setattr(faults, "_sleep", naps.append)
        with config.override(
                retry=RetryPolicy(max_retries=3, backoff_base=0.1,
                                  backoff_max=10.0),
                inject_fault="fail:index=0,times=3"):
            engine.run_cells(_ok_cell, NAMES[:1], 1.0, jobs=1)
            assert naps == [0.1, 0.2, 0.4]

    def test_budget_exhaustion_raises_cell_failure(self, monkeypatch):
        monkeypatch.setattr(faults, "_sleep", lambda _s: None)
        with config.override(
                retry=RetryPolicy(max_retries=1, backoff_base=0.0),
                inject_fault="fail:index=0,times=10"):
            with pytest.raises(CellFailure, match="alpha.*2 attempts") \
                    as exc_info:
                engine.run_cells(_ok_cell, NAMES, 1.0, jobs=1)
            assert isinstance(exc_info.value.__cause__, fi.InjectedFault)

    def test_fault_free_run_reports_zero_recoveries(self):
        engine.run_cells(_ok_cell, NAMES, 1.0, jobs=1)
        snap = engine.resilience_snapshot()
        assert all(value == 0 for value in snap.values())
        assert "resilience" not in _report()


class TestPoolRecovery:
    def test_worker_crash_rebuilds_pool(self):
        with config.override(retry=_instant(), inject_fault="crash:index=1"):
            results = engine.run_cells(_ok_cell, NAMES, 1.0, jobs=2)
            assert results == ["alpha@1.0", "beta@1.0", "gamma@1.0"]
            snap = engine.resilience_snapshot()
            assert snap["engine.pool_rebuilds"] >= 1
            assert snap["engine.retries"] >= 1
            assert "resilience" in _report()

    def test_persistent_crashes_degrade_to_serial(self):
        # Workers die on every attempt; the rebuild budget is zero, so
        # the engine must fall back to in-process execution (where the
        # crash directive is inert by design) and still finish.
        with config.override(
                retry=RetryPolicy(max_retries=99, backoff_base=0.0,
                                  max_pool_rebuilds=0),
                inject_fault="crash:index=0,times=99"):
            results = engine.run_cells(_ok_cell, NAMES, 1.0, jobs=2)
            assert results == ["alpha@1.0", "beta@1.0", "gamma@1.0"]
            snap = engine.resilience_snapshot()
            assert snap["engine.fallbacks.serial"] == 1
            assert snap["engine.pool_rebuilds"] == 1

    def test_transient_failure_retries_in_pool(self, monkeypatch):
        monkeypatch.setattr(faults, "_sleep", lambda _s: None)
        with config.override(retry=_instant(), inject_fault="fail:index=2"):
            results = engine.run_cells(_ok_cell, NAMES, 1.0, jobs=2)
            assert results == ["alpha@1.0", "beta@1.0", "gamma@1.0"]
            assert engine.fault_stats().retries == 1
            assert engine.fault_stats().pool_rebuilds == 0

    def test_pool_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(faults, "_sleep", lambda _s: None)
        with config.override(
                retry=RetryPolicy(max_retries=1, backoff_base=0.0),
                inject_fault="fail:index=0,times=10"):
            with pytest.raises(CellFailure, match="alpha"):
                engine.run_cells(_ok_cell, NAMES, 1.0, jobs=2)

    def test_stalled_cell_times_out_and_recovers(self):
        with config.override(
                retry=RetryPolicy(max_retries=2, backoff_base=0.0,
                                  cell_timeout=1.0),
                inject_fault="stall:index=1,seconds=60"):
            started = time.monotonic()
            results = engine.run_cells(_ok_cell, NAMES, 1.0, jobs=2)
            elapsed = time.monotonic() - started
            assert results == ["alpha@1.0", "beta@1.0", "gamma@1.0"]
            assert engine.fault_stats().timeouts == 1
            # The stalled worker was killed, not waited out.
            assert elapsed < 30

    def test_persistent_stall_raises_cell_timeout(self):
        with config.override(
                retry=RetryPolicy(max_retries=0, backoff_base=0.0,
                                  cell_timeout=0.5),
                inject_fault="stall:index=0,times=5,seconds=60"):
            started = time.monotonic()
            with pytest.raises(CellTimeout, match="alpha.*0.5s timeout"):
                engine.run_cells(_ok_cell, NAMES, 1.0, jobs=2)
            assert time.monotonic() - started < 30

    def test_recovered_run_results_match_undisturbed(self):
        baseline = engine.run_cells(_ok_cell, NAMES, 2.0, jobs=1)
        engine.reset_fault_stats()
        with config.override(
                retry=_instant(),
                inject_fault="crash:index=0;fail:index=2"):
            recovered = engine.run_cells(_ok_cell, NAMES, 2.0, jobs=2)
            assert recovered == baseline
            assert engine.fault_stats().any


class TestSerialWatchdog:
    """``--jobs 1`` honours ``cell_timeout`` through a SIGALRM
    watchdog (POSIX main thread only), mirroring the pool path's
    timeout/retry semantics."""

    def test_watchdog_is_usable_here(self):
        # CI and dev boxes are POSIX and pytest runs in the main
        # thread; if this fails the rest of the class is vacuous.
        assert engine._serial_watchdog_usable()

    def test_stalled_cell_times_out_and_recovers(self):
        with config.override(
                retry=RetryPolicy(max_retries=2, backoff_base=0.0,
                                  cell_timeout=1.0),
                inject_fault="stall:index=1,seconds=60"):
            started = time.monotonic()
            results = engine.run_cells(_ok_cell, NAMES, 1.0, jobs=1)
            assert results == ["alpha@1.0", "beta@1.0", "gamma@1.0"]
            assert engine.fault_stats().timeouts == 1
            assert engine.fault_stats().retries == 1
            # The wedged attempt was interrupted, not waited out.
            assert time.monotonic() - started < 30

    def test_persistent_stall_raises_cell_timeout(self):
        with config.override(
                retry=RetryPolicy(max_retries=1, backoff_base=0.0,
                                  cell_timeout=0.5),
                inject_fault="stall:index=0,times=5,seconds=60"):
            started = time.monotonic()
            with pytest.raises(CellTimeout, match="alpha.*0.5s timeout"):
                engine.run_cells(_ok_cell, NAMES, 1.0, jobs=1)
            assert time.monotonic() - started < 30
            assert engine.fault_stats().timeouts == 2   # both attempts

    def test_prior_alarm_handler_restored(self):
        import signal
        sentinel = lambda signum, frame: None
        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            with config.override(
                    retry=RetryPolicy(max_retries=0, cell_timeout=5.0)):
                engine.run_cells(_ok_cell, NAMES, 1.0, jobs=1)
                assert signal.getsignal(signal.SIGALRM) is sentinel
                assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_no_watchdog_without_timeout(self):
        with config.override(retry=RetryPolicy(max_retries=0)):
            assert engine.run_cells(_ok_cell, NAMES, 1.0, jobs=1) \
                == ["alpha@1.0", "beta@1.0", "gamma@1.0"]
            assert engine.fault_stats().timeouts == 0
