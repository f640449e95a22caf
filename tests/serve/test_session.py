"""The :class:`repro.api.Session` facade: CLI parity and residency.

The redesign's core guarantee is that every entry point - batch CLI,
programmatic Session, served daemon - produces byte-identical payloads
for the same query.  These tests pin the CLI<->Session half of that
triangle; ``test_server.py`` pins the served half.
"""

import pytest

from repro import api, metrics
from repro.cli import main
from repro.eval import engine
from repro.workloads import suite

SCALE = 0.2
NAME = "db_vortex"


@pytest.fixture(autouse=True)
def _clear_state():
    yield
    suite.clear_caches()
    metrics.disable()
    engine.take_metrics()


class TestCliParity:
    def test_predict_text_matches_cli_stdout(self, capsys):
        assert main(["predict", "--scale", str(SCALE), NAME]) == 0
        expected = capsys.readouterr().out
        response = api.Session().predict(api.PredictRequest(
            names=(NAME,), scale=SCALE))
        assert response.text == expected

    def test_regions_text_matches_cli_stdout(self, capsys):
        assert main(["regions", "--scale", str(SCALE), NAME]) == 0
        expected = capsys.readouterr().out
        response = api.Session().regions(api.RegionsRequest(
            names=(NAME,), scale=SCALE))
        assert response.text == expected

    def test_experiment_text_matches_cli_stdout(self, capsys):
        assert main(["experiment", "table1", "--scale", str(SCALE),
                     NAME]) == 0
        expected = capsys.readouterr().out
        response = api.Session().experiment(api.ExperimentRequest(
            experiment="table1", names=(NAME,), scale=SCALE))
        assert response.text == expected
        assert response.result is not None
        assert response.result.experiment == "table1"

    @pytest.mark.slow
    def test_timing_text_matches_cli_stdout(self, capsys):
        assert main(["timing", "--scale", "0.1", NAME]) == 0
        expected = capsys.readouterr().out
        response = api.Session().timing(api.TimingRequest(
            names=(NAME,), scale=0.1))
        assert response.text == expected


class TestResidency:
    def test_resident_matches_batch(self):
        request = api.PredictRequest(names=(NAME,), scale=SCALE)
        batch = api.Session().predict(request)
        suite.clear_caches()
        resident = api.Session(resident=True).predict(request)
        assert resident.lines == batch.lines
        assert resident.text == batch.text

    def test_warm_requests_skip_trace_regeneration(self):
        session = api.Session(resident=True)
        session.warm([(NAME, SCALE)])
        assert session.warmed() == ((NAME, SCALE),)
        request = api.PredictRequest(names=(NAME,), scale=SCALE)
        first = session.predict(request)
        second = session.predict(request)
        assert second is first          # memoised, not recomputed
        snapshot = session.metrics.snapshot()
        # One trace load (the warm), zero regenerations afterwards.
        assert snapshot["api.trace.misses"]["value"] == 1
        assert snapshot["api.trace.hits"]["value"] >= 1
        assert snapshot["api.predict.memo.misses"]["value"] == 1
        assert snapshot["api.predict.memo.hits"]["value"] == 1

    def test_resident_lru_bounds_trace_memory(self):
        session = api.Session(resident=True, max_resident_traces=1)
        session.warm([(NAME, 0.1), (NAME, SCALE)])
        assert session.warmed() == ((NAME, SCALE),)

    def test_close_drops_residency(self):
        session = api.Session(resident=True)
        session.warm([(NAME, SCALE)])
        session.close()
        assert session.warmed() == ()

    def test_default_requests_cover_full_suite(self):
        request = api.RegionsRequest()
        assert api.resolve_names(request.names) \
            == tuple(suite.ALL_WORKLOADS)


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            api.Session().predict(api.PredictRequest(names=("gcc",)))

    def test_unknown_scheme_rejected_before_tracing(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            api.Session().predict(api.PredictRequest(
                names=(NAME,), scheme="telepathy"))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            api.Session().experiment(api.ExperimentRequest(
                experiment="figure99"))

    def test_experiment_registry_matches_ids(self):
        assert api.EXPERIMENT_IDS == tuple(sorted(api.EXPERIMENTS))
        assert "table1" in api.EXPERIMENTS
        assert "a8" in api.EXPERIMENTS
