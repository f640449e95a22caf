"""Run manifests record the resolved configuration a run used."""

import json

import pytest

from repro.cli import main
from repro.obs import manifest as run_manifest
from repro.workloads import suite


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    for variable in ("REPRO_SHARD_ROWS", "REPRO_TRACE_CACHE",
                     "REPRO_TRACE_SPANS", "REPRO_JOBS"):
        monkeypatch.delenv(variable, raising=False)
    yield
    suite.clear_caches()


def test_traced_cli_run_records_flag_config(tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.setenv("REPRO_SHARD_ROWS", "64")    # the flag wins
    run_dir = tmp_path / "run"
    cache_dir = tmp_path / "cache"
    assert main(["regions", "--scale", "0.02", "db_vortex",
                 "--shard-rows", "4096", "--trace-cache", str(cache_dir),
                 "--trace-spans", str(run_dir)]) == 0
    capsys.readouterr()
    document = json.loads((run_dir / run_manifest.FILENAME).read_text())
    recorded = document["config"]
    assert recorded["shard_rows"] == 4096
    assert recorded["trace_cache"] == str(cache_dir)
    assert recorded["trace_spans"] == str(run_dir)
    assert recorded["jobs"] == document["jobs"] == 1
    assert "env" not in document
