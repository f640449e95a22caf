"""Tests for the command-line interface."""

import json
import tempfile

import pytest

from repro import metrics
from repro.cli import main
from repro.eval import engine
from repro.obs import spans
from repro.workloads import suite


@pytest.fixture(autouse=True)
def _clear_caches():
    yield
    suite.clear_caches()
    engine.reset_fault_stats()
    metrics.disable()
    engine.take_metrics()


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text("""
        int main() {
          print_int(6 * 7);
          return 0;
        }
    """)
    return path


class TestCli:
    def test_run_command(self, minic_file, capsys):
        code = main(["run", str(minic_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "42" in out

    def test_run_propagates_exit_code(self, tmp_path, capsys):
        path = tmp_path / "exit3.mc"
        path.write_text("int main() { return 3; }")
        assert main(["run", str(path)]) == 3

    def test_disasm_command(self, minic_file, capsys):
        assert main(["disasm", str(minic_file)]) == 0
        out = capsys.readouterr().out
        assert "__start:" in out
        assert "main:" in out
        assert "syscall" in out

    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in suite.ALL_WORKLOADS:
            assert name in out

    def test_regions_command(self, capsys):
        assert main(["regions", "--scale", "0.2", "db_vortex"]) == 0
        out = capsys.readouterr().out
        assert "db_vortex" in out
        assert "multi:" in out

    def test_predict_command(self, capsys):
        assert main(["predict", "--scale", "0.2", "--scheme", "1bit",
                     "db_vortex"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    @pytest.mark.slow
    def test_experiment_command(self, capsys):
        assert main(["experiment", "section33", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out

    def test_regions_trace_cache_flag(self, tmp_path, capsys):
        cache_dir = tmp_path / "traces"
        args = ["regions", "--scale", "0.2", "--trace-cache",
                str(cache_dir), "db_vortex"]
        assert main(args) == 0
        archived = list(cache_dir.glob("db_vortex__s0.2__v*.npz"))
        assert len(archived) == 1
        # Second invocation replays the archive (and still renders).
        suite.clear_caches()
        assert main(args) == 0
        assert "db_vortex" in capsys.readouterr().out

    @pytest.mark.slow
    def test_experiment_jobs_and_verbose(self, tmp_path, capsys):
        assert main(["experiment", "figure2", "--scale", "0.1",
                     "--jobs", "2", "--verbose", "--trace-cache",
                     str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "Figure 2" in captured.out
        # The stage report goes to stderr so stdout stays
        # byte-identical across --jobs levels.
        assert "Stage timing" in captured.err
        # A cold cache: the journal separates functional simulation.
        assert "trace:produce" in captured.err
        # One aligned per-cell line: cache hits/misses + replays.
        assert "per-cell:" in captured.err
        assert any("cache" in line and "replays" in line
                   for line in captured.err.splitlines())

    def test_unknown_workload_rejected(self, capsys):
        # Validation errors are reported, not raised: exit code 2.
        assert main(["regions", "176.gcc"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "unknown workload" in err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])


class TestExitCodes:
    def test_version_flag(self, capsys):
        import repro
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.strip() \
            == f"repro {repro.__version__}"

    def test_missing_source_file_is_validation_error(self, tmp_path,
                                                     capsys):
        assert main(["run", str(tmp_path / "nope.mc")]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_unknown_scheme_is_validation_error(self, capsys):
        assert main(["predict", "--scale", "0.2", "--scheme",
                     "telepathy", "db_vortex"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_runtime_failure_exits_one(self, monkeypatch, capsys):
        # Exhausting the retry budget is a runtime failure (a
        # well-formed request that could not be served): exit code 1.
        monkeypatch.setenv("REPRO_RETRIES", "0")
        assert main(["regions", "--scale", "0.2", "--inject-fault",
                     "fail:index=0", "db_vortex"]) == 1
        err = capsys.readouterr().err
        assert "repro: runtime failure:" in err
        assert "failed after" in err

    def test_bench_load_without_daemon_is_runtime_failure(self, capsys):
        # Connection refused is a runtime failure, not bad input.
        assert main(["bench", "load", "--clients", "1", "--count", "1",
                     "--port", "1"]) == 1
        assert "repro: runtime failure:" in capsys.readouterr().err


class TestUnifiedFlags:
    def test_regions_accepts_jobs(self, capsys):
        assert main(["regions", "--scale", "0.2", "--jobs", "2",
                     "db_vortex", "go_ai"]) == 0
        out = capsys.readouterr().out
        assert "db_vortex" in out and "go_ai" in out

    def test_regions_metrics_out(self, tmp_path, capsys):
        out_file = tmp_path / "profile_metrics.json"
        assert main(["regions", "--scale", "0.2", "--metrics-out",
                     str(out_file), "db_vortex"]) == 0
        document = json.loads(out_file.read_text())
        assert document["experiment"] == "regions"
        cell = document["cells"]["db_vortex"]
        assert cell["cpu.instructions"]["value"] > 0
        assert "trace.window32.stack" in cell

    def test_experiment_id_as_top_level_alias(self, capsys):
        assert main(["table1", "--scale", "0.2", "db_vortex"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_experiment_accepts_workload_names(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.2",
                     "db_vortex"]) == 0
        out = capsys.readouterr().out
        assert "db_vortex" in out
        assert "go_ai" not in out

    @pytest.mark.slow
    def test_experiment_metrics_out_jobs_byte_identical(self, tmp_path,
                                                        capsys):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        base = ["figure4", "--scale", "0.2", "db_vortex", "go_ai",
                "--metrics-out"]
        assert main(base + [str(serial), "--jobs", "1"]) == 0
        suite.clear_caches()
        assert main(base + [str(parallel), "--jobs", "4"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestResilienceFlags:
    def test_jobs_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["regions", "--jobs", "0", "db_vortex"])
        assert exc_info.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_noninteger_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["regions", "--jobs", "many", "db_vortex"])
        assert exc_info.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err

    def test_bad_inject_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["regions", "--inject-fault", "explode:index=0",
                  "db_vortex"])
        assert exc_info.value.code == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_injected_failure_is_retried_and_reported(self, tmp_path,
                                                      capsys):
        out_file = tmp_path / "metrics.json"
        assert main(["regions", "--scale", "0.2", "--inject-fault",
                     "fail:index=0", "--metrics-out", str(out_file),
                     "db_vortex"]) == 0
        assert "db_vortex" in capsys.readouterr().out
        document = json.loads(out_file.read_text())
        assert document["resilience"]["engine.retries"] == 1
        assert document["cells"]["db_vortex"]["cpu.instructions"][
            "value"] > 0

    def test_fault_free_run_reports_zero_resilience(self, tmp_path):
        out_file = tmp_path / "metrics.json"
        assert main(["regions", "--scale", "0.2", "--metrics-out",
                     str(out_file), "db_vortex"]) == 0
        document = json.loads(out_file.read_text())
        assert set(document["resilience"].values()) == {0}

    def test_checkpoint_flag_resumes(self, tmp_path):
        journal_dir = tmp_path / "journal"
        base = ["regions", "--scale", "0.2", "--checkpoint",
                str(journal_dir), "db_vortex"]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(base + ["--metrics-out", str(first)]) == 0
        suite.clear_caches()
        assert main(base + ["--metrics-out", str(second)]) == 0
        resumed = json.loads(second.read_text())
        assert resumed["resilience"]["checkpoint.hits"] == 1
        assert json.loads(first.read_text())[
            "resilience"]["checkpoint.misses"] == 1
        # Replayed cells restore their metrics byte-for-byte.
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        assert a["cells"] == b["cells"]


class TestStatsCommand:
    def test_stats_table_output(self, capsys):
        assert main(["stats", "table1", "--scale", "0.2",
                     "db_vortex"]) == 0
        out = capsys.readouterr().out
        assert "Metrics: table1" in out
        assert "cpu.instructions" in out

    def test_stats_json_output_validates(self, capsys):
        assert main(["stats", "table1", "--scale", "0.2", "db_vortex",
                     "--format", "json", "--check"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["experiment"] == "table1"
        assert document["cells"]["db_vortex"]["cpu.loads"]["value"] > 0

    def test_stats_csv_output(self, capsys):
        assert main(["stats", "table1", "--scale", "0.2", "db_vortex",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("cell,metric,kind,field,value")

    def test_stats_metrics_out_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "stats.json"
        assert main(["stats", "table1", "--scale", "0.2", "db_vortex",
                     "--metrics-out", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["experiment"] == "table1"


class TestObservability:
    def test_untraced_run_writes_no_journal(self, tmp_path, capsys):
        assert main(["table1", "--scale", "0.2", "db_vortex"]) == 0
        assert not list(tmp_path.rglob("spans.jsonl"))

    @pytest.mark.slow
    def test_trace_spans_journal_survives_pool_merge(self, tmp_path,
                                                     capsys):
        obs = tmp_path / "obs"
        assert main(["table1", "--scale", "0.2", "--jobs", "2",
                     "db_vortex", "go_ai",
                     "--trace-spans", str(obs)]) == 0
        entries = [json.loads(line) for line
                   in (obs / "spans.jsonl").read_text().splitlines()]
        ids = {e["id"] for e in entries}
        # Parent/child closure: every parent id resolves, even for
        # spans journaled by pool workers and merged afterwards.
        assert all(e["parent"] is None or e["parent"] in ids
                   for e in entries)
        names = {e["name"] for e in entries}
        assert "engine:run_cells" in names
        assert any(name.startswith("cli:") for name in names)
        run_span = next(e for e in entries
                        if e["name"] == "engine:run_cells")
        cells = [e for e in entries if e["name"] == "cell"]
        assert {c["attrs"]["workload"] for c in cells} \
            == {"db_vortex", "go_ai"}
        assert all(c["parent"] == run_span["id"] for c in cells)
        # Worker journals were folded in and removed.
        assert not list(obs.glob("spans-*.jsonl"))
        manifest_doc = json.loads((obs / "manifest.json").read_text())
        assert manifest_doc["jobs"] == 2
        assert manifest_doc["run_id"]

    @pytest.mark.slow
    def test_trace_spans_keeps_metrics_byte_identical(self, tmp_path,
                                                      capsys):
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        base = ["table1", "--scale", "0.2", "db_vortex", "go_ai",
                "--jobs", "4", "--metrics-out"]
        assert main(base + [str(plain)]) == 0
        first_out = capsys.readouterr().out
        suite.clear_caches()
        assert main(base + [str(traced), "--trace-spans",
                            str(tmp_path / "obs")]) == 0
        second_out = capsys.readouterr().out
        assert plain.read_bytes() == traced.read_bytes()
        assert first_out == second_out

    def test_verbose_report_identical_across_jobs(self, tmp_path,
                                                  capsys):
        base = ["experiment", "figure2", "--scale", "0.05", "db_vortex",
                "go_ai", "--trace-cache", str(tmp_path), "--verbose"]
        assert main(base) == 0                  # warms the cache
        capsys.readouterr()
        reports = []
        for jobs in ("1", "2"):
            suite.clear_caches()
            assert main(base + ["--jobs", jobs]) == 0
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            reports.append((captured.out, lines[0],
                            lines[lines.index("per-cell:") + 1:]))
        assert reports[0] == reports[1]
        assert reports[0][1].startswith(
            "Stage timing: 2 cells, trace cache ")
        assert reports[0][1].endswith("(2 hits / 0 misses, 0 corrupt)")
        assert [line.split()[0] for line in reports[0][2]] \
            == ["db_vortex", "go_ai"]

    def test_verbose_journal_location(self, tmp_path, capsys,
                                      monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        base = ["table1", "--scale", "0.02", "db_vortex"]
        # Off: no span is written and no temporary directory is made.
        assert main(base) == 0
        assert not list(scratch.iterdir())
        # --trace-spans DIR: the journal stays in DIR.
        obs = tmp_path / "obs"
        assert main(base + ["--verbose", "--trace-spans", str(obs)]) == 0
        assert "Stage timing: 1 cells" in capsys.readouterr().err
        assert (obs / "spans.jsonl").exists()
        assert not list(scratch.iterdir())
        # No DIR: a temporary journal, removed after the report.
        assert main(base + ["--verbose"]) == 0
        assert "Stage timing: 1 cells" in capsys.readouterr().err
        assert not list(scratch.iterdir())
        assert spans.active() is None

    def test_profile_of_traced_run(self, tmp_path, capsys):
        obs = tmp_path / "obs"
        assert main(["table1", "--scale", "0.2", "db_vortex",
                     "--trace-spans", str(obs)]) == 0
        capsys.readouterr()
        assert main(["profile", str(obs)]) == 0
        out = capsys.readouterr().out
        assert "Span tree" in out
        assert "cell [workload=db_vortex" in out
