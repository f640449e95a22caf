"""The one configuration: every ``REPRO_*`` variable, one table row each.

Each row pins a variable's default (unset), one valid value, one
malformed value (which must fall back to the default with exactly one
``RuntimeWarning`` naming the variable and the value), and - where the
variable documents one - the meaning of ``0``.
"""

import dataclasses
import json
import re
import warnings
from pathlib import Path

import pytest

from repro import config
from repro.config import Config, RetryPolicy

README = Path(__file__).resolve().parents[1] / "README.md"

#: Marks a column that does not apply: free-form text has no
#: malformed value, and most variables document no special ``0``.
NA = object()

#: (variable, field, default, valid value, parsed, malformed value,
#: documented meaning of ``0``).
ROWS = [
    ("REPRO_JOBS", "jobs", 1, "3", 3, "lots", NA),
    ("REPRO_TRACE_CACHE", "trace_cache", None, "/srv/traces",
     Path("/srv/traces"), NA, NA),
    ("REPRO_TRACE_CACHE_MAX_BYTES", "trace_cache_max_bytes", 0,
     "1048576", 1 << 20, "2GiB", 0),
    ("REPRO_SHARD_ROWS", "shard_rows", 0, "4096", 4096, "banana", 0),
    ("REPRO_CHECKPOINT_MAX_BYTES", "checkpoint_max_bytes", 0, "4096",
     4096, "1G", 0),
    ("REPRO_QUARANTINE_MAX_AGE_DAYS", "quarantine_max_age_days", 7.0,
     "2.5", 2.5, "a week", 0.0),
    ("REPRO_QUARANTINE_MAX_FILES", "quarantine_max_files", 16, "4", 4,
     "-2", 0),
    ("REPRO_RETRIES", "retry.max_retries", 2, "5", 5, "two", 0),
    ("REPRO_RETRY_BACKOFF", "retry.backoff_base", 0.05, "0.5", 0.5,
     "50ms", 0.0),
    ("REPRO_CELL_TIMEOUT", "retry.cell_timeout", None, "30", 30.0, "5s",
     None),
    ("REPRO_POOL_REBUILDS", "retry.max_pool_rebuilds", 2, "1", 1, "-1",
     0),
    ("REPRO_INJECT_FAULT", "inject_fault", None, "fail:index=0",
     "fail:index=0", "bogus", NA),
    ("REPRO_TRACE_SPANS", "trace_spans", None, "/srv/run",
     Path("/srv/run"), NA, NA),
    ("REPRO_SPAN_MAX_BYTES", "span_max_bytes", 0, "2000", 2000,
     "not-a-number", 0),
    ("REPRO_SPAN_SAMPLE", "span_sample", 1, "4", 4, "0", NA),
    ("REPRO_INCARNATION_ID", "incarnation_id", None, "base.3", "base.3",
     NA, NA),
    ("REPRO_SERVE_DEADLINE_MS", "serve_deadline_ms", 0.0, "80", 80.0,
     "500ms", 0.0),
    ("REPRO_TELEMETRY_MAX_BYTES", "telemetry_max_bytes", 4 << 20, "1234",
     1234, "0", NA),
]


def _ids(rows):
    return [row[0] for row in rows]


def _field(cfg: Config, name: str):
    for part in name.split("."):
        cfg = getattr(cfg, part)
    return cfg


def _quiet_from_env(environ):
    """``Config.from_env`` failing the test on any warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return Config.from_env(environ)


class TestEnvironmentTable:
    def test_table_covers_every_variable(self):
        assert sorted(_ids(ROWS)) == sorted(config.ENV_VARS)
        assert len(config.ENV_VARS) == 18

    @pytest.mark.parametrize("row", ROWS, ids=_ids(ROWS))
    def test_unset_gives_default(self, row):
        variable, name, default = row[:3]
        assert _field(_quiet_from_env({}), name) == default
        assert _field(Config(), name) == default

    @pytest.mark.parametrize("row", ROWS, ids=_ids(ROWS))
    def test_blank_is_unset(self, row):
        variable, name, default = row[:3]
        assert _field(_quiet_from_env({variable: "  "}), name) == default

    @pytest.mark.parametrize("row", ROWS, ids=_ids(ROWS))
    def test_valid_value_parses(self, row):
        variable, name, _, raw, parsed = row[:5]
        assert _field(_quiet_from_env({variable: raw}), name) == parsed

    @pytest.mark.parametrize(
        "row", [row for row in ROWS if row[5] is not NA],
        ids=_ids(row for row in ROWS if row[5] is not NA))
    def test_malformed_value_warns_once_and_defaults(self, row):
        variable, name, default, _, _, bad = row[:6]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = Config.from_env({variable: bad})
        assert _field(cfg, name) == default
        assert len(caught) == 1
        assert caught[0].category is RuntimeWarning
        message = str(caught[0].message)
        assert variable in message and repr(bad) in message

    @pytest.mark.parametrize(
        "row", [row for row in ROWS if row[6] is not NA],
        ids=_ids(row for row in ROWS if row[6] is not NA))
    def test_documented_zero_meaning(self, row):
        variable, name = row[:2]
        assert _field(_quiet_from_env({variable: "0"}), name) == row[6]

    def test_malformed_values_warn_independently(self):
        environ = {row[0]: row[5] for row in ROWS if row[5] is not NA}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert Config.from_env(environ) == Config()
        assert len(caught) == len(environ)


class TestConfigObject:
    def test_one_field_per_settable_value(self):
        fields = {field.name for field in dataclasses.fields(Config)}
        env_fields = {row[1].split(".")[0] for row in ROWS}
        # The environment knobs plus the CLI-only checkpoint directory.
        assert fields == env_fields | {"checkpoint"}

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Config().jobs = 2

    def test_replace_beats_environment(self):
        cfg = Config.from_env({"REPRO_JOBS": "3",
                               "REPRO_SHARD_ROWS": "4096"})
        flagged = cfg.replace(jobs=2, shard_rows=0)
        assert (flagged.jobs, flagged.shard_rows) == (2, 0)
        assert (cfg.jobs, cfg.shard_rows) == (3, 4096)

    @pytest.mark.parametrize("fields", (
        {"jobs": 0}, {"shard_rows": -1}, {"span_sample": 0},
        {"serve_deadline_ms": -5.0}, {"trace_cache_max_bytes": -1}))
    def test_programmatic_out_of_domain_raises(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            Config().replace(**fields)

    def test_paths_are_normalised(self):
        cfg = Config(trace_cache="cache", checkpoint="journal")
        assert cfg.trace_cache == Path("cache")
        assert cfg.checkpoint == Path("journal")
        assert Config(trace_cache="").trace_cache is None

    def test_as_dict_is_json_ready(self):
        cfg = Config(trace_cache="/srv/traces",
                     retry=RetryPolicy(cell_timeout=30.0))
        document = json.loads(json.dumps(cfg.as_dict()))
        assert document["trace_cache"] == "/srv/traces"
        assert document["retry"]["cell_timeout"] == 30.0


class TestProcessConfig:
    def test_active_reads_environment_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS='lots'"):
            first = config.active()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.active() is first

    def test_override_restores_previous(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_ROWS", "64")
        with config.override(shard_rows=0, jobs=2) as cfg:
            assert config.active() is cfg
            assert (cfg.shard_rows, cfg.jobs) == (0, 2)
        assert config.active().shard_rows == 64

    def test_install_none_rereads_environment(self, monkeypatch):
        config.install(Config(jobs=4))
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert config.active().jobs == 4
        config.install(None)
        assert config.active().jobs == 3


def _readme_variables():
    """The variable column of the README's Configuration table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return [match.group(1) for match in
            re.finditer(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M)]


def test_readme_table_lists_every_variable():
    variables = _readme_variables()
    assert len(variables) == len(set(variables))
    assert set(variables) == set(config.ENV_VARS)
