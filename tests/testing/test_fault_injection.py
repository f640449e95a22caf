"""Tests for the deterministic fault-injection harness."""

import pytest

from repro import config
from repro.testing import faults as fi


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)


class TestParseSpec:
    def test_single_directive(self):
        (d,) = fi.parse_spec("fail:index=2,times=3")
        assert d.kind == "fail"
        assert d.index == 2
        assert d.times == 3
        assert d.name is None

    def test_multiple_directives(self):
        plan = fi.parse_spec(
            "crash:index=1;corrupt:name=db_vortex,mode=garbage,seed=7")
        assert [d.kind for d in plan] == ["crash", "corrupt"]
        assert plan[1].name == "db_vortex"
        assert plan[1].mode == "garbage"
        assert plan[1].seed == 7

    def test_stall_seconds(self):
        (d,) = fi.parse_spec("stall:seconds=0.25")
        assert d.seconds == 0.25

    def test_unknown_kind_rejected(self):
        with pytest.raises(fi.SpecError, match="unknown fault kind"):
            fi.parse_spec("explode:index=1")

    def test_unknown_param_rejected(self):
        with pytest.raises(fi.SpecError, match="unknown fault parameter"):
            fi.parse_spec("fail:when=later")

    def test_bad_value_rejected(self):
        with pytest.raises(fi.SpecError, match="bad value"):
            fi.parse_spec("fail:index=two")

    def test_bad_mode_rejected(self):
        with pytest.raises(fi.SpecError, match="unknown corrupt mode"):
            fi.parse_spec("corrupt:mode=shred")

    def test_empty_spec_rejected(self):
        with pytest.raises(fi.SpecError, match="empty"):
            fi.parse_spec(" ; ")

    def test_times_must_be_positive(self):
        with pytest.raises(fi.SpecError, match="times"):
            fi.parse_spec("fail:times=0")


class TestActivation:
    def test_inactive_by_default(self):
        assert fi.active_spec() is None
        fi.fire_cell("w", 0, 0)     # no plan: never raises

    def test_install_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "fail:index=0")
        with config.override(inject_fault="fail:index=5"):
            assert fi.active_spec() == "fail:index=5"
            fi.fire_cell("w", 0, 0)     # env directive must not apply

    def test_env_var_activates(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "fail:index=0")
        with pytest.raises(fi.InjectedFault):
            fi.fire_cell("w", 0, 0)

    def test_install_rejects_bad_spec_eagerly(self):
        with pytest.raises(fi.SpecError):
            config.Config(inject_fault="bogus")


class TestFireCell:
    def test_fail_matches_index(self):
        with config.override(inject_fault="fail:index=2"):
            fi.fire_cell("w", 0, 0)
            fi.fire_cell("w", 1, 0)
            with pytest.raises(fi.InjectedFault):
                fi.fire_cell("w", 2, 0)

    def test_fail_matches_name(self):
        with config.override(inject_fault="fail:name=go_ai"):
            fi.fire_cell("db_vortex", 0, 0)
            with pytest.raises(fi.InjectedFault):
                fi.fire_cell("go_ai", 1, 0)

    def test_attempt_gating_is_deterministic(self):
        """A directive fires on the first ``times`` attempts only, so a
        retried cell recovers without any shared mutable state."""
        with config.override(inject_fault="fail:index=0,times=2"):
            for attempt in (0, 1):
                with pytest.raises(fi.InjectedFault):
                    fi.fire_cell("w", 0, attempt)
            fi.fire_cell("w", 0, 2)     # third attempt succeeds

    def test_crash_is_noop_in_main_process(self):
        # A crash directive only ever kills pool workers; firing it
        # here (the main test process) must be survivable.
        with config.override(inject_fault="crash:index=0"):
            fi.fire_cell("w", 0, 0)

    def test_stall_sleeps(self, monkeypatch):
        naps = []
        monkeypatch.setattr(fi.time, "sleep", naps.append)
        with config.override(inject_fault="stall:index=1,seconds=0.5"):
            fi.fire_cell("w", 1, 0)
            assert naps == [0.5]


class TestCorruptFile:
    def _file(self, tmp_path, payload=b"x" * 100):
        path = tmp_path / "entry.npz"
        path.write_bytes(payload)
        return path

    def test_truncate_halves(self, tmp_path):
        path = self._file(tmp_path)
        fi.corrupt_file(path, "truncate")
        assert path.read_bytes() == b"x" * 50

    def test_zero_empties(self, tmp_path):
        path = self._file(tmp_path)
        fi.corrupt_file(path, "zero")
        assert path.read_bytes() == b""

    def test_garbage_is_seeded_and_deterministic(self, tmp_path):
        a = self._file(tmp_path, b"y" * 300)
        b = tmp_path / "other.npz"
        b.write_bytes(b"y" * 300)
        fi.corrupt_file(a, "garbage", seed=3)
        fi.corrupt_file(b, "garbage", seed=3)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != b"y" * 300
        assert a.read_bytes()[256:] == b"y" * 44   # tail untouched

    def test_fire_cache_store_counts_times(self, tmp_path):
        with config.override(inject_fault="corrupt:name=w,times=1"):
            path = self._file(tmp_path)
            assert fi.fire_cache_store("w", path) is True
            path.write_bytes(b"x" * 100)               # "regenerated"
            assert fi.fire_cache_store("w", path) is False
            assert path.read_bytes() == b"x" * 100

    def test_fire_cache_store_ignores_other_names(self, tmp_path):
        with config.override(inject_fault="corrupt:name=w"):
            path = self._file(tmp_path)
            assert fi.fire_cache_store("other", path) is False


class TestServeDirectives:
    def test_bare_token_names_the_mode(self):
        (d,) = fi.parse_spec("serve:drop")
        assert d.kind == "serve"
        assert d.mode == "drop"
        assert d.op is None

    def test_all_modes_parse(self):
        for mode in fi.SERVE_MODES:
            (d,) = fi.parse_spec(f"serve:{mode}")
            assert d.mode == mode

    def test_op_scoping_and_times(self):
        (d,) = fi.parse_spec("serve:stall,op=predict,times=2,seconds=0.1")
        assert d.mode == "stall"
        assert d.op == "predict"
        assert d.times == 2
        assert d.seconds == 0.1

    def test_unknown_serve_mode_rejected(self):
        with pytest.raises(fi.SpecError, match="unknown serve fault mode"):
            fi.parse_spec("serve:explode")

    def test_mode_param_form_accepted(self):
        (d,) = fi.parse_spec("serve:mode=oom-evict")
        assert d.mode == "oom-evict"

    def test_serve_directive_never_matches_cells(self):
        (d,) = fi.parse_spec("serve:drop")
        assert not d.matches_cell("db_vortex", 0, 0)
        assert not d.matches_store("db_vortex")

    def test_fire_serve_counts_per_process(self):
        with config.override(inject_fault="serve:drop,times=2"):
            assert len(fi.fire_serve("predict")) == 1
            assert len(fi.fire_serve("predict")) == 1
            assert fi.fire_serve("predict") == []

    def test_fire_serve_op_scoped(self):
        with config.override(inject_fault="serve:drop,op=timing"):
            assert fi.fire_serve("predict") == []
            assert len(fi.fire_serve("timing")) == 1

    def test_fire_serve_empty_without_plan(self):
        assert fi.fire_serve("predict") == []


class TestCorruptResponse:
    def test_deterministic_and_preserves_framing(self):
        payload = b'{"id": 1, "ok": true, "result": {}}\n'
        first = fi.corrupt_response(payload, seed=7)
        second = fi.corrupt_response(payload, seed=7)
        assert first == second
        assert first.endswith(b"\n")
        assert b"\n" not in first[:-1]
        assert first != payload

    def test_guaranteed_json_parse_failure(self):
        import json
        payload = b'{"id": 1, "ok": true}\n'
        mangled = fi.corrupt_response(payload, seed=0)
        with pytest.raises((ValueError, UnicodeDecodeError)):
            json.loads(mangled.decode("utf-8"))

    def test_different_seeds_differ(self):
        payload = b'{"id": 1, "ok": true, "result": {"x": 1}}\n'
        assert fi.corrupt_response(payload, seed=0) \
            != fi.corrupt_response(payload, seed=1)
