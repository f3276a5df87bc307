"""The shared ``REPRO_*`` knob parser, and the four knobs routed through it.

Satellite of the serving-mode PR: a malformed ``REPRO_BATCH`` /
``REPRO_JOIN_BLOCK`` / ``REPRO_JOBS`` / ``REPRO_DECODED_CACHE`` must
raise a clear :class:`ValueError` *naming the variable*, never a bare
``int()`` traceback — operators set these in service unit files where a
nameless traceback is useless.
"""

import pytest

from repro.bench.parallel import JOBS_ENV, resolve_jobs
from repro.core import ConfigError, QueryError
from repro.core.config import (
    int_knob,
    parse_choice_knob,
    parse_float_knob,
    parse_int_knob,
    read_env_choice,
    read_env_float,
    read_env_int,
)
from repro.exec import BATCH_ENV, JOIN_BLOCK_ENV, resolve_batch, resolve_join_block
from repro.storage import BACKEND_ENV, BACKEND_PATH_ENV
from repro.storage.faults import (
    FAULT_BIT_ROT_ENV,
    FAULT_READ_ERROR_ENV,
    FAULT_SEED_ENV,
    FAULT_TORN_WRITE_ENV,
    FaultPlan,
)
from repro.storage.buffer import DECODED_CACHE_ENV, BufferPool
from repro.storage.disk import DiskManager


class TestParseIntKnob:
    def test_parses_and_strips(self):
        assert parse_int_knob(" 12 ", "X") == 12

    def test_accepts_int_argument(self):
        assert parse_int_knob(3, "X", minimum=1) == 3

    @pytest.mark.parametrize("raw", ["three", "2.5", "", "0x10"])
    def test_non_integer_names_the_knob(self, raw):
        with pytest.raises(ConfigError, match="MY_KNOB"):
            parse_int_knob(raw, "MY_KNOB")

    def test_below_minimum_names_the_knob(self):
        with pytest.raises(ConfigError, match="MY_KNOB must be >= 1"):
            parse_int_knob(0, "MY_KNOB", minimum=1)

    def test_bool_rejected(self):
        with pytest.raises(ConfigError, match="MY_KNOB"):
            parse_int_knob(True, "MY_KNOB")

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_int_knob("junk", "MY_KNOB")


class TestParseFloatKnob:
    def test_parses(self):
        assert parse_float_knob("2.5", "X") == 2.5

    @pytest.mark.parametrize("raw", ["soon", "", "nan"])
    def test_bad_values_name_the_knob(self, raw):
        with pytest.raises(ConfigError, match="MY_KNOB"):
            parse_float_knob(raw, "MY_KNOB")

    def test_below_minimum(self):
        with pytest.raises(ConfigError, match="MY_KNOB must be >= 0"):
            parse_float_knob(-1.0, "MY_KNOB", minimum=0.0)


class TestParseChoiceKnob:
    def test_normalizes_case_and_whitespace(self):
        assert parse_choice_knob(" MMap ", "X", choices=("mmap",)) == "mmap"

    def test_unknown_names_the_knob_and_lists_choices(self):
        with pytest.raises(ConfigError, match="MY_KNOB must be one of a, b"):
            parse_choice_knob("c", "MY_KNOB", choices=("a", "b"))

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_choice_knob("c", "MY_KNOB", choices=("a",))


class TestReadEnv:
    def test_unset_returns_none(self):
        assert read_env_int("NO_SUCH_KNOB", environ={}) is None

    def test_special_words_and_case(self):
        env = {"K": " OFF "}
        assert read_env_int("K", special={"off": 0}, environ=env) == 0

    def test_special_none_means_unset(self):
        env = {"K": "default"}
        assert read_env_int("K", special={"default": None}, environ=env) is None

    def test_plain_value(self):
        assert read_env_int("K", minimum=1, environ={"K": "7"}) == 7

    def test_float_reader(self):
        assert read_env_float("K", environ={"K": "1.5"}) == 1.5

    def test_choice_reader(self):
        env = {"K": " Shm "}
        assert read_env_choice("K", choices=("mmap", "shm"), environ=env) == "shm"
        assert read_env_choice("K", choices=("mmap",), environ={}) is None
        with pytest.raises(ConfigError, match="K must be one of"):
            read_env_choice("K", choices=("mmap",), environ={"K": "disk"})


class TestBackendKnobs:
    """The ``REPRO_BACKEND`` / ``REPRO_BACKEND_PATH`` pair (storage PR)."""

    def test_default_is_simulated(self):
        from repro.storage import BackendSpec, spec_from_env

        assert spec_from_env(environ={}) == BackendSpec("simulated")
        assert spec_from_env(environ={BACKEND_ENV: "default"}) == BackendSpec(
            "simulated"
        )

    # "shm" was a registered backend until nothing attached to it.
    @pytest.mark.parametrize("raw", ["disk", "ram", "1", "mmap file", "shm"])
    def test_bad_backend_names_the_variable(self, raw):
        from repro.storage import spec_from_env

        with pytest.raises(ConfigError, match=BACKEND_ENV):
            spec_from_env(environ={BACKEND_ENV: raw})

    def test_backend_names_are_case_insensitive(self):
        from repro.storage import spec_from_env

        spec = spec_from_env(environ={BACKEND_ENV: " MMap "})
        assert spec.name == "mmap"

    def test_path_with_non_mmap_backend_is_an_error(self):
        from repro.storage import spec_from_env

        with pytest.raises(ConfigError, match=BACKEND_PATH_ENV):
            spec_from_env(
                environ={BACKEND_ENV: "simulated", BACKEND_PATH_ENV: "/tmp/x"}
            )
        # ...including when the backend is merely defaulted, not set.
        with pytest.raises(ConfigError, match=BACKEND_PATH_ENV):
            spec_from_env(environ={BACKEND_PATH_ENV: "/tmp/x"})

    def test_path_must_be_a_directory(self, tmp_path):
        from repro.storage import spec_from_env

        file_path = tmp_path / "not-a-dir"
        file_path.write_text("x")
        with pytest.raises(ConfigError, match="directory"):
            spec_from_env(
                environ={
                    BACKEND_ENV: "mmap",
                    BACKEND_PATH_ENV: str(file_path),
                }
            )

    def test_mmap_path_accepted(self, tmp_path):
        from repro.storage import BackendSpec, spec_from_env

        spec = spec_from_env(
            environ={BACKEND_ENV: "mmap", BACKEND_PATH_ENV: str(tmp_path)}
        )
        assert spec == BackendSpec("mmap", directory=str(tmp_path))

    def test_bad_spec_name_rejected_programmatically(self):
        from repro.storage import BackendSpec

        with pytest.raises(ConfigError):
            BackendSpec("turbodisk")

    def test_env_reaches_new_disks(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BACKEND_ENV, "mmap")
        monkeypatch.setenv(BACKEND_PATH_ENV, str(tmp_path))
        disk = DiskManager(page_size=64)
        assert disk.backend.name == "mmap"
        assert disk.backend.path.parent == tmp_path
        disk.close()

    def test_bad_env_surfaces_at_disk_construction(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "turbodisk")
        with pytest.raises(ConfigError, match=BACKEND_ENV):
            DiskManager(page_size=64)
        assert read_env_float("K", environ={}) is None


class TestKnob:
    """The one precedence implementation every ambient setting binds to."""

    @pytest.fixture()
    def knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        return int_knob(
            "REPRO_TEST_KNOB", "test knob", minimum=1, special={"off": 1},
            default=4,
        )

    def test_explicit_beats_override_beats_env_beats_default(
        self, knob, monkeypatch
    ):
        assert knob.resolve() == 4
        monkeypatch.setenv("REPRO_TEST_KNOB", "8")
        assert knob.resolve() == 8
        with knob.override(16):
            assert knob.resolve() == 16
            assert knob.resolve(32) == 32
        assert knob.resolve() == 8

    def test_override_nests_and_restores_on_exception(self, knob):
        with knob.override(2):
            with pytest.raises(RuntimeError):
                with knob.override(3):
                    assert knob.resolve() == 3
                    raise RuntimeError("boom")
            assert knob.resolve() == 2
        assert knob.resolve() == 4

    def test_set_installs_and_none_clears(self, knob):
        knob.set(9)
        assert knob.resolve() == 9
        knob.set(None)
        assert knob.resolve() == 4

    def test_programmatic_values_share_the_env_range_check(self, knob):
        with pytest.raises(ConfigError, match="test knob must be >= 1"):
            knob.resolve(0)
        with pytest.raises(ConfigError, match="test knob"):
            with knob.override("many"):
                pass
        assert knob.resolve() == 4  # a refused override installs nothing


class TestFaultKnobs:
    @pytest.mark.parametrize(
        "env,raw",
        [
            (FAULT_SEED_ENV, "lucky"),
            (FAULT_SEED_ENV, "1.5"),
            (FAULT_READ_ERROR_ENV, "often"),
            (FAULT_TORN_WRITE_ENV, "-0.1"),
            (FAULT_BIT_ROT_ENV, "nan"),
        ],
    )
    def test_bad_env_names_variable(self, monkeypatch, env, raw):
        monkeypatch.setenv(env, raw)
        with pytest.raises(ConfigError, match=env):
            FaultPlan.from_env()

    def test_upper_bound_is_the_plans_own(self, monkeypatch):
        monkeypatch.setenv(FAULT_BIT_ROT_ENV, "1.5")
        with pytest.raises(QueryError, match=r"must lie in \[0, 1\]"):
            FaultPlan.from_env()

    def test_valid_env_builds_the_plan(self, monkeypatch):
        monkeypatch.setenv(FAULT_SEED_ENV, " 7 ")
        monkeypatch.setenv(FAULT_READ_ERROR_ENV, "0.25")
        assert FaultPlan.from_env() == FaultPlan(seed=7, read_error_rate=0.25)


class TestBatchKnob:
    @pytest.mark.parametrize("raw", ["sixteen", "2.5", "-3", "0"])
    def test_bad_env_names_variable(self, monkeypatch, raw):
        monkeypatch.setenv(BATCH_ENV, raw)
        with pytest.raises(ConfigError, match=BATCH_ENV):
            resolve_batch()

    def test_still_a_query_error(self, monkeypatch):
        # Backward compatibility: callers catching QueryError keep working.
        monkeypatch.setenv(BATCH_ENV, "junk")
        with pytest.raises(QueryError):
            resolve_batch()


class TestJoinBlockKnob:
    @pytest.mark.parametrize("raw", ["wide", "1.5", "-1", "0"])
    def test_bad_env_names_variable(self, monkeypatch, raw):
        monkeypatch.setenv(JOIN_BLOCK_ENV, raw)
        with pytest.raises(ConfigError, match=JOIN_BLOCK_ENV):
            resolve_join_block()


class TestJobsKnob:
    @pytest.mark.parametrize("raw", ["many", "3.5", "-2"])
    def test_bad_env_names_variable(self, monkeypatch, raw):
        monkeypatch.setenv(JOBS_ENV, raw)
        with pytest.raises(ConfigError, match=JOBS_ENV):
            resolve_jobs()

    def test_auto_and_zero_mean_cpu_count(self, monkeypatch):
        import os

        monkeypatch.setenv(JOBS_ENV, "auto")
        assert resolve_jobs() == (os.cpu_count() or 1)
        monkeypatch.setenv(JOBS_ENV, "0")
        assert resolve_jobs() == (os.cpu_count() or 1)


class TestDecodedCacheKnob:
    @pytest.mark.parametrize("raw", ["big", "1.5", "-4"])
    def test_bad_env_names_variable(self, monkeypatch, raw):
        monkeypatch.setenv(DECODED_CACHE_ENV, raw)
        disk = DiskManager(page_size=64)
        with pytest.raises(ConfigError, match=DECODED_CACHE_ENV):
            BufferPool(disk, capacity=4)

    @pytest.mark.parametrize("raw", ["off", "false", "no", "disabled"])
    def test_disabling_words(self, monkeypatch, raw):
        monkeypatch.setenv(DECODED_CACHE_ENV, raw)
        disk = DiskManager(page_size=64)
        assert not BufferPool(disk, capacity=4).decoded.enabled
