"""Tests for :mod:`repro.serve.config` (``REPRO_SERVE_*`` knobs)."""

import dataclasses

import pytest

from repro.core import ConfigError
from repro.serve.config import (
    DEADLINE_MS_ENV,
    INFLIGHT_ENV,
    MODE_ENV,
    POOL_ENV,
    QUEUE_ENV,
    ServeConfig,
)


def test_defaults_are_valid():
    config = ServeConfig()
    assert config.mode == "serve"
    assert config.deadline_ms == 1000.0


def test_from_env_reads_every_knob():
    config = ServeConfig.from_env(
        environ={
            MODE_ENV: "measure",
            POOL_ENV: "512",
            INFLIGHT_ENV: "8",
            QUEUE_ENV: "16",
            DEADLINE_MS_ENV: "250",
        }
    )
    assert config.mode == "measure"
    assert config.pool_size == 512
    assert config.max_inflight == 8
    assert config.queue_limit == 16
    assert config.deadline_ms == 250.0


def test_coalescing_knobs_are_gone():
    """The server answers one request at a time: there is no linger or
    group bound to configure, and a leftover environment knob is
    ignored, even a malformed one."""
    assert len(dataclasses.fields(ServeConfig)) == 8
    for knob in ("ms", "max"):
        with pytest.raises(TypeError):
            ServeConfig(**{f"coalesce_{knob}": 1})
    leftover = {
        f"REPRO_SERVE_COALESCE_{knob.upper()}": "lots" for knob in ("ms", "max")
    }
    assert ServeConfig.from_env(environ=leftover) == ServeConfig()


def test_deadline_off_words():
    for word in ("off", "none", "OFF"):
        config = ServeConfig.from_env(environ={DEADLINE_MS_ENV: word})
        assert config.deadline_ms is None


def test_overrides_beat_environment():
    config = ServeConfig.from_env(
        environ={POOL_ENV: "512"}, pool_size=64
    )
    assert config.pool_size == 64


@pytest.mark.parametrize(
    "env,value",
    [
        (POOL_ENV, "zero"),
        (POOL_ENV, "0"),
        (INFLIGHT_ENV, "-1"),
        (QUEUE_ENV, "1.5"),
        (DEADLINE_MS_ENV, "-10"),
    ],
)
def test_bad_env_values_name_the_knob(env, value):
    with pytest.raises(ConfigError, match=env):
        ServeConfig.from_env(environ={env: value})


def test_bad_env_values_are_value_errors():
    with pytest.raises(ValueError):
        ServeConfig.from_env(environ={POOL_ENV: "many"})


def test_mode_validated():
    with pytest.raises(ConfigError, match=MODE_ENV):
        ServeConfig(mode="burst")
    with pytest.raises(ConfigError, match=MODE_ENV):
        ServeConfig.from_env(environ={MODE_ENV: "Turbo"})


def test_constructor_validates_programmatic_values():
    with pytest.raises(ConfigError, match=INFLIGHT_ENV):
        ServeConfig(max_inflight=0)
    with pytest.raises(ConfigError, match=POOL_ENV):
        ServeConfig(pool_size=0)


def test_with_overrides_revalidates():
    config = ServeConfig()
    assert config.with_overrides(deadline_ms=None).deadline_ms is None
    with pytest.raises(ConfigError, match=QUEUE_ENV):
        config.with_overrides(queue_limit=0)
