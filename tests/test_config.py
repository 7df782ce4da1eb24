"""Config parsing, validation, and the echoed-parameter policy."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from roughcalc.config import DEFAULTS, ExperimentConfig, load_config, parse_config_text
from roughcalc.errors import ConfigError
from roughcalc.experiments import _report
from roughcalc.reporting import render_json


def test_defaults_are_valid() -> None:
    assert DEFAULTS.model == "fbm"
    assert DEFAULTS.hurst == 0.25
    assert DEFAULTS.grid_n == 64
    assert DEFAULTS.seed == 42


def test_parse_round_trip() -> None:
    text = """
    # experiment shape
    model = mixed
    hurst = 0.4
    alpha = 0.5
    beta = 2.0
    grid_n = 16        # inline comment
    paths = 5000
    grid_sweep = 8, 16
    functional = linear
    """
    values = parse_config_text(text)
    cfg = dataclasses.replace(DEFAULTS, **values)
    assert cfg.model == "mixed"
    assert cfg.hurst == 0.4
    assert cfg.alpha == 0.5
    assert cfg.grid_n == 16
    assert cfg.grid_sweep == (8, 16)


def test_unknown_key_reports_line_number() -> None:
    with pytest.raises(ConfigError) as err:
        parse_config_text("model = fbm\nbogus_key = 3\n")
    assert "bogus_key" in str(err.value)
    assert "2" in str(err.value)


def test_bad_value_type_raises() -> None:
    with pytest.raises(ConfigError):
        parse_config_text("grid_n = sixty-four\n")
    with pytest.raises(ConfigError):
        parse_config_text("hurst = maybe\n")


def test_load_config_with_overrides(tmp_path) -> None:
    p = tmp_path / "exp.cfg"
    p.write_text("model = fbm\nhurst = 0.1\npaths = 3000\n")
    cfg = load_config(str(p), {"hurst": "0.4", "seed": "7"})
    assert cfg.hurst == 0.4
    assert cfg.paths == 3000
    assert cfg.seed == 7


def test_shipped_config_matches_defaults() -> None:
    # a key removed from ExperimentConfig but left in the file fails here
    path = Path(__file__).resolve().parent.parent / "default.cfg"
    assert load_config(str(path)) == DEFAULTS


def test_load_config_without_file_uses_defaults() -> None:
    cfg = load_config(None, {"grid_n": "32"})
    assert cfg.grid_n == 32
    assert cfg.model == DEFAULTS.model


@pytest.mark.filterwarnings("error")
def test_validation_errors() -> None:
    for kw in (
        dict(hurst=0.0),
        dict(hurst=1.0),
        dict(model="ou"),
        dict(paths=0),
        dict(grid_n=0),
        dict(workers=0),
        dict(model="mixed", alpha=-0.5),
        dict(model="mixed", alpha=0.0, beta=0.0),
        dict(times=(0.5, 0.2)),
        dict(times=(0.5, 1.5)),
        dict(times=(0.0, 0.5)),
        dict(horizon=-1.0),
        dict(horizon=0.0),
        dict(functional="nope"),
        dict(grid_sweep=(0, 8)),
        # the uniform sizes are checked even when explicit times override them
        dict(times=(0.5, 1.0), grid_n=0),
        dict(times=(0.5, 1.0), grid_sweep=(8, 0)),
        dict(seed=-1),
        dict(seed=2**64),
        dict(horizon=float("inf")),
        dict(model="mixed", alpha=float("inf")),
        dict(model="mixed", beta=float("nan")),
    ):
        with pytest.raises(ConfigError):
            dataclasses.replace(DEFAULTS, **kw)


@pytest.mark.parametrize("key", ["hurst_sweep", "offsets", "elements"])
def test_fixed_settings_are_unknown_keys(key) -> None:
    # the lemma's Hurst values and elements and the remainder's offsets are
    # constants of the experiments, not config keys
    with pytest.raises(ConfigError, match=key):
        load_config(None, {key: "1"})
    with pytest.raises(ConfigError, match=key):
        parse_config_text(f"{key} = 1\n")
    assert key not in DEFAULTS.echo()


def test_echo_excludes_environment_keys() -> None:
    cfg = dataclasses.replace(DEFAULTS, workers=8, out_dir="/somewhere")
    echo = cfg.echo()
    assert "workers" not in echo
    assert "out_dir" not in echo
    # the written JSON turns the tuple into a list
    assert json.loads(render_json(echo))["grid_sweep"] == [8, 16, 32, 64]
    # byte-identical reports for the same experiment regardless of machine
    other = dataclasses.replace(DEFAULTS, workers=1, out_dir=".")
    assert echo == other.echo()


def test_grid_accessors() -> None:
    cfg = dataclasses.replace(DEFAULTS, grid_n=4, horizon=2.0)
    grid = cfg.grid()
    assert grid.n == 4
    assert grid.times[0] > 0.0
    assert grid.times[-1] == 2.0
    assert cfg.grid(8).n == 8


def test_explicit_times_grid() -> None:
    cfg = dataclasses.replace(DEFAULTS, times=(0.1, 0.5, 1.0))
    grid = cfg.grid()
    assert grid.n == 3
    assert not grid.uniform


def test_statistical_floor() -> None:
    cfg = dataclasses.replace(DEFAULTS, paths=10)
    with pytest.raises(ConfigError):
        cfg.require_statistical()
    dataclasses.replace(DEFAULTS, paths=2000).require_statistical()


def test_hurst_label() -> None:
    assert _report(dataclasses.replace(DEFAULTS, model="bm"), "x", 8).hurst_label == "0.5"
    assert _report(dataclasses.replace(DEFAULTS, hurst=0.25), "x", 8).hurst_label == "0.25"
