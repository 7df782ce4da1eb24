"""Plain key=value run configuration.

Config files are text: one ``key = value`` per line, ``#`` comments, blank
lines ignored.  CLI overrides are the same syntax.  Unknown keys are
configuration errors, reported before any computation starts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .functionals import catalog_names
from .models import CovarianceModel, TimeGrid

__all__ = ["ExperimentConfig", "parse_config_text", "load_config", "DEFAULTS"]

# Experiments making statistical claims refuse smaller ensembles.
MIN_STATISTICAL_PATHS = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "fbm"
    hurst: float = 0.25
    alpha: float = 1.0
    beta: float = 1.0
    grid_n: int = 64
    horizon: float = 1.0
    times: tuple[float, ...] | None = None
    paths: int = 20000
    seed: int = 42
    workers: int = 1
    functional: str = "quadratic"
    grid_sweep: tuple[int, ...] = (8, 16, 32, 64)
    out_dir: str = "."

    def __post_init__(self):
        if self.model not in ("bm", "fbm", "mixed"):
            raise ConfigError(f"model must be bm|fbm|mixed, got {self.model!r}")
        # the model and the grids validate themselves; the uniform sizes are
        # checked even when explicit times override them
        try:
            self.covariance_model()
            for n in (self.grid_n, *self.grid_sweep):
                TimeGrid.uniform_grid(n, self.horizon)
            if self.times:
                TimeGrid(self.times, self.horizon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2^64), got {self.seed!r}")
        if self.paths < 1:
            raise ConfigError("paths must be >= 1")
        if self.functional not in catalog_names():
            raise ConfigError(f"unknown functional {self.functional!r}; "
                              f"choose from {', '.join(catalog_names())}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def covariance_model(self) -> CovarianceModel:
        if self.model == "bm":
            return CovarianceModel.bm()
        if self.model == "fbm":
            return CovarianceModel.fbm(self.hurst)
        return CovarianceModel(self.alpha, self.beta, self.hurst)

    def grid(self, n: int | None = None) -> TimeGrid:
        """The explicit ``times`` grid when set, else the uniform one."""
        if self.times:
            return TimeGrid(self.times, self.horizon)
        return TimeGrid.uniform_grid(n if n is not None else self.grid_n, self.horizon)

    def require_statistical(self) -> None:
        if self.paths < MIN_STATISTICAL_PATHS:
            raise ConfigError(
                f"statistical experiments need paths >= {MIN_STATISTICAL_PATHS}, "
                f"got {self.paths}"
            )

    # Execution details, not experiment definition: reports must be
    # byte-identical across worker counts and output locations.
    _ECHO_EXCLUDED = ("workers", "out_dir")

    def echo(self) -> dict:
        """The experiment-defining fields by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in self._ECHO_EXCLUDED}


DEFAULTS = ExperimentConfig()


def _field_parser(annotation: str):
    """Text parser of one config field, read off its annotation: int, float,
    str, or a comma-separated tuple[int, ...] / tuple[float, ...]."""
    if annotation.startswith("tuple["):
        item = int if annotation.startswith("tuple[int") else float
        return lambda raw: tuple(item(p) for p in raw.split(",") if p.strip())
    return {"int": int, "float": float, "str": str}[annotation]


# Every ExperimentConfig field is a config key, parsed as its type says.
_PARSERS = {f.name: _field_parser(f.type) for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        return _PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    """key=value lines -> {key: typed value}; unknown keys raise ConfigError."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = _parse_value(key, raw)
    return out


def load_config(
    path: str | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Defaults, then file, then overrides; each layer wins over the last."""
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if overrides:
        for key, val in overrides.items():
            if key not in _PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _parse_value(key, str(val)) if isinstance(val, str) else val
    try:
        return replace(DEFAULTS, **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
