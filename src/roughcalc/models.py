"""Covariance models and time grids for Gaussian processes on a finite grid.

Three process families share one interface:

* standard Brownian motion,   R(t, s) = min(t, s)
* fractional Brownian motion, R(t, s) = 0.5 * (t^{2H} + s^{2H} - |t - s|^{2H})
* an independent mixture X = alpha * B + beta * B^H, whose covariance is
  alpha^2 * min(t, s) + beta^2 * R_H(t, s).

The fBM increment variance follows from the covariance by polarization,

    Var[X_t - X_s] = R(t, t) - 2 R(t, s) + R(s, s) = |t - s|^{2H},

and `increment_variance` computes exactly that combination so the identity
holds to roundoff.  Gram matrices built here are symmetric positive
semidefinite; `build_gram` factorizes them with an escalating diagonal
jitter ladder and records the jitter actually used.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedModelError

__all__ = [
    "ModelKind",
    "CovarianceModel",
    "TimeGrid",
    "GramMatrix",
    "covariance",
    "build_gram",
    "increment_variance",
]

# Relative jitter ladder tried after the bare factorization fails.
JITTER_LADDER = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8)


class ModelKind(str, enum.Enum):
    BM = "bm"
    FBM = "fbm"
    MIXED = "mixed"


def _check_hurst(h: float) -> float:
    h = float(h)
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst parameter must lie in (0, 1), got {h!r}")
    return h


@dataclass(frozen=True)
class CovarianceModel:
    """A covariance function R(t, s) on [0, inf)^2.

    For ``MIXED`` the weights refer to X = alpha * B + beta * B^H with the
    two components independent, so covariances add.
    """

    kind: ModelKind
    hurst: float | None = None
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.kind in (ModelKind.FBM, ModelKind.MIXED):
            if self.hurst is None:
                raise ValueError(f"{self.kind.value} model requires a Hurst parameter")
            object.__setattr__(self, "hurst", _check_hurst(self.hurst))
        if self.kind is ModelKind.MIXED:
            if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
                raise ValueError("mixed weights must be finite")
            if self.alpha < 0.0 or self.beta < 0.0:
                raise ValueError("mixed weights must be nonnegative")
            if self.alpha == 0.0 and self.beta == 0.0:
                raise ValueError("mixed weights must not both be zero")

    @staticmethod
    def bm() -> "CovarianceModel":
        return CovarianceModel(ModelKind.BM)

    @staticmethod
    def fbm(hurst: float) -> "CovarianceModel":
        return CovarianceModel(ModelKind.FBM, hurst=hurst)

    @staticmethod
    def mixed(alpha: float, beta: float, hurst: float) -> "CovarianceModel":
        return CovarianceModel(ModelKind.MIXED, hurst=hurst, alpha=alpha, beta=beta)


def _fbm_cov(h: float, t, s):
    two_h = 2.0 * h
    return 0.5 * (t**two_h + s**two_h - np.abs(t - s) ** two_h)


def covariance(model: CovarianceModel, t, s):
    """R(t, s) for scalar or array arguments; times must be >= 0."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0.0) or np.any(s < 0.0):
        raise ValueError("covariance arguments must be nonnegative times")
    if model.kind is ModelKind.BM:
        out = np.minimum(t, s)
    elif model.kind is ModelKind.FBM:
        out = _fbm_cov(model.hurst, t, s)
    else:
        out = model.alpha**2 * np.minimum(t, s) + model.beta**2 * _fbm_cov(
            model.hurst, t, s
        )
    if out.ndim == 0:
        return float(out)
    return out


def increment_variance(model: CovarianceModel, s: float, t: float) -> float:
    """Var[X_t - X_s] = R(t,t) - 2 R(t,s) + R(s,s) for 0 <= s <= t.

    For fBM this equals |t - s|^{2H} up to roundoff in the covariance
    evaluations; the identity is exercised heavily by the tests.
    """
    if not 0.0 <= s <= t:
        raise ValueError(f"need 0 <= s <= t, got s={s!r}, t={t!r}")
    return (
        covariance(model, t, t)
        - 2.0 * covariance(model, t, s)
        + covariance(model, s, s)
    )


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times 0 < t_1 < ... < t_N <= horizon.

    Time 0 is deliberately excluded: its representer is degenerate (the
    process is pinned there).  ``uniform`` is detected, not declared, and
    gates the circulant sampler.
    """

    times: np.ndarray
    horizon: float
    uniform: bool = field(init=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("grid must be a nonempty 1-d array of times")
        if times[0] <= 0.0:
            raise ValueError("grid times must be strictly positive (0 is excluded)")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("grid times must be strictly increasing")
        horizon = float(self.horizon)
        if times[-1] > horizon:
            raise ValueError("grid times must not exceed the horizon")
        times = times.copy()
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "horizon", horizon)
        steps = np.diff(np.concatenate(([0.0], times)))
        is_uniform = bool(np.all(np.abs(steps - steps[0]) <= 1e-12 * steps[0]))
        object.__setattr__(self, "uniform", is_uniform)

    @staticmethod
    def uniform_grid(n: int, horizon: float = 1.0) -> "TimeGrid":
        """n equally spaced points horizon/n, ..., horizon."""
        if n < 1:
            raise ValueError("grid size must be >= 1")
        return TimeGrid(np.linspace(horizon / n, horizon, n), horizon)

    @property
    def n(self) -> int:
        return int(self.times.size)

    def index_of(self, t: float) -> int:
        """Index of the grid time nearest to t."""
        return int(np.argmin(np.abs(self.times - t)))


@dataclass(frozen=True)
class GramMatrix:
    """Covariance Gram matrix with its (jittered, if needed) Cholesky factor.

    ``sigma`` holds the exact covariances R(t_i, t_j), before any jitter.
    ``chol`` satisfies chol @ chol.T = sigma + jitter * I.  ``jitter`` is
    0.0 when the bare factorization succeeded.
    """

    model: CovarianceModel
    grid: TimeGrid
    sigma: np.ndarray
    chol: np.ndarray
    jitter: float

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


def jittered_cholesky(a: np.ndarray) -> tuple[np.ndarray, float] | None:
    """(L, jitter) with L L^T = a + jitter * I, for a symmetric PSD matrix.

    The bare factorization is tried first; a failed one retries with
    jitter = eps * |mean(diag a)|, eps escalating through JITTER_LADDER
    (1e-12 -> 1e-8 by factors of ten).  Returns None beyond the top rung, so
    each caller raises its own error.
    """
    scale = abs(float(np.mean(np.diag(a)))) or 1.0
    for eps in (0.0, *JITTER_LADDER):
        try:
            return np.linalg.cholesky(a + (eps * scale) * np.eye(a.shape[0])), eps * scale
        except np.linalg.LinAlgError:
            continue
    return None


def build_gram(model: CovarianceModel, grid: TimeGrid) -> GramMatrix:
    """Assemble sigma[i, j] = R(t_i, t_j) and factor it with
    `jittered_cholesky`; beyond its ladder the model/grid pair is declared
    ill-conditioned.
    """
    t = grid.times
    sigma = covariance(model, t[:, None], t[None, :])
    sigma = np.asarray(sigma, dtype=float)
    # Exact symmetry: the formula is symmetric, but guard against any
    # asymmetric rounding in vectorized evaluation.
    sigma = 0.5 * (sigma + sigma.T)
    factored = jittered_cholesky(sigma)
    if factored is None:
        raise IllConditionedModelError(
            f"Gram matrix for {model.kind.value} on n={grid.n} grid is not "
            f"factorizable within the jitter ladder (top eps=1e-8)",
            jitter=JITTER_LADDER[-1] * float(np.mean(np.diag(sigma))),
        )
    chol, jitter = factored
    sigma.setflags(write=False)
    chol.setflags(write=False)
    return GramMatrix(model=model, grid=grid, sigma=sigma, chol=chol, jitter=jitter)
