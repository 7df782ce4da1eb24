"""Covariance models and time grids for Gaussian processes on a finite grid.

One Gaussian family covers every driver: X = alpha * B + beta * B^H with
B a Brownian motion and B^H an independent fractional one, so

    R(t, s) = alpha^2 * min(t, s) + beta^2 * R_H(t, s),
    R_H(t, s) = 0.5 * (t^{2H} + s^{2H} - |t - s|^{2H}).

Brownian motion is (alpha, beta, H) = (1, 0, 1/2) and fractional Brownian
motion (0, 1, H); both terms of R are evaluated for every model, and a
zero weight contributes an exact 0.

The fBM increment variance follows from the covariance by polarization,

    Var[X_t - X_s] = R(t, t) - 2 R(t, s) + R(s, s) = |t - s|^{2H},

and `increment_variance` computes exactly that combination so the identity
holds to roundoff.  Gram matrices built here are symmetric positive
semidefinite; `build_gram` factorizes them with an escalating diagonal
jitter ladder, and the GramContext it returns works in the jittered
geometry Sigma + jitter * I throughout, with the jitter recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import IllConditionedModelError

__all__ = [
    "CovarianceModel",
    "TimeGrid",
    "GramContext",
    "covariance",
    "build_gram",
    "increment_variance",
]

# Relative jitter ladder tried after the bare factorization fails.
JITTER_LADDER = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8)


@dataclass(frozen=True)
class CovarianceModel:
    """X = alpha * B + beta * B^H with independent components, so the
    covariances add: R = alpha^2 * min(t, s) + beta^2 * R_H(t, s).

    The one validator of model parameters: H in (0, 1), weights nonnegative,
    not both zero, and with alpha^2 + beta^2 finite.  All three are stored
    as floats.
    """

    alpha: float
    beta: float
    hurst: float

    def __post_init__(self):
        try:
            a, b, h = float(self.alpha), float(self.beta), float(self.hurst)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"model parameters must be finite floats: {exc}") from exc
        if not 0.0 < h < 1.0:
            raise ValueError(f"Hurst parameter must lie in (0, 1), got {h!r}")
        # one check of the variance scale rejects inf, nan, and weights
        # whose squares overflow
        if not (math.isfinite(a * a + b * b) and min(a, b) >= 0.0 and (a or b)):
            raise ValueError("weights alpha and beta must be nonnegative, not both "
                             "zero, and have a finite alpha^2 + beta^2, got "
                             f"alpha={a!r}, beta={b!r}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "hurst", h)

    @staticmethod
    def bm() -> "CovarianceModel":
        return CovarianceModel(1.0, 0.0, 0.5)

    @staticmethod
    def fbm(hurst: float) -> "CovarianceModel":
        return CovarianceModel(0.0, 1.0, hurst)


def covariance(model: CovarianceModel, t, s):
    """R(t, s) for scalar or array arguments; times must be >= 0."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0.0) or np.any(s < 0.0):
        raise ValueError("covariance arguments must be nonnegative times")
    two_h = 2.0 * model.hurst
    out = model.alpha**2 * np.minimum(t, s) + model.beta**2 * (
        0.5 * (t**two_h + s**two_h - np.abs(t - s) ** two_h))
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


def _valid_horizon(horizon) -> float:
    horizon = float(horizon)
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    return horizon


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing finite times 0 < t_1 < ... < t_N <= horizon < inf.

    Time 0 is deliberately excluded: its representer is degenerate (the
    process is pinned there).  ``uniform`` is detected, not declared, and
    gates the circulant sampler.
    """

    times: np.ndarray
    horizon: float
    uniform: bool = field(init=False)

    def __post_init__(self):
        horizon = _valid_horizon(self.horizon)
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("grid must be a nonempty 1-d array of times")
        if not np.all(np.isfinite(times)):
            raise ValueError("grid times must be finite")
        if times[0] <= 0.0:
            raise ValueError("grid times must be strictly positive (0 is excluded)")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("grid times must be strictly increasing")
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
            raise ValueError(f"grid size must be >= 1, got {n!r}")
        # checked before linspace, which warns on an infinite horizon
        horizon = _valid_horizon(horizon)
        return TimeGrid(np.linspace(horizon / n, horizon, n), horizon)

    @property
    def n(self) -> int:
        return int(self.times.size)

    def index_of(self, t: float) -> int:
        """Index of the grid time nearest to t."""
        return int(np.argmin(np.abs(self.times - t)))


def jittered_cholesky(a: np.ndarray) -> tuple[np.ndarray, float] | None:
    """(L, jitter) with L L^T = a + jitter * I, for a symmetric PSD matrix.

    The bare factorization is tried first; a failed one retries with
    jitter = eps * |mean(diag a)|, eps escalating through JITTER_LADDER
    (1e-12 -> 1e-8 by factors of ten).  Returns None for a matrix with a
    non-finite entry (an overflowed Gram) and beyond the top rung, so each
    caller raises its own error.
    """
    if not np.isfinite(a).all():
        return None
    scale = abs(float(np.mean(np.diag(a)))) or 1.0
    for eps in (0.0, *JITTER_LADDER):
        try:
            return np.linalg.cholesky(a + (eps * scale) * np.eye(a.shape[0])), eps * scale
        except np.linalg.LinAlgError:
            continue
    return None


@dataclass(frozen=True)
class GramContext:
    """Gram matrix of a model on a grid, with its Cholesky factor.

    ``sigma`` is the operative Gram R(t_i, t_j) + jitter * I, and ``chol``
    satisfies chol @ chol.T = sigma.  ``jitter`` is 0.0 when the bare
    factorization succeeded.  The factor of every leading block
    sigma[:j, :j] is chol[:j, :j].
    """

    model: CovarianceModel
    grid: TimeGrid
    sigma: np.ndarray
    chol: np.ndarray
    jitter: float

    @staticmethod
    def build(model: CovarianceModel, grid: TimeGrid) -> "GramContext":
        # looked up as a module global, so a wrapper around build_gram (a
        # profiler's, say) sees every build
        return build_gram(model, grid)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    def solve_leading(self, j: int, rhs: np.ndarray) -> np.ndarray:
        """Solve Sigma[:j, :j] y = rhs via the cached Cholesky block.

        rhs may be (j,) or (j, k); returns matching shape.
        """
        if not 0 <= j <= self.n:
            raise ValueError(f"leading block size {j} out of range 0..{self.n}")
        if j == 0:
            return np.zeros_like(rhs)
        block = self.chol[:j, :j]
        half = solve_triangular(block, rhs, lower=True)
        return solve_triangular(block, half, lower=True, trans="T")


def build_gram(model: CovarianceModel, grid: TimeGrid) -> GramContext:
    """Assemble sigma[i, j] = R(t_i, t_j) and factor it with
    `jittered_cholesky`; beyond its ladder the model/grid pair is declared
    ill-conditioned.
    """
    t = grid.times
    # An entry that overflows is not warned about: it fails the factorization.
    with np.errstate(over="ignore"):
        sigma = covariance(model, t[:, None], t[None, :])
        sigma = np.asarray(sigma, dtype=float)
        # Exact symmetry: the formula is symmetric, but guard against any
        # asymmetric rounding in vectorized evaluation.
        sigma = 0.5 * (sigma + sigma.T)
        factored = jittered_cholesky(sigma)
        if factored is None:
            raise IllConditionedModelError(
                f"Gram matrix of {model} on n={grid.n} grid is not finite or not "
                f"factorizable within the jitter ladder (top eps=1e-8)")
    chol, jitter = factored
    if jitter > 0.0:
        sigma = sigma + jitter * np.eye(grid.n)
    sigma.setflags(write=False)
    chol.setflags(write=False)
    return GramContext(model=model, grid=grid, sigma=sigma, chol=chol, jitter=jitter)
