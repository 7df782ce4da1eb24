"""Finite-dimensional energy space attached to a Gaussian grid model.

Elements are coefficient vectors c in R^N over the representer basis
{k_{t_1}, ..., k_{t_N}}; the geometry is the Gram form

    <a, b> = a^T Sigma b,       Sigma_ij = R(t_i, t_j).

Evaluation is the reproducing identity h(t_i) = <h, k_{t_i}> = (Sigma c)_i.
The adapted subspace at level j is span{k_{t_1}, ..., k_{t_j}};
`project_adapted` solves the normal equations

    Sigma[:j, :j] y = (Sigma c)[:j]

which coincide with Gaussian regression of I(h) on the first j coordinates.
A single Cholesky factor L of Sigma serves every leading block: the factor
of Sigma[:j, :j] is exactly L[:j, :j], so the context costs O(N^3) once and
each projection O(j^2).

When the jitter ladder fired during Gram assembly, the context operates in
the jittered geometry Sigma + eps*I throughout, keeping projections and
inner products mutually consistent; the raw Sigma stays available on the
GramMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .models import CovarianceModel, GramMatrix, TimeGrid, build_gram

__all__ = ["GramContext", "inner_product", "norm", "representer",
           "increment_element", "evaluate", "project_adapted"]


@dataclass(frozen=True)
class GramContext:
    """Gram matrix plus cached factorization state for all leading blocks."""

    gram: GramMatrix
    sigma: np.ndarray  # operative Gram (jitter included if any)
    chol: np.ndarray

    @staticmethod
    def build(model: CovarianceModel, grid: TimeGrid) -> "GramContext":
        gram = build_gram(model, grid)
        sigma = gram.sigma
        if gram.jitter > 0.0:
            sigma = sigma + gram.jitter * np.eye(gram.n)
            sigma.setflags(write=False)
        return GramContext(gram=gram, sigma=sigma, chol=gram.chol)

    @property
    def n(self) -> int:
        return self.gram.n

    @property
    def grid(self) -> TimeGrid:
        return self.gram.grid

    @property
    def model(self) -> CovarianceModel:
        return self.gram.model

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


def _as_coeffs(ctx: GramContext, c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.shape != (ctx.n,):
        raise ValueError(f"coefficient vector must have shape ({ctx.n},), got {c.shape}")
    return c


def inner_product(ctx: GramContext, a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> = a^T Sigma b."""
    a = _as_coeffs(ctx, a)
    b = _as_coeffs(ctx, b)
    return float(a @ ctx.sigma @ b)


def norm(ctx: GramContext, a: np.ndarray) -> float:
    q = inner_product(ctx, a, a)
    return float(np.sqrt(max(q, 0.0)))


def representer(ctx: GramContext, i: int) -> np.ndarray:
    """Coefficients of k_{t_i}: the i-th coordinate vector (0-based)."""
    if not 0 <= i < ctx.n:
        raise ValueError(f"representer index {i} out of range 0..{ctx.n - 1}")
    e = np.zeros(ctx.n)
    e[i] = 1.0
    return e


def increment_element(ctx: GramContext, i: int | None, j: int) -> np.ndarray:
    """Coefficients of k_{t_j} - k_{t_i}; i=None means the pin at time 0.

    ||increment_element(i, j)||^2 = Var[X_{t_j} - X_{t_i}], which for fBM is
    |t_j - t_i|^{2H}.
    """
    e = representer(ctx, j)
    if i is not None:
        if not 0 <= i < j:
            raise ValueError(f"need i < j, got i={i}, j={j}")
        e[i] = -1.0
    return e


def evaluate(ctx: GramContext, c: np.ndarray, i: int) -> float:
    """Reproducing evaluation h(t_i) = (Sigma c)_i."""
    c = _as_coeffs(ctx, c)
    if not 0 <= i < ctx.n:
        raise ValueError(f"evaluation index {i} out of range 0..{ctx.n - 1}")
    return float(ctx.sigma[i] @ c)


def project_adapted(ctx: GramContext, c: np.ndarray, j: int) -> np.ndarray:
    """Orthogonal projection onto span{k_{t_1}, ..., k_{t_j}} (j = count).

    Returns full-length coefficients supported on the first j entries.  The
    solved system is the Gaussian regression of I(h) on (X_{t_1..t_j}), so
    the projection commutes with conditional expectation of the isonormal
    image.
    """
    c = _as_coeffs(ctx, c)
    if not 0 <= j <= ctx.n:
        raise ValueError(f"adapted index {j} out of range 0..{ctx.n}")
    out = np.zeros(ctx.n)
    if j == 0:
        return out
    rhs = ctx.sigma[:j] @ c
    out[:j] = ctx.solve_leading(j, rhs)
    return out
