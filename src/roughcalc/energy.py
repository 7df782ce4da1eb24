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
inner products mutually consistent.  `GramContext` lives in `models`, next
to `build_gram` that makes it, and is re-exported here.
"""

from __future__ import annotations

import numpy as np

from .models import GramContext

__all__ = ["GramContext", "inner_product", "norm", "representer",
           "increment_element", "evaluate", "project_adapted"]


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
