"""Mixed process X = alpha * B + beta * B^H built from independent components.

The underlying Gaussian system is the 2N vector (B, B^H) with block-diagonal
Gram diag(Sigma_B, Sigma_H); the energy space is the direct sum with

    ||(u, v)||^2 = ||u||^2_B + ||v||^2_H.

Functionals read the mixed path values X_{t_i}, so the chain rule puts the
weights in the derivative:

    D F = (alpha * sum_i d_i f k^B_{t_i},  beta * sum_i d_i f k^H_{t_i}),

and the divergence acts componentwise, delta(u, v) = delta_B(u) + delta_H(v).
With the weights placed this way, Gaussian integration by parts on the joint
system gives exact adjointness E[F delta(u, v)] = E<DF, (u, v)> and the
degenerations are literal: beta = 0 recovers the Brownian pipeline
(bit-identical paths for matching seeds, since the B block consumes the same
leading draws), alpha = 0 the fractional one.

Conditioning is always on the observable filtration of X itself, whose Gram
Sigma_X = alpha^2 Sigma_B + beta^2 Sigma_H is that of the model
CovarianceModel(alpha, beta, H), so the single-process conditioning
machinery applies unchanged, and so do the single-process divergence and
pairing, applied per component.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .energy import GramContext
from .functionals import CylindricalFunctional
from .gaussian import _row_blocks, _sample_dense
from .malliavin import (VectorField, clark_integrand, derivative_pairing,
                        divergence)
from .models import CovarianceModel, TimeGrid

__all__ = ["MixedContext", "MixedEnsemble", "mixed_divergence", "mixed_pairing",
           "mixed_clark_fields"]


@dataclass(frozen=True)
class MixedContext:
    """Gram contexts for the two components and for the observable mixture;
    the weights are the mixture model's."""

    ctx_b: GramContext   # Brownian component
    ctx_h: GramContext   # fractional component
    ctx_x: GramContext   # mixture itself (conditioning filtration)

    @staticmethod
    def build(model: CovarianceModel, grid: TimeGrid) -> "MixedContext":
        return MixedContext(
            ctx_b=GramContext.build(CovarianceModel.bm(), grid),
            ctx_h=GramContext.build(CovarianceModel.fbm(model.hurst), grid),
            ctx_x=GramContext.build(model, grid),
        )

    @property
    def alpha(self) -> float:
        return self.ctx_x.model.alpha

    @property
    def beta(self) -> float:
        return self.ctx_x.model.beta


@dataclass(frozen=True)
class MixedEnsemble:
    paths_b: np.ndarray
    paths_h: np.ndarray
    paths_x: np.ndarray

    @property
    def m(self) -> int:
        return int(self.paths_x.shape[0])


def sample_mixed(
    mctx: MixedContext, m: int, seed: int, stream: int = 0, workers: int = 1
) -> MixedEnsemble:
    """Joint draw of (B, B^H, X) with the B block reading the leading normals
    of each chunk, so beta = 0 reproduces the pure Brownian ensemble bit for
    bit at matching (seed, stream).  X is formed a row block at a time, so
    the working memory beyond the three outputs is bounded in bytes."""
    paths_b, paths_h = _sample_dense((mctx.ctx_b.chol, mctx.ctx_h.chol), m, seed,
                                     stream, workers)
    paths_x = np.empty_like(paths_b)
    for b0, b1 in _row_blocks(0, m, 8 * mctx.ctx_x.n):
        paths_x[b0:b1] = mctx.alpha * paths_b[b0:b1] + mctx.beta * paths_h[b0:b1]
    paths_x.setflags(write=False)
    return MixedEnsemble(paths_b, paths_h, paths_x)


def _parts(mctx: MixedContext, field_b: VectorField | None,
           field_h: VectorField | None, ens: MixedEnsemble):
    """(ctx, field, component paths, weight) of each component with a field,
    B first."""
    return [(ctx, field, paths, weight) for ctx, field, paths, weight in (
        (mctx.ctx_b, field_b, ens.paths_b, mctx.alpha),
        (mctx.ctx_h, field_h, ens.paths_h, mctx.beta)) if field is not None]


def mixed_divergence(
    mctx: MixedContext,
    field_b: VectorField | None,
    field_h: VectorField | None,
    ens: MixedEnsemble,
) -> np.ndarray:
    """delta(u, v) = delta_B(u) + delta_H(v); coefficient rules read X."""
    return sum((divergence(ctx, field, paths, ens.paths_x, weight)
                for ctx, field, paths, weight in _parts(mctx, field_b, field_h, ens)),
               np.zeros(ens.m))


def mixed_pairing(
    mctx: MixedContext,
    fn: CylindricalFunctional,
    field_b: VectorField | None,
    field_h: VectorField | None,
    ens: MixedEnsemble,
) -> np.ndarray:
    """<DF, (u, v)> = alpha <DF, u>_B + beta <DF, v>_H per path."""
    return sum((weight * derivative_pairing(ctx, fn, field, ens.paths_x)
                for ctx, field, _, weight in _parts(mctx, field_b, field_h, ens)),
               np.zeros(ens.m))


def mixed_clark_fields(
    mctx: MixedContext, fn: CylindricalFunctional
) -> tuple[VectorField, VectorField]:
    """Componentwise Clark fields for the mixture's martingale factorization.

    Both components carry the Clark field of X in its own filtration,
    clark_integrand(ctx_x, fn), scaled by alpha and by beta: the slot-s
    direction pair is (w_s, w_s) with w_s the X-innovation, because
    observing X pins the two components only jointly.  Then alpha a_s
    I_B(w_s) + beta a_s I_H(w_s) = a_s I_X(w_s), and the two corrections,
    alpha^2 <D a_s, w_s>_B and beta^2 <D a_s, w_s>_H, sum to the single
    correction in the Sigma_X geometry, so mixed_divergence of the pair is
    divergence(ctx_x, clark_integrand(ctx_x, fn), paths_x).  At weight 0 a
    component field is identically zero and the other one reproduces the
    pure pipeline.
    """
    field = clark_integrand(mctx.ctx_x, fn)

    def scaled(weight: float) -> VectorField:
        return replace(
            field,
            coeff_fn=lambda paths, incr=None: weight * field.coeff_fn(paths, incr),
            grad_dot=lambda paths, v: weight * field.grad_dot(paths, v),
        )

    return scaled(mctx.alpha), scaled(mctx.beta)
