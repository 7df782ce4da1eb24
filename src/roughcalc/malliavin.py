"""Malliavin derivative, Skorokhod divergence, and the Clark integrand.

For F = f(X_{t_{i_1}}, ..., X_{t_{i_k}}) the derivative is DF = sum_i
(d_i f)(X) k_{t_i}.  A vector field assigns each slot s a coefficient rule
a_s (a function of the path) and a fixed direction d_s; its divergence is

    delta(u) = sum_s a_s(X) I(d_s) - sum_s <D a_s, d_s>,

the Gaussian integration-by-parts adjoint of D: E[F delta(u)] = E<DF, u>
holds exactly in expectation for any smooth coefficients, adapted or not.
The correction term needs coefficient gradients, so every field carries a
gradient rule; a deterministic field is the affine one with zero linear part.

The discrete Clark integrand assigns slot s (covering (t_{s-1}, t_s], with
t_{-1} = 0) the coefficient

    a_s(prefix) = <E[DF | F_{s}], d_s> / ||d_s||^2,

the conditionally expected derivative's density along the increment
direction d_s = k_{t_s} - k_{t_{s-1}}.  Conditioning is on the coordinates
strictly before the slot, so the field is predictable; at H = 1/2 the
coefficients reduce to the classical Euler Clark-Ocone scheme (local
averages of E[D_r F | F_r]) and delta(u) telescopes exactly for linear F.

For fields with affine coefficient rules a_s = p_s + q_s . x the
non-isometry defect has a closed form: with Q = sum_s w_s q_s^T (w_s the
direction coefficients),

    E[delta(u)^2] - E[||u||^2] = tr(Q Sigma Q Sigma),

a double Gram contraction that vanishes for predictable fields at H = 1/2
and equals 1 for u = X_T k_T on a unit-variance terminal coordinate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .energy import GramContext
from .errors import MissingGradientError
from .functionals import BasisMap, CylindricalFunctional, smooth_basis
from .gaussian import conditional_expectation, expect_scalar, regression_coefficients

__all__ = [
    "VectorField",
    "AffineField",
    "ClarkField",
    "derivative",
    "divergence",
    "derivative_pairing",
    "field_coefficients",
    "field_norm_sq",
    "increment_directions",
    "innovation_directions",
    "deterministic_field",
    "affine_field",
    "isometry_defect_affine",
    "predictable_projection",
    "conditional_gradient",
    "conditional_value",
    "clark_integrand",
]


@dataclass(frozen=True)
class VectorField:
    """Slot directions plus coefficient rules evaluated on path batches.

    ``coeff_fn`` maps an (m, N) path matrix to (m, n_slots) coefficients.
    ``grad_dot(paths, V)`` returns sum_k (d a_s / d x_k) V[s, k] per slot,
    the contraction the divergence correction needs; ``divergence`` raises
    MissingGradientError for a field without it.
    """

    directions: np.ndarray
    coeff_fn: Callable[[np.ndarray], np.ndarray]
    grad_dot: Callable[[np.ndarray, np.ndarray], np.ndarray] | None


@dataclass(frozen=True)
class AffineField(VectorField):
    """a_s(x) = const[s] + lin[s] . x, with ``lin`` kept for closed forms."""

    lin: np.ndarray = None


@dataclass(frozen=True)
class ClarkField(VectorField):
    """u_s = a_s w_s with a predictable coefficient a_s and w_s the slot
    innovation direction (`clark_integrand`).

    D a_s is a combination of k_{t_r}, r < s, and <k_{t_r}, w_s> = 0 there,
    so the Skorokhod correction is identically 0 and the divergence on the
    field's own paths is the Ito sum sum_s a_s I(w_s).  ``coeff_fn(paths,
    incr=None)`` returns a new (m, n_slots) array and reads the increment
    table ``incr = paths @ directions.T`` when its caller has formed it.
    """


def derivative(ctx: GramContext, fn: CylindricalFunctional, x: np.ndarray) -> np.ndarray:
    """Energy-space coefficients of DF at x; batch-shaped like x.

    Linear in f by construction: gradients add componentwise.
    """
    x = np.asarray(x, dtype=float)
    grads = fn.gradient(x)
    out = np.zeros(x.shape[:-1] + (ctx.n,))
    out[..., list(fn.indices)] = grads
    return out


def increment_directions(ctx: GramContext) -> np.ndarray:
    """Rows d_s = k_{t_s} - k_{t_{s-1}} (slot 0 is k_{t_0} from the pin)."""
    w = np.eye(ctx.n)
    w[1:, :-1] -= np.eye(ctx.n - 1)
    return w


def deterministic_field(directions: np.ndarray, weights: np.ndarray) -> AffineField:
    """Field with constant coefficients a_s = weights[s]: the affine field
    with zero linear part, so delta(u) = I(sum_s weights[s] d_s)."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    return affine_field(directions, weights, np.zeros(directions.shape))


def affine_field(
    directions: np.ndarray, const: np.ndarray, lin: np.ndarray
) -> AffineField:
    """Field with a_s(x) = const[s] + lin[s] . x; it is predictable when
    ``lin`` is strictly lower triangular (slot s reads coordinates < s)."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    const = np.asarray(const, dtype=float)
    lin = np.asarray(lin, dtype=float)
    n_slots, n = directions.shape
    if const.shape != (n_slots,) or lin.shape != (n_slots, n):
        raise ValueError("const must be (n_slots,), lin (n_slots, n)")

    def coeff_fn(paths):
        return const + paths @ lin.T

    def grad_dot(paths, v):
        return (lin * v).sum(axis=1)

    return AffineField(
        directions=directions,
        coeff_fn=coeff_fn,
        grad_dot=grad_dot,
        lin=lin,
    )


def field_coefficients(field: VectorField, paths: np.ndarray) -> np.ndarray:
    """Total energy-space coefficients v(x) = sum_s a_s(x) d_s, per path."""
    a = np.asarray(field.coeff_fn(paths), dtype=float)
    return a @ field.directions


def divergence(
    ctx: GramContext,
    field: VectorField,
    paths: np.ndarray,
    coeff_paths: np.ndarray | None = None,
    chain: float = 1.0,
) -> np.ndarray:
    """delta(u) per path row.

    The coefficient rules read ``coeff_paths`` (default ``paths``).  A
    component field of a mixture reads the mixture while its directions live
    in the component whose ``ctx`` and ``paths`` are passed; ``chain`` is
    d(mixture)/d(component), the chain-rule factor of the correction term.
    A field without ``grad_dot`` raises MissingGradientError.

    A `ClarkField` read on its own paths (``coeff_paths`` None or
    ``paths``) is predictable in innovation directions, so its correction
    is exactly 0 and delta(u) is its Ito sum, computed from one increment
    table without the correction's gradient rule.
    """
    if field.grad_dot is None:
        raise MissingGradientError(
            "the divergence correction term needs the field's gradient rule"
        )
    own = coeff_paths is None or coeff_paths is paths
    paths = np.atleast_2d(np.asarray(paths, dtype=float))
    if coeff_paths is None:
        coeff_paths = paths
    incr = paths @ field.directions.T
    if own and isinstance(field, ClarkField):
        a = field.coeff_fn(paths, incr)
        a *= incr
        return a.sum(axis=-1)
    a = np.asarray(field.coeff_fn(coeff_paths), dtype=float)
    v = field.directions @ ctx.sigma
    corr = np.asarray(field.grad_dot(coeff_paths, v), dtype=float)
    return (a * incr).sum(axis=-1) - chain * corr.sum(axis=-1)


def _pairings(ctx: GramContext, fns, grads, v: np.ndarray) -> list[np.ndarray]:
    """<DF, u> per path for each F in ``fns``, from its gradient
    ``fn.gradient(paths)`` in ``grads`` and u's coefficient table
    ``v = field_coefficients(field, paths)``, so that a caller pairing many
    functionals with many fields computes each gradient and each table once.
    """
    out = []
    for fn, g in zip(fns, grads):
        vs = v @ ctx.sigma[:, list(fn.indices)]
        vs *= g
        out.append(vs.sum(axis=-1))
        del vs  # before the next functional's product is made
    return out


def derivative_pairing(
    ctx: GramContext, fn: CylindricalFunctional, field: VectorField, paths: np.ndarray
) -> np.ndarray:
    """<DF, u> per path (the right-hand side of the adjointness identity)."""
    paths = np.atleast_2d(np.asarray(paths, dtype=float))
    return _pairings(ctx, [fn], [fn.gradient(paths)], field_coefficients(field, paths))[0]


def field_norm_sq(ctx: GramContext, field: VectorField, paths: np.ndarray) -> np.ndarray:
    """||u||^2 per path."""
    v = field_coefficients(field, np.atleast_2d(np.asarray(paths, dtype=float)))
    return ((v @ ctx.sigma) * v).sum(axis=-1)


def isometry_defect_affine(ctx: GramContext, field: AffineField) -> float:
    """Closed-form E[delta(u)^2] - E[||u||^2] = tr(Q Sigma Q Sigma)."""
    q = field.directions.T @ field.lin
    qs = q @ ctx.sigma
    return float(np.trace(qs @ qs))


def _smoother(maps):
    """smooth(mu, var, cols, out=None) with column j = E[maps[cols[j]](mu[:, j]
    + sqrt(var[j]) Z)], Z ~ N(0, 1), written into ``out`` when given;
    ``cols`` is an index array or a slice.

    When every map is a `BasisMap`, all columns are smoothed in closed form
    in one vectorized call on a (k, 6) coefficient table built here, once.
    Other callables integrate by Gauss-Hermite quadrature column by column;
    a column with var[j] == 0 (an observed coordinate) is evaluated
    directly.
    """
    if all(isinstance(h, BasisMap) for h in maps):
        table = np.array([h.coeffs for h in maps])
        return lambda mu, var, cols, out=None: smooth_basis(table[cols], mu, var, out)

    def quadrature(mu, var, cols, out=None):
        out = np.empty(mu.shape) if out is None else out
        for j, i in enumerate(np.arange(len(maps))[cols]):
            if var[j] == 0.0:
                out[:, j] = maps[i](mu[:, j])
            else:
                out[:, j] = expect_scalar(maps[i], mu[:, j], np.sqrt(var[j]))
        return out

    return quadrature


def _condition(ctx: GramContext, fn: CylindricalFunctional, j: int,
               prefixes: np.ndarray, maps) -> np.ndarray:
    """(m, k) table E[maps[i](X_{t_i}) | first j coordinates] per prefix row,
    each column integrated against its one-dimensional conditional law."""
    prefixes = np.atleast_2d(np.asarray(prefixes, dtype=float))
    beta, cov = regression_coefficients(ctx, j, fn.indices)
    return _smoother(maps)(prefixes[:, :j] @ beta, np.diag(cov), np.arange(fn.k))


def conditional_gradient(
    ctx: GramContext,
    fn: CylindricalFunctional,
    j: int,
    prefixes: np.ndarray,
) -> np.ndarray:
    """E[(d_i f)(X) | first j coordinates] for each row of ``prefixes``.

    Returns (m, k).  Diagonal-gradient functionals integrate each component
    against its one-dimensional conditional law; general functionals fall
    back to tensorized quadrature per row.
    """
    if fn.diag is not None:
        return _condition(ctx, fn, j, prefixes, fn.diag)
    prefixes = np.atleast_2d(np.asarray(prefixes, dtype=float))
    out = np.empty((prefixes.shape[0], fn.k))
    for r, row in enumerate(prefixes):
        for i in range(fn.k):
            out[r, i] = conditional_expectation(
                ctx, lambda xs, i=i: fn.grad_at(xs)[..., i], fn.indices, j, row[:j])
    return out


def conditional_value(
    ctx: GramContext,
    fn: CylindricalFunctional,
    j: int,
    prefixes: np.ndarray,
) -> np.ndarray:
    """E[F | first j coordinates] per prefix row, for separable functionals.

    Uses f(x) = f_const + sum_i diag_terms[i](x_i), so each conditional
    expectation is a one-dimensional Gaussian integral: closed form for
    `BasisMap` terms, Gauss-Hermite quadrature for other callables (exact
    for polynomial terms at the default node count).
    """
    if fn.diag_terms is None:
        raise ValueError(f"functional {fn.name!r} is not separable")
    return fn.f_const + _condition(ctx, fn, j, prefixes, fn.diag_terms).sum(axis=1)


def predictable_projection(
    ctx: GramContext,
    fn: CylindricalFunctional,
    j: int,
    prefixes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(Pi DF)_j = sum_i E[d_i f | prefix] P_j k_{t_i} for each row of
    ``prefixes`` (m rows of at least j coordinates), in factored form (G, B).

    G = `conditional_gradient` is (m, k); B is the (j, k) regression
    coefficients of X[fn.indices] on the first j coordinates (P_j k_{t_i}
    in adapted coordinates).  The coefficients over k_{t_1..t_j} are G B^T,
    and <(Pi DF)_j, h> = G (B^T (Sigma h)[:j]) costs O(m k) per element h,
    with no (m, n) table.  At j = 0, B has no rows and the projection is 0.
    """
    beta, _ = regression_coefficients(ctx, j, fn.indices)
    return conditional_gradient(ctx, fn, j, prefixes), beta


def innovation_directions(ctx: GramContext) -> np.ndarray:
    """Rows w_s = e_s - P_s k_{t_s}: each grid evaluation stripped of its
    projection onto the observed prefix.

    With X = L Z, I(w_s) is the slot-s innovation X_{t_s} - E[X_{t_s} |
    X_{t_1..t_{s-1}}] = L[s, s] Z_s, so the rows are w = diag(L) L^{-1},
    with unit diagonal (set exactly) and zeros above it.  Then w Sigma =
    diag(L) L^T is upper triangular: w_s is orthogonal to the first s
    coordinates in the energy geometry, and ||w_s||^2 = L[s, s]^2.  At
    H = 1/2 the projection is P_s k_{t_s} = k_{t_{s-1}} and these reduce to
    the raw increment directions.
    """
    w = ctx.chol_inv * np.diag(ctx.chol)[:, None]
    np.fill_diagonal(w, 1.0)
    return w


def _slot_columns(weights: np.ndarray) -> list:
    """(cols, count) per row s of ``weights``: the columns of its nonzero
    entries as a slice when they are contiguous, else as an index array
    (None when there are none)."""
    nz = weights != 0.0
    count = nz.sum(axis=1).tolist()
    first = nz.argmax(axis=1).tolist()
    span = (nz.shape[1] - nz[:, ::-1].argmax(axis=1)).tolist()
    return [(slice(f, e) if e - f == c else np.flatnonzero(row) if c else None, c)
            for row, c, f, e in zip(nz, count, first, span)]


def clark_integrand(ctx: GramContext, fn: CylindricalFunctional) -> ClarkField:
    """Predictable field u with F - E[F] ~ delta(u) (exact for linear F at
    H = 1/2 on grids containing the functional's times).

    Slot s pairs the projected increment direction w_s = k_{t_s} - P_s
    k_{t_s} with coefficient

        a_s = sum_i E[(d_i f)(X) | X_{< s}] <k_{t_i}, w_s> / ||w_s||^2,

    so a_s I(w_s) is the best prefix-measurable multiple of the slot
    innovation approximating the martingale difference E[F | X_{<= s}] -
    E[F | X_{< s}]; the L2 residual of delta(u) against F - E[F] is the
    discarded higher-order innovation energy, which vanishes under grid
    refinement.  Pairing the raw increment k_{t_s} - k_{t_{s-1}} instead
    leaves an O(1) residual for H < 1/2: the predictable part of each
    increment feeds noise back into delta.

    Every piece is read off the Cholesky factor L, with Z = L^{-1} X:

        E[X_i | X_{< s}]   = sum_{r<s} L[i, r] Z_r    (running prefix sums)
        Var[X_i | X_{< s}] = sum_{r>=s} L[i, r]^2     (tail sums; exactly 0
                                                       for observed i < s)
        <k_{t_i}, w_s> / ||w_s||^2 = L[i, s] / L[s, s].

    The field is a `ClarkField`: a predictable field in innovation
    directions has zero Skorokhod correction, so its divergence is the Ito
    sum sum_s a_s I(w_s).  ``grad_dot(paths, v)`` stays for a foreign v: it
    contracts the prefix gradient of a_s with v[s, :s].  That gradient is a
    combination of rows of L[:s, :s]^{-1}, so it annihilates (w Sigma)[s,
    :s] = 0; only v - w Sigma is contracted, which gives the same value for
    any v and exactly 0 for the field's own correction term v = w Sigma.
    w Sigma is formed on the first call.

    Both rules run one slot loop that allocates its arrays once per call:
    the (m, k) prefix means and one work area.  Slot s copies the means of
    its coordinates of nonzero weight (a slice when they are contiguous)
    into a C-contiguous block of that area and smooths them into another;
    its prefix update adds Z_s L[i, s] only where indices[i] > s, since L
    is lower triangular and no later slot reads the coordinate observed at
    s.  Every float is the one the allocating form gives.
    """
    if fn.diag is None or fn.diag_deriv is None:
        raise ValueError(
            f"functional {fn.name!r} lacks diagonal gradient maps; the Clark "
            "field needs per-coordinate conditional expectations"
        )
    chol = ctx.chol
    n = ctx.n
    rows = chol[np.asarray(fn.indices, dtype=int)]      # (k, n): L[i, :]
    tail_var = np.cumsum(rows[:, ::-1] ** 2, axis=1)[:, ::-1].T  # (n, k)
    gains = (rows / np.diag(chol)).T                   # (n, k)
    w = innovation_directions(ctx)
    smooth_diag = _smoother(fn.diag)
    smooth_deriv = _smoother(fn.diag_deriv)

    # L[indices[i], s] = 0 once indices[i] < s, and from slot s + 1 on no
    # weight reads indices[i] = s: slot s adds to the prefix means of
    # coordinates first_live[s]: alone
    first_live = np.searchsorted(fn.indices, np.arange(n), side="right").tolist()

    def slot_sums(paths, smooth, weights, incr=None):
        """out[:, s] = sum_i E[maps[i](X_i) | X_{< s}] weights[s, i], with
        only the coordinates of nonzero weight smoothed; ``incr`` is
        paths @ w.T when the caller has it."""
        # Z = L^{-1} x, row by row Z_s = I(w_s) / L[s, s], fills the output;
        # slot s overwrites Z_s once the prefix sums have taken it in.
        if incr is None:
            out = np.atleast_2d(np.asarray(paths, dtype=float)) @ w.T
            out /= np.diag(chol)
        else:
            out = incr / np.diag(chol)
        m, k = out.shape[0], fn.k
        mu = np.zeros((m, k))
        # one work area, viewed per slot as the gathered means and their
        # smoothing, each a C-contiguous (m, kc) block, and the slot's a_s
        work = np.empty(2 * m * k + m)
        gathered, smoothed, a_s = work[:m * k], work[m * k:2 * m * k], work[2 * m * k:]
        weights = np.ascontiguousarray(weights)
        for s, (cols, kc) in enumerate(_slot_columns(weights)):
            if kc:
                g = gathered[:m * kc].reshape(m, kc)
                if isinstance(cols, slice):
                    g[...] = mu[:, cols]
                else:
                    np.take(mu, cols, axis=1, out=g, mode="clip")
                np.matmul(smooth(g, tail_var[s, cols], cols,
                                 smoothed[:m * kc].reshape(m, kc)),
                          weights[s, cols], out=a_s)
            if (lo := first_live[s]) < k:
                z_l = gathered[:m * (k - lo)].reshape(m, k - lo)
                np.multiply(out[:, s, None], rows[lo:, s], out=z_l)
                mu[:, lo:] += z_l
            out[:, s] = a_s if kc else 0.0
        return out

    def coeff_fn(paths, incr=None):
        return slot_sums(paths, smooth_diag, gains, incr)

    @functools.cache
    def w_sigma():
        return w @ ctx.sigma

    def grad_dot(paths, v):
        # column s of y is L^{-1} (v - w Sigma)[s]; its entries r < s give
        # the contraction sum_{r<s} L[i, r] y[r, s] per coordinate i
        y = ctx.chol_inv @ (v - w_sigma()).T
        scal = gains * (rows @ np.triu(y, 1)).T
        if not scal.any():
            return np.zeros((np.atleast_2d(paths).shape[0], n))
        return slot_sums(paths, smooth_deriv, scal)

    return ClarkField(directions=w, coeff_fn=coeff_fn, grad_dot=grad_dot)
