"""Smooth functionals of finitely many path values, and a named catalog.

A cylindrical functional is F = f(X_{t_{i_1}}, ..., X_{t_{i_k}}) with smooth
f; its Malliavin derivative is the energy-space element

    DF = sum_i (d_i f)(X) * k_{t_i},

i.e. gradient components placed at the representer indices.  Integral
functionals F = int_0^T g(s, X_s) ds reduce to cylindrical ones by
trapezoid quadrature over the grid (the pinned node at time 0 contributes a
constant).

Every catalog entry is separable, f(x) = f_const + sum_i h_i(x_i), so its
gradient is *diagonal*: component i depends on x_i alone.  That structure is
what makes predictable projections cheap (each conditional expectation is
one-dimensional).  Each h_i is a `BasisMap`, a combination of 1, v, v^2,
sin v, cos v and e^v; its derivatives and its Gaussian smoothings
E[h(mu + sigma Z)] are read off the coefficients in closed form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, MissingGradientError
from .models import TimeGrid

__all__ = [
    "BasisMap",
    "smooth_basis",
    "CylindricalFunctional",
    "IntegralFunctional",
    "discretize_integral_functional",
    "gradient_check",
    "catalog_names",
    "make_functional",
]


# Coefficient order of a BasisMap: 1, v, v^2, sin v, cos v, e^v.
_BASIS = ("const", "v", "v2", "sin", "cos", "exp")

# d/dv maps coefficients c to _DERIV @ c: 1' = 0, v' = 1, (v^2)' = 2v,
# sin' = cos, cos' = -sin, exp' = exp.
_DERIV = np.array([
    [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 2.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
])


def smooth_basis(table, mu, var) -> np.ndarray:
    """E[h(mu + sqrt(var) Z)], Z ~ N(0, 1), for maps h given by coefficients.

    ``table`` holds coefficients along its last axis (length 6, in the
    order 1, v, v^2, sin v, cos v, e^v); its leading axes broadcast against
    ``mu`` and ``var``.  A (k, 6) table with mu of shape (m, k) and var of
    shape (k,) smooths k maps, one per column, in one call.  The closed form
    is, per basis element,

        [1, mu, mu^2 + var, e^{-var/2} sin mu, e^{-var/2} cos mu,
         e^{mu + var/2}],

    and var = 0 gives h(mu) itself.  Basis elements with all-zero
    coefficients are skipped.
    """
    c = np.moveaxis(np.asarray(table, dtype=float), -1, 0)
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    out = np.zeros(np.broadcast_shapes(c.shape[1:], mu.shape, var.shape))
    if c[0].any():
        out += c[0]
    if c[1].any():
        out += c[1] * mu
    if c[2].any():
        out += c[2] * (mu * mu + var)
    if c[3].any() or c[4].any():
        damp = np.exp(-0.5 * var)
        if c[3].any():
            out += (c[3] * damp) * np.sin(mu)
        if c[4].any():
            out += (c[4] * damp) * np.cos(mu)
    if c[5].any():
        out += c[5] * np.exp(mu + 0.5 * var)
    return out


class BasisMap:
    """Scalar map h(v) = sum_b coeffs[b] basis_b(v) over the basis
    (1, v, v^2, sin v, cos v, e^v), evaluated elementwise.

    Callable like any per-coordinate map; ``deriv`` is exact and reads
    only the coefficients, and `smooth_basis` of ``coeffs`` is the map's
    Gaussian smoothing in closed form.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape != (len(_BASIS),):
            raise ValueError(f"need {len(_BASIS)} coefficients {_BASIS}, "
                             f"got shape {coeffs.shape}")
        coeffs.setflags(write=False)
        self.coeffs = coeffs

    @classmethod
    def of(cls, **terms: float) -> "BasisMap":
        """Build from named coefficients, e.g. ``BasisMap.of(sin=0.5)``."""
        unknown = set(terms) - set(_BASIS)
        if unknown:
            raise ValueError(f"unknown basis names {sorted(unknown)}; known: {_BASIS}")
        return cls([terms.get(b, 0.0) for b in _BASIS])

    def __call__(self, v) -> np.ndarray:
        return smooth_basis(self.coeffs, v, 0.0)

    def deriv(self) -> "BasisMap":
        return BasisMap(_DERIV @ self.coeffs)


@dataclass(frozen=True)
class CylindricalFunctional:
    """f over the path values at ``indices`` (0-based grid positions).

    ``f`` maps (..., k) -> (...); ``grad`` maps (..., k) -> (..., k).
    When the gradient is diagonal, ``diag[i]`` is the scalar map with
    (d_i f)(x) = diag[i](x_i) and ``diag_deriv[i]`` its derivative; both are
    None for genuinely coupled gradients.  Separable functionals
    additionally record f(x) = f_const + sum_i diag_terms[i](x_i), which is
    what makes exact conditional means of F itself cheap.  Maps that are
    `BasisMap` instances are smoothed in closed form; any other callable
    is integrated by Gauss-Hermite quadrature.
    """

    name: str
    indices: tuple[int, ...]
    f: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    diag: tuple[Callable, ...] | None = None
    diag_deriv: tuple[Callable, ...] | None = None
    diag_terms: tuple[Callable, ...] | None = None
    f_const: float = 0.0

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValueError("functional needs at least one grid index")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("indices must be strictly increasing")
        for maps in (self.diag, self.diag_deriv, self.diag_terms):
            if maps is not None and len(maps) != len(self.indices):
                raise ValueError("per-coordinate maps must match the index count")

    @property
    def k(self) -> int:
        return len(self.indices)

    def values(self, paths: np.ndarray) -> np.ndarray:
        """F per row of an (m, N) path matrix (or a single (N,) path)."""
        x = np.asarray(paths, dtype=float)[..., list(self.indices)]
        return np.asarray(self.f(x), dtype=float)

    def gradient(self, paths: np.ndarray) -> np.ndarray:
        """(d_1 f, ..., d_k f) at the selected coordinates, shape (..., k)."""
        return self.grad_at(np.asarray(paths, dtype=float)[..., list(self.indices)])

    def grad_at(self, x: np.ndarray) -> np.ndarray:
        """(d_1 f, ..., d_k f) at coordinate values x of shape (..., k).

        Raises MissingGradientError when the functional has no ``grad``.
        """
        if self.grad is None:
            raise MissingGradientError(
                f"functional {self.name!r} carries no gradient rule")
        return np.asarray(self.grad(x), dtype=float)


@dataclass(frozen=True)
class IntegralFunctional:
    """F = int_0^T g(s, X_s) ds with smooth integrand g.

    dx_g and dxx_g are the first and second partials in the space argument.
    """

    name: str
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dx_g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dxx_g: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _trapezoid_weights(grid: TimeGrid) -> tuple[float, np.ndarray]:
    """Trapezoid weights over the nodes {0, t_1, ..., t_N}: the weight of
    the pinned time-0 node, and the (N,) weights of the grid times."""
    nodes = np.concatenate(([0.0], grid.times))
    w_all = np.empty(nodes.size)
    w_all[0] = 0.5 * (nodes[1] - nodes[0])
    w_all[-1] = 0.5 * (nodes[-1] - nodes[-2])
    if nodes.size > 2:
        w_all[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    return float(w_all[0]), w_all[1:]


def discretize_integral_functional(
    fn: IntegralFunctional, grid: TimeGrid
) -> CylindricalFunctional:
    """Trapezoid reduction onto the full grid.

    Nodes are {0, t_1, ..., t_N}; the time-0 node is pinned at X_0 = 0 and
    contributes the constant w_0 * g(0, 0).  The result is a cylindrical
    functional over all N grid indices with diagonal gradient
    d_i f(x) = w_i * dx_g(t_i, x_i).
    """
    w0, w = _trapezoid_weights(grid)
    const = w0 * float(fn.g(0.0, 0.0))
    times = grid.times.copy()
    n = times.size

    def f(x):
        return const + np.asarray(fn.g(times, x)) @ w

    def grad(x):
        return w * np.asarray(fn.dx_g(times, x))

    def _diag(i):
        ti, wi = float(times[i]), float(w[i])
        return (
            lambda x: wi * fn.dx_g(ti, x),
            lambda x: wi * fn.dxx_g(ti, x),
            lambda x: wi * fn.g(ti, x),
        )

    triples = [_diag(i) for i in range(n)]
    return CylindricalFunctional(
        name=fn.name,
        indices=tuple(range(n)),
        f=f,
        grad=grad,
        diag=tuple(p[0] for p in triples),
        diag_deriv=tuple(p[1] for p in triples),
        diag_terms=tuple(p[2] for p in triples),
        f_const=const,
    )


# Central-difference step and the half-width of the box of test points.
_FD_STEP = 1e-5
_FD_BOX = 3.0


def gradient_check(fn: CylindricalFunctional, points: int = 100, seed: int = 0) -> float:
    """Max relative error of ``grad`` against central differences.

    Points are drawn uniformly from [-_FD_BOX, _FD_BOX]^k.  Relative scaling
    uses max(1, |analytic|) per component so near-zero gradient entries are
    compared absolutely.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-_FD_BOX, _FD_BOX, size=(points, fn.k))
    analytic = fn.grad_at(x)
    worst = 0.0
    for i in range(fn.k):
        hi = x.copy()
        lo = x.copy()
        hi[:, i] += _FD_STEP
        lo[:, i] -= _FD_STEP
        fd = (np.asarray(fn.f(hi)) - np.asarray(fn.f(lo))) / (2.0 * _FD_STEP)
        err = np.abs(fd - analytic[:, i]) / np.maximum(1.0, np.abs(analytic[:, i]))
        worst = max(worst, float(err.max()))
    return worst


# --- catalog ---------------------------------------------------------------

_CATALOG = ("quadratic", "two_time", "integral_sin", "integral_square",
            "linear", "terminal_exp")

_LINEAR_FRACTIONS = (0.25, 0.5, 1.0)
_LINEAR_COEFFS = (1.0, -2.0, 1.5)


def catalog_names() -> tuple[str, ...]:
    return _CATALOG


def _snap_indices(name: str, grid: TimeGrid, *fractions: float) -> tuple[int, ...]:
    """Nearest grid index of each catalog time, a fraction of the horizon.
    Times that snap to one grid point make a config error, raised before
    any off-grid time warns."""
    times = [frac * grid.horizon for frac in fractions]
    indices = tuple(grid.index_of(t) for t in times)
    if len(set(indices)) != len(indices):
        raise ConfigError(f"grid too coarse to separate the {name} functional's times")
    for i, t in zip(indices, times):
        if abs(grid.times[i] - t) > 1e-12 * max(1.0, abs(t)):
            warnings.warn(
                f"time {t} is off-grid; snapped to nearest grid point {grid.times[i]}",
                stacklevel=3,
            )
    return indices


def _separable(name: str, indices, terms, f_const: float = 0.0) -> CylindricalFunctional:
    """f(x) = f_const + sum_i terms[i](x_i) for BasisMap terms; the value,
    the gradient and the diagonal maps are all read off their coefficients."""
    table = np.array([t.coeffs for t in terms])  # (k, 6)
    grad_table = table @ _DERIV.T
    diag = tuple(t.deriv() for t in terms)
    return CylindricalFunctional(
        name=name,
        indices=tuple(indices),
        f=lambda x: f_const + smooth_basis(table, x, 0.0).sum(axis=-1),
        grad=lambda x: smooth_basis(grad_table, x, 0.0),
        diag=diag,
        diag_deriv=tuple(d.deriv() for d in diag),
        diag_terms=tuple(terms),
        f_const=f_const,
    )


def make_functional(name: str, grid: TimeGrid) -> CylindricalFunctional:
    """Instantiate a catalog functional on a concrete grid.

    Reference times are fractions of the horizon; off-grid times snap to the
    nearest grid point with a warning.  The integral entries are the
    trapezoid reduction of `discretize_integral_functional`.
    """
    if name == "quadratic":
        return _separable(name, _snap_indices(name, grid, 1.0), (BasisMap.of(v2=1.0),))
    if name == "two_time":
        idx = _snap_indices(name, grid, 0.5, 1.0)
        return _separable(name, idx, (BasisMap.of(sin=1.0), BasisMap.of(cos=1.0)))
    if name == "linear":
        idx = _snap_indices(name, grid, *_LINEAR_FRACTIONS)
        return _separable(name, idx, tuple(BasisMap.of(v=c) for c in _LINEAR_COEFFS))
    if name == "terminal_exp":
        return _separable(name, _snap_indices(name, grid, 1.0), (BasisMap.of(exp=1.0),))
    if name in ("integral_sin", "integral_square"):
        g = BasisMap.of(sin=1.0) if name == "integral_sin" else BasisMap.of(v2=1.0)
        w0, w = _trapezoid_weights(grid)
        return _separable(name, range(grid.n),
                          tuple(BasisMap(wi * g.coeffs) for wi in w),
                          f_const=w0 * float(g(0.0)))
    raise KeyError(f"unknown functional {name!r}; known: {', '.join(_CATALOG)}")
