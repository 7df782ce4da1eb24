"""Derivative, divergence, projections, and the martingale decomposition.

The quadratic-functional residual oracle below is derived independently of
the library: conditioning the terminal square on each slot innovation leaves
a pure second-chaos term per slot, and those terms are orthogonal, so

    E[(F - E F - delta(clark))^2] = sum_s 2 g_s^4 sigma_s^4

with sigma_s^2 the slot innovation variance and g_s the projection
coefficient of the terminal representer on the slot innovation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from roughcalc.energy import GramContext, inner_product, norm, representer
from roughcalc.errors import MissingGradientError
from roughcalc import gaussian, malliavin
from roughcalc.functionals import (CylindricalFunctional, IntegralFunctional,
                                   catalog_names,
                                   discretize_integral_functional,
                                   make_functional)
from roughcalc.gaussian import regression_coefficients, sample_ensemble
from roughcalc.malliavin import (AffineField, VectorField, affine_field,
                                 clark_integrand,
                                 conditional_gradient, conditional_value,
                                 derivative,
                                 derivative_pairing, deterministic_field,
                                 divergence, field_coefficients,
                                 field_norm_sq, increment_directions,
                                 innovation_directions,
                                 isometry_defect_affine,
                                 predictable_projection)
from roughcalc.models import CovarianceModel, TimeGrid

# frozen residuals for F = X_T^2, H = 0.25, uniform grids (module docstring
# derivation; the same numbers govern the refinement experiment)
CLARK_RESIDUAL_H025 = {
    8: 0.33252140875196395,
    16: 0.18286611532663255,
    32: 0.099852860759119755,
    64: 0.054162087810415094,
}


def make_ctx(h: float = 0.25, n: int = 8) -> GramContext:
    return GramContext.build(CovarianceModel.fbm(h), TimeGrid.uniform_grid(n))


def closed_clark_residual(ctx: GramContext) -> float:
    sig = ctx.sigma
    n = ctx.n
    total = 0.0
    for s in range(n):
        if s == 0:
            var = sig[0, 0]
            g = sig[0, n - 1] / var
        else:
            y = np.linalg.solve(sig[:s, :s], sig[:s, s])
            var = sig[s, s] - sig[:s, s] @ y
            g = (sig[s, n - 1] - y @ sig[:s, n - 1]) / var
        total += 2.0 * g**4 * var**2
    return total


def test_derivative_of_quadratic_is_scaled_representer() -> None:
    ctx = make_ctx()
    fn = make_functional("quadratic", ctx.grid)
    x = sample_ensemble(ctx, 5, seed=1).paths
    d = derivative(ctx, fn, x)
    want = np.zeros((5, ctx.n))
    want[:, -1] = 2.0 * x[:, -1]
    assert np.max(np.abs(d - want)) == 0.0


def test_derivative_requires_gradient() -> None:
    fn = CylindricalFunctional(
        name="opaque", indices=(0,), f=lambda x: x[..., 0], grad=None
    )
    ctx = make_ctx()
    paths = np.zeros((2, ctx.n))
    u = deterministic_field(np.eye(ctx.n), np.ones(ctx.n))
    with pytest.raises(MissingGradientError):
        derivative(ctx, fn, np.zeros((1, ctx.n)))
    with pytest.raises(MissingGradientError):
        derivative_pairing(ctx, fn, u, paths)
    # the coupled (non-diagonal) branch of the conditional gradient
    with pytest.raises(MissingGradientError):
        conditional_gradient(ctx, fn, 3, paths)


def test_divergence_of_state_dependent_field_requires_gradient() -> None:
    # constant coefficients get no exemption: every field needs grad_dot
    ctx = make_ctx()
    for coeff_fn in (lambda paths: paths, lambda paths: np.ones(ctx.n)):
        u = VectorField(directions=np.eye(ctx.n), coeff_fn=coeff_fn,
                        grad_dot=None)
        with pytest.raises(MissingGradientError):
            divergence(ctx, u, np.zeros((3, ctx.n)))


def test_deterministic_field_is_affine_with_zero_defect() -> None:
    ctx = make_ctx(h=0.4, n=10)
    u = deterministic_field(np.eye(ctx.n), np.arange(1.0, ctx.n + 1))
    assert isinstance(u, AffineField)
    assert np.all(u.lin == 0.0)
    assert isometry_defect_affine(ctx, u) == 0.0
    with pytest.raises(ValueError, match="const must be"):
        deterministic_field(np.eye(ctx.n), np.ones(ctx.n - 1))


def test_divergence_of_deterministic_field_is_isonormal() -> None:
    ctx = make_ctx(h=0.4, n=10)
    rng = np.random.default_rng(2)
    w = rng.normal(size=ctx.n)
    u = deterministic_field(np.eye(ctx.n), w)
    paths = sample_ensemble(ctx, 64, seed=3).paths
    assert np.max(np.abs(divergence(ctx, u, paths) - paths @ w)) <= 1e-12


def test_divergence_scales_linearly_in_field() -> None:
    ctx = make_ctx()
    rng = np.random.default_rng(5)
    w = rng.normal(size=ctx.n)
    paths = sample_ensemble(ctx, 16, seed=4).paths
    d1 = divergence(ctx, deterministic_field(np.eye(ctx.n), w), paths)
    d2 = divergence(ctx, deterministic_field(np.eye(ctx.n), 2.5 * w), paths)
    assert np.max(np.abs(d2 - 2.5 * d1)) <= 1e-12


def test_terminal_linear_divergence_identity() -> None:
    # delta(X_T k_T) = X_T^2 - Sigma_TT per path, pure coefficient algebra
    ctx = make_ctx(h=0.25, n=8)
    lin = np.zeros((ctx.n, ctx.n))
    lin[-1, -1] = 1.0
    u = affine_field(np.eye(ctx.n), np.zeros(ctx.n), lin)
    paths = sample_ensemble(ctx, 200, seed=6).paths
    got = divergence(ctx, u, paths)
    want = paths[:, -1] ** 2 - ctx.sigma[-1, -1]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_adjointness_small_scale() -> None:
    ctx = make_ctx(h=0.25, n=8)
    m = 20_000
    paths = sample_ensemble(ctx, m, seed=7).paths
    lin = np.zeros((ctx.n, ctx.n))
    lin[:, -1] = 1.0  # weights anticipate the terminal value
    u = affine_field(np.eye(ctx.n), np.zeros(ctx.n), lin)
    for name in ("quadratic", "terminal_exp"):
        fn = make_functional(name, ctx.grid)
        lhs = fn.values(paths) * divergence(ctx, u, paths)
        rhs = derivative_pairing(ctx, fn, u, paths)
        gap = lhs - rhs
        se = float(np.std(gap, ddof=1) / math.sqrt(m))
        assert abs(float(np.mean(gap))) <= 4.0 * se


def test_isometry_defect_closed_form_vs_monte_carlo() -> None:
    ctx = make_ctx(h=0.25, n=8)
    m = 40_000
    paths = sample_ensemble(ctx, m, seed=8).paths
    d = increment_directions(ctx)
    lin = np.zeros((ctx.n, ctx.n))
    lin[1:, :-1][np.diag_indices(ctx.n - 1)] = 1.0
    u = affine_field(d, np.ones(ctx.n), lin)
    delta = divergence(ctx, u, paths)
    nrm = field_norm_sq(ctx, u, paths)
    measured = float(np.mean(delta**2) - np.mean(nrm))
    se = math.hypot(
        float(np.std(delta**2, ddof=1)), float(np.std(nrm, ddof=1))
    ) / math.sqrt(m)
    assert abs(measured - isometry_defect_affine(ctx, u)) <= 4.0 * se


def test_isometry_defect_vanishes_for_bm_adapted_increments() -> None:
    ctx = GramContext.build(CovarianceModel.bm(), TimeGrid.uniform_grid(8))
    d = increment_directions(ctx)
    lin = np.zeros((ctx.n, ctx.n))
    lin[1:, :-1][np.diag_indices(ctx.n - 1)] = 1.0
    u = affine_field(d, np.ones(ctx.n), lin)
    assert abs(isometry_defect_affine(ctx, u)) <= 1e-12


def test_innovation_directions_reduce_to_increments_for_bm() -> None:
    ctx = GramContext.build(CovarianceModel.bm(), TimeGrid.uniform_grid(12))
    w = innovation_directions(ctx)
    d = increment_directions(ctx)
    assert np.max(np.abs(w - d)) <= 1e-12


def test_innovation_directions_orthogonal_to_prefix() -> None:
    ctx = make_ctx(h=0.25, n=10)
    w = innovation_directions(ctx)
    for s in range(ctx.n):
        assert w[s, s] == 1.0
        assert np.all(w[s, s + 1 :] == 0.0)
        for i in range(s):
            assert abs(inner_product(ctx, w[s], representer(ctx, i))) <= 1e-10
    for n in (256, 1024):
        ctx = make_ctx(h=0.25, n=n)
        w = innovation_directions(ctx)
        assert np.all(np.diag(w) == 1.0)
        assert np.all(np.triu(w, 1) == 0.0)
        # (w Sigma)[s, i] = <w_s, k_{t_i}> for every prefix coordinate i < s
        assert np.max(np.abs(np.tril(w @ ctx.sigma, -1))) <= 1e-10


def test_predictable_projection_batched_factored_contract() -> None:
    # (G, B): G is the conditional gradient, B the regression coefficients,
    # and row r of G B^T is the single-prefix coefficient table beta @ cond
    ctx = make_ctx(h=0.25, n=8)
    fn = make_functional("integral_sin", ctx.grid)
    paths = sample_ensemble(ctx, 6, seed=21).paths
    j = 4
    g, b = predictable_projection(ctx, fn, j, paths)
    beta, _ = regression_coefficients(ctx, j, np.array(fn.indices))
    assert np.array_equal(g, conditional_gradient(ctx, fn, j, paths))
    assert np.array_equal(b, beta)
    assert g.shape == (6, fn.k) and b.shape == (j, fn.k)
    table = g @ b.T
    for r in range(paths.shape[0]):
        want = beta @ conditional_gradient(ctx, fn, j, paths[r:r + 1, :j])[0]
        assert np.linalg.norm(table[r] - want) <= 1e-14 * np.linalg.norm(want)
    # nothing observed: B has no rows, so the projection is empty
    g0, b0 = predictable_projection(ctx, fn, 0, paths)
    assert b0.shape == (0, fn.k) and g0.shape == (6, fn.k)


def test_predictable_projection_of_coupled_functional(monkeypatch) -> None:
    # a functional without diagonal maps goes through the quadrature branch
    ctx = make_ctx(h=0.25, n=8)
    fn = CylindricalFunctional(
        name="product", indices=(2, 6), f=lambda x: x[..., 0] * x[..., 1],
        grad=lambda x: x[..., ::-1])
    calls = []
    real = malliavin.conditional_expectation
    monkeypatch.setattr(malliavin, "conditional_expectation",
                        lambda *a: calls.append(1) or real(*a))
    paths = sample_ensemble(ctx, 3, seed=22).paths
    g, b = predictable_projection(ctx, fn, 4, paths)
    assert len(calls) == 3 * fn.k
    beta, _ = regression_coefficients(ctx, 4, np.array(fn.indices))
    assert np.array_equal(b, beta)
    assert np.max(np.abs(g - (paths[:, :4] @ beta)[:, ::-1])) <= 1e-12


def test_clark_field_is_predictable() -> None:
    # slot-s coefficient must depend on the first s coordinates only
    ctx = make_ctx(h=0.25, n=6)
    fn = make_functional("terminal_exp", ctx.grid)
    field = clark_integrand(ctx, fn)
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, ctx.n))
    b = a.copy()
    s = 4
    b[:, s:] = rng.normal(size=(3, ctx.n - s))
    ca = np.asarray(field.coeff_fn(a))
    cb = np.asarray(field.coeff_fn(b))
    # slots up to s are functions of the shared prefix alone
    assert np.max(np.abs(ca[:, : s + 1] - cb[:, : s + 1])) <= 1e-12
    assert np.max(np.abs(ca[:, s + 1 :] - cb[:, s + 1 :])) > 1e-6


def test_conditional_gradient_of_coupled_functional() -> None:
    # F = X_2 X_6 has a coupled gradient (x_6, x_2), so no diagonal maps:
    # conditional_gradient integrates it by tensorized quadrature per row,
    # and the result must equal the swapped conditional means
    ctx = make_ctx(h=0.25, n=8)
    fn = CylindricalFunctional(
        name="product", indices=(2, 6), f=lambda x: x[..., 0] * x[..., 1],
        grad=lambda x: x[..., ::-1])
    assert fn.diag is None
    paths = sample_ensemble(ctx, 5, seed=20).paths
    for j in (0, 3, 7, 8):
        beta, _ = regression_coefficients(ctx, j, np.array(fn.indices))
        want = (paths[:, :j] @ beta)[:, ::-1]
        got = conditional_gradient(ctx, fn, j, paths)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_clark_exact_for_brownian_linear() -> None:
    ctx = GramContext.build(CovarianceModel.bm(), TimeGrid.uniform_grid(8))
    fn = make_functional("linear", ctx.grid)
    field = clark_integrand(ctx, fn)
    paths = sample_ensemble(ctx, 2_000, seed=10).paths
    delta = divergence(ctx, field, paths)
    mean = conditional_value(ctx, fn, 0, np.zeros((1, ctx.n)))[0]
    resid = fn.values(paths) - mean - delta
    assert float(np.max(resid**2)) <= 1e-20


def test_clark_correction_is_exactly_zero() -> None:
    # each innovation is orthogonal to its prefix, so the divergence
    # correction of the Clark field vanishes identically
    for name in ("quadratic", "integral_sin", "terminal_exp"):
        ctx = make_ctx(h=0.25, n=16)
        fn = make_functional(name, ctx.grid)
        field = clark_integrand(ctx, fn)
        paths = sample_ensemble(ctx, 50, seed=15).paths
        corr = field.grad_dot(paths, field.directions @ ctx.sigma)
        assert corr.shape == (50, ctx.n)
        assert np.all(corr == 0.0)


def test_closed_clark_residual_matches_frozen_values() -> None:
    for n, want in CLARK_RESIDUAL_H025.items():
        got = closed_clark_residual(make_ctx(h=0.25, n=n))
        assert got == pytest.approx(want, rel=1e-9)
    # Brownian cross-check: the closed form collapses to 2/n
    for n in (8, 32):
        ctx = GramContext.build(CovarianceModel.bm(), TimeGrid.uniform_grid(n))
        assert closed_clark_residual(ctx) == pytest.approx(2.0 / n, rel=1e-12)


def test_clark_residual_matches_oracle_quarter_hurst() -> None:
    m = 20_000
    for n in (8, 16):
        ctx = make_ctx(h=0.25, n=n)
        fn = make_functional("quadratic", ctx.grid)
        field = clark_integrand(ctx, fn)
        paths = sample_ensemble(ctx, m, seed=11).paths
        delta = divergence(ctx, field, paths)
        mean = conditional_value(ctx, fn, 0, np.zeros((1, ctx.n)))[0]
        r2 = (fn.values(paths) - mean - delta) ** 2
        est = float(np.mean(r2))
        se = float(np.std(r2, ddof=1) / math.sqrt(m))
        assert abs(est - CLARK_RESIDUAL_H025[n]) <= 4.0 * se


def test_field_norm_of_deterministic_element() -> None:
    ctx = make_ctx()
    rng = np.random.default_rng(12)
    w = rng.normal(size=ctx.n)
    u = deterministic_field(np.eye(ctx.n), w)
    paths = sample_ensemble(ctx, 7, seed=13).paths
    got = field_norm_sq(ctx, u, paths)
    assert got.shape == (7,)
    assert np.max(np.abs(got - norm(ctx, w) ** 2)) <= 1e-12
    coeffs = field_coefficients(u, paths)
    assert np.max(np.abs(coeffs - w)) <= 1e-15


def test_conditional_value_interpolates_between_mean_and_value() -> None:
    ctx = make_ctx(h=0.25, n=8)
    fn = make_functional("quadratic", ctx.grid)
    paths = sample_ensemble(ctx, 9, seed=14).paths
    full = conditional_value(ctx, fn, ctx.n, paths)
    assert np.max(np.abs(full - fn.values(paths))) <= 1e-10
    nothing = conditional_value(ctx, fn, 0, paths)
    assert np.max(np.abs(nothing - ctx.sigma[-1, -1])) <= 1e-10


def test_catalog_functionals_need_no_quadrature(monkeypatch) -> None:
    def no_quadrature(*args, **kwargs):
        raise AssertionError("catalog maps must be smoothed in closed form")

    monkeypatch.setattr(gaussian, "expect_scalar", no_quadrature)
    monkeypatch.setattr(malliavin, "expect_scalar", no_quadrature)
    ctx = make_ctx(h=0.25, n=8)
    paths = sample_ensemble(ctx, 20, seed=16).paths
    v = np.random.default_rng(17).normal(size=(ctx.n, ctx.n))
    for name in catalog_names():
        fn = make_functional(name, ctx.grid)
        field = clark_integrand(ctx, fn)
        assert np.all(np.isfinite(field.coeff_fn(paths)))
        assert np.all(np.isfinite(field.grad_dot(paths, v)))
        for j in (0, 3, ctx.n):
            assert np.all(np.isfinite(conditional_value(ctx, fn, j, paths)))
            assert np.all(np.isfinite(conditional_gradient(ctx, fn, j, paths)))


def test_quadrature_path_matches_closed_form_clark(monkeypatch) -> None:
    # the same integral functional from plain callables integrates by
    # Gauss-Hermite; its Clark field must agree with the catalog's
    calls = []
    real = malliavin.expect_scalar

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(malliavin, "expect_scalar", counted)
    ctx = make_ctx(h=0.25, n=16)
    plain = discretize_integral_functional(
        IntegralFunctional(name="plain_sin",
                           g=lambda s, x: np.sin(x),
                           dx_g=lambda s, x: np.cos(x),
                           dxx_g=lambda s, x: -np.sin(x)),
        ctx.grid)
    catalog = make_functional("integral_sin", ctx.grid)
    paths = sample_ensemble(ctx, 200, seed=18).paths
    v = np.random.default_rng(19).normal(size=(ctx.n, ctx.n))
    f_plain = clark_integrand(ctx, plain)
    f_catalog = clark_integrand(ctx, catalog)
    assert np.max(np.abs(f_plain.coeff_fn(paths) - f_catalog.coeff_fn(paths))) <= 1e-12
    assert calls
    assert np.max(np.abs(f_plain.grad_dot(paths, v)
                         - f_catalog.grad_dot(paths, v))) <= 1e-12
