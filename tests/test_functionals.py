"""Cylindrical functional catalog: values, gradients, discretization."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from roughcalc.energy import GramContext
from roughcalc.functionals import (BasisMap, CylindricalFunctional,
                                   IntegralFunctional, catalog_names,
                                   discretize_integral_functional,
                                   gradient_check, make_functional,
                                   smooth_basis)
from roughcalc.gaussian import expect_scalar
from roughcalc.malliavin import conditional_value
from roughcalc.models import CovarianceModel, TimeGrid


GRID = TimeGrid.uniform_grid(16)


def test_catalog_contents() -> None:
    assert catalog_names() == (
        "quadratic",
        "two_time",
        "integral_sin",
        "integral_square",
        "linear",
        "terminal_exp",
    )


def test_unknown_name_raises() -> None:
    with pytest.raises(KeyError):
        make_functional("cubic", GRID)


@pytest.mark.parametrize("name", catalog_names())
def test_gradients_match_finite_differences(name: str) -> None:
    fn = make_functional(name, GRID)
    assert gradient_check(fn, points=50, seed=1) <= 1e-4


def test_quadratic_is_terminal_square() -> None:
    fn = make_functional("quadratic", GRID)
    assert fn.indices == (15,)
    paths = np.zeros((3, 16))
    paths[:, 15] = [1.0, -2.0, 0.5]
    assert np.allclose(fn.values(paths), [1.0, 4.0, 0.25], atol=0.0)
    assert np.allclose(fn.gradient(paths)[:, 0], [2.0, -4.0, 1.0], atol=0.0)


def test_two_time_value_and_indices() -> None:
    fn = make_functional("two_time", GRID)
    assert fn.indices == (7, 15)
    x = np.zeros((1, 16))
    x[0, 7], x[0, 15] = 0.3, -0.4
    assert fn.values(x)[0] == pytest.approx(math.sin(0.3) + math.cos(-0.4))


def test_linear_combination_and_coarse_grid_rejection() -> None:
    fn = make_functional("linear", GRID)
    x = np.zeros((1, 16))
    x[0, 3], x[0, 7], x[0, 15] = 1.0, 1.0, 1.0  # times 0.25, 0.5, 1.0
    assert fn.values(x)[0] == pytest.approx(1.0 - 2.0 + 1.5)
    # the times are found inseparable before any of them warns off-grid
    with pytest.raises(ValueError), warnings.catch_warnings():
        warnings.simplefilter("error")
        make_functional("linear", TimeGrid.uniform_grid(2))


def test_off_grid_times_snap_with_warning() -> None:
    grid = TimeGrid.uniform_grid(6)  # 0.25 is not a multiple of 1/6
    with pytest.warns(UserWarning):
        make_functional("linear", grid)


def test_integral_square_trapezoid_value() -> None:
    grid = TimeGrid.uniform_grid(8)
    fn = make_functional("integral_square", grid)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 8))
    # independent trapezoid over {0, t_1, ..., t_8} with X_0 = 0
    xs = np.concatenate([np.zeros((5, 1)), x], axis=1) ** 2
    want = np.trapezoid(xs, dx=1.0 / 8.0, axis=1)
    assert np.max(np.abs(fn.values(x) - want)) <= 1e-14


def test_integral_square_expectation_fbm_quarter() -> None:
    # frozen value of sum_i w_i t_i^{2H} on the 8-point grid at H = 0.25
    grid = TimeGrid.uniform_grid(8)
    ctx = GramContext.build(CovarianceModel.fbm(0.25), grid)
    fn = make_functional("integral_square", grid)
    got = conditional_value(ctx, fn, 0, np.zeros((1, 8)))[0]
    assert got == pytest.approx(0.65813022162445434, abs=1e-12)


def test_integral_sin_expectation_vanishes() -> None:
    grid = TimeGrid.uniform_grid(8)
    ctx = GramContext.build(CovarianceModel.fbm(0.25), grid)
    fn = make_functional("integral_sin", grid)
    got = conditional_value(ctx, fn, 0, np.zeros((1, 8)))[0]
    assert abs(got) <= 1e-12


def test_discretize_weights_sum_to_horizon() -> None:
    grid = TimeGrid(np.array([0.2, 0.3, 0.7, 1.0]), horizon=1.0)
    fn = discretize_integral_functional(
        IntegralFunctional(
            name="mass",
            g=lambda s, x: np.ones_like(np.asarray(x, dtype=float)),
            dx_g=lambda s, x: np.zeros_like(np.asarray(x, dtype=float)),
            dxx_g=lambda s, x: np.zeros_like(np.asarray(x, dtype=float)),
        ),
        grid,
    )
    x = np.zeros((1, 4))
    assert fn.values(x)[0] == pytest.approx(1.0, abs=1e-14)


def test_separable_decomposition_consistent() -> None:
    # f(x) must equal f_const + sum of diag_terms for every catalog entry
    rng = np.random.default_rng(8)
    for name in catalog_names():
        fn = make_functional(name, GRID)
        x = rng.normal(size=(6, 16))
        sel = x[:, list(fn.indices)]
        total = np.full(6, fn.f_const)
        for i, term in enumerate(fn.diag_terms):
            total = total + np.asarray(term(sel[:, i]))
        assert np.max(np.abs(fn.values(x) - total)) <= 1e-12, name


def test_diag_derivatives_consistent_with_gradient() -> None:
    rng = np.random.default_rng(9)
    for name in catalog_names():
        fn = make_functional(name, GRID)
        x = rng.normal(size=(4, 16))
        sel = x[:, list(fn.indices)]
        g = fn.gradient(x)
        for i, d in enumerate(fn.diag):
            assert np.max(np.abs(np.asarray(d(sel[:, i])) - g[:, i])) <= 1e-12, name


@pytest.mark.parametrize("basis", range(6))
def test_basis_derivative_matches_finite_differences(basis: int) -> None:
    h = BasisMap(np.eye(6)[basis])
    x = np.linspace(-2.0, 2.0, 11)
    step = 1e-6
    fd = (h(x + step) - h(x - step)) / (2.0 * step)
    assert np.max(np.abs(h.deriv()(x) - fd)) <= 1e-7


@pytest.mark.parametrize("name", catalog_names())
def test_closed_form_smoothing_matches_quadrature(name: str) -> None:
    # E[h(mu + sd Z)] in closed form against 32-node Gauss-Hermite, for the
    # value terms, the gradient maps and their derivatives; sd = 0 included
    fn = make_functional(name, GRID)
    mu = np.linspace(-2.0, 2.0, 9)
    for maps in (fn.diag_terms, fn.diag, fn.diag_deriv):
        for h in maps:
            assert isinstance(h, BasisMap)
            for sd in (0.0, 0.05, 0.5, 1.0):
                want = expect_scalar(h, mu, sd)
                got = smooth_basis(h.coeffs, mu, sd**2)
                assert np.max(np.abs(got - want)) <= 1e-12, name
