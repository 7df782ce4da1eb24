"""Covariance models, Gram assembly, and the increment identity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughcalc.models import (JITTER_LADDER, CovarianceModel, TimeGrid,
                              build_gram, covariance, increment_variance,
                              jittered_cholesky)


def ref_fbm_cov(h: float, s: float, t: float) -> float:
    return 0.5 * (t ** (2 * h) + s ** (2 * h) - abs(t - s) ** (2 * h))


def test_bm_gram_on_two_point_grid() -> None:
    grid = TimeGrid(np.array([0.5, 1.0]), horizon=1.0)
    ctx = build_gram(CovarianceModel.bm(), grid)
    assert np.allclose(ctx.sigma, [[0.5, 0.5], [0.5, 1.0]], atol=0.0)


def test_fbm_single_point_gram_is_t_power() -> None:
    grid = TimeGrid(np.array([1.0]), horizon=1.0)
    ctx = build_gram(CovarianceModel.fbm(0.25), grid)
    assert ctx.sigma.shape == (1, 1)
    assert ctx.sigma[0, 0] == pytest.approx(1.0, abs=1e-15)


def _grids():
    rng = np.random.default_rng(3)
    yield TimeGrid.uniform_grid(1)
    yield TimeGrid.uniform_grid(64, horizon=2.5)
    yield TimeGrid.uniform_grid(1024)
    yield TimeGrid(np.array([0.5, 0.5 + 1e-12, 1.0]), horizon=1.0)
    yield TimeGrid(np.unique(rng.uniform(1e-3, 1.0, size=200)), horizon=1.0)


def test_bm_and_fbm_covariance_are_bitwise_the_pure_formulas() -> None:
    # the one weighted expression adds an exact 0 for the zero-weight term
    for grid in _grids():
        t, s = grid.times[:, None], grid.times[None, :]
        assert np.array_equal(covariance(CovarianceModel.bm(), t, s), np.minimum(t, s))
        for h in (0.05, 0.25, 0.5, 0.75, 0.95):
            want = 0.5 * (t ** (2 * h) + s ** (2 * h) - np.abs(t - s) ** (2 * h))
            assert np.array_equal(covariance(CovarianceModel.fbm(h), t, s), want)
    assert covariance(CovarianceModel.bm(), 0.3, 0.7) == 0.3
    assert covariance(CovarianceModel.fbm(0.3), 0.4, 0.9) == ref_fbm_cov(0.3, 0.4, 0.9)


def test_fbm_covariance_matches_reference_formula() -> None:
    model = CovarianceModel.fbm(0.25)
    assert covariance(model, 0.7, 0.3) == pytest.approx(
        0.37596352600278288, abs=1e-16
    )
    assert covariance(model, 0.3, 0.7) == pytest.approx(
        ref_fbm_cov(0.25, 0.3, 0.7), abs=1e-16
    )


def test_fbm_half_reduces_to_bm_gram() -> None:
    grid = TimeGrid.uniform_grid(16)
    s_f = build_gram(CovarianceModel.fbm(0.5), grid).sigma
    s_b = build_gram(CovarianceModel.bm(), grid).sigma
    assert np.max(np.abs(s_f - s_b)) <= 1e-14


def test_increment_variance_examples() -> None:
    assert increment_variance(CovarianceModel.fbm(0.25), 0.5, 0.75) == pytest.approx(
        0.5, abs=1e-14
    )
    assert increment_variance(CovarianceModel.bm(), 0.25, 1.0) == pytest.approx(
        0.75, abs=1e-14
    )
    assert increment_variance(CovarianceModel.fbm(0.3), 0.4, 0.4) == 0.0


def test_increment_variance_rejects_reversed_times() -> None:
    with pytest.raises(ValueError):
        increment_variance(CovarianceModel.bm(), 1.0, 0.5)


@given(
    h=st.floats(0.05, 0.95),
    a=st.floats(0.0, 2.0),
    b=st.floats(0.0, 2.0),
)
@settings(max_examples=200, deadline=None)
def test_increment_identity_property(h: float, a: float, b: float) -> None:
    s, t = min(a, b), max(a, b)
    got = increment_variance(CovarianceModel.fbm(h), s, t)
    want = (t - s) ** (2 * h)
    assert abs(got - want) <= 1e-12 * max(1.0, want)


@given(
    h=st.floats(0.05, 0.95),
    s=st.floats(0.01, 2.0),
    t=st.floats(0.01, 2.0),
)
@settings(max_examples=200, deadline=None)
def test_covariance_symmetry(h: float, s: float, t: float) -> None:
    model = CovarianceModel.fbm(h)
    assert covariance(model, s, t) == covariance(model, t, s)


def test_mixed_covariance_is_weighted_sum() -> None:
    model = CovarianceModel(alpha=0.7, beta=1.3, hurst=0.25)
    s, t = 0.3, 0.8
    want = 0.7**2 * min(s, t) + 1.3**2 * ref_fbm_cov(0.25, s, t)
    assert covariance(model, s, t) == pytest.approx(want, rel=1e-15)


def test_hurst_validation() -> None:
    with pytest.raises(ValueError):
        CovarianceModel.fbm(0.0)
    with pytest.raises(ValueError):
        CovarianceModel.fbm(1.0)
    with pytest.raises(ValueError):
        CovarianceModel.fbm(-0.25)


@pytest.mark.parametrize("alpha, beta", [
    (-0.5, 1.0), (0.0, 0.0), (float("inf"), 1.0), (1.0, float("nan")),
    # finite, but alpha^2 overflows
    (1e200, 1.0),
    # ints whose square, or whose float conversion, overflows
    pytest.param(10**155, 1, id="int-square-overflows"),
    pytest.param(1, 10**400, id="int-beyond-float"),
])
def test_weight_validation(alpha: float, beta: float) -> None:
    with pytest.raises(ValueError):
        CovarianceModel(alpha, beta, 0.25)


def test_weights_are_stored_as_floats() -> None:
    model = CovarianceModel(1, 0, 0.5)
    assert (model.alpha, model.beta, model.hurst) == (1.0, 0.0, 0.5)
    assert all(type(w) is float for w in (model.alpha, model.beta))


@pytest.mark.filterwarnings("error")
def test_grid_rejects_zero_and_disorder() -> None:
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5]), horizon=1.0)
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.5, 0.25]), horizon=1.0)
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.5, 1.5]), horizon=1.0)
    # non-finite times and horizons, and horizons that are not positive
    for times, horizon in (([0.5, np.nan], 1.0), ([np.nan, 0.5], 1.0),
                           ([0.5, np.inf], np.inf), ([0.5], np.nan),
                           ([0.5], 0.0), ([0.5], -1.0)):
        with pytest.raises(ValueError):
            TimeGrid(np.array(times), horizon=horizon)
    # rejected before linspace, which would warn on the infinite horizon
    with pytest.raises(ValueError, match="horizon"):
        TimeGrid.uniform_grid(4, float("inf"))


def test_uniform_grid_detection() -> None:
    assert TimeGrid.uniform_grid(8).uniform
    assert not TimeGrid(np.array([0.1, 0.5, 1.0]), horizon=1.0).uniform


def test_jitter_ladder_factors_rank_deficient_psd() -> None:
    # rank 1: the bare factorization meets an exactly zero pivot, the first
    # rung of the ladder factors it; an indefinite matrix exhausts the ladder
    v = np.array([1.0, 2.0, -1.0])
    a = np.outer(v, v)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(a)
    chol, jitter = jittered_cholesky(a)
    assert jitter == JITTER_LADDER[0] * np.mean(np.diag(a))
    assert np.max(np.abs(chol @ chol.T - a - jitter * np.eye(3))) <= 1e-12
    assert jittered_cholesky(-np.eye(2)) is None


def test_gram_psd_with_bounded_jitter() -> None:
    rng = np.random.default_rng(7)
    for h in (0.1, 0.25, 0.4, 0.5, 0.75):
        n = int(rng.integers(2, 64))
        times = np.sort(rng.uniform(0.01, 1.0, size=n))
        times = np.unique(times)
        grid = TimeGrid(times, horizon=1.0)
        ctx = build_gram(CovarianceModel.fbm(h), grid)
        assert ctx.jitter <= 1e-8 * np.mean(np.diag(ctx.sigma))
        # the factor reproduces the operative (jitter-included) sigma
        assert np.max(np.abs(ctx.chol @ ctx.chol.T - ctx.sigma)) <= 1e-10


def test_operative_sigma_includes_fired_jitter() -> None:
    # two times 1e-12 apart make the bare Gram numerically singular
    grid = TimeGrid(np.array([0.5, 0.5 + 1e-12, 1.0]), horizon=1.0)
    model = CovarianceModel.fbm(0.75)
    ctx = build_gram(model, grid)
    raw = covariance(model, grid.times[:, None], grid.times[None, :])
    assert ctx.jitter == JITTER_LADDER[0] * np.mean(np.diag(raw))
    assert 5e-13 < ctx.jitter < 6e-13
    assert np.array_equal(ctx.sigma, raw + ctx.jitter * np.eye(3))
    assert np.max(np.abs(ctx.chol @ ctx.chol.T - ctx.sigma)) <= 1e-15


_INVERSE_MODELS = (CovarianceModel.bm(), CovarianceModel.fbm(0.25),
                   CovarianceModel(1.0, 1.0, 0.25))


def _rel_max(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("n", [8, 64, 1024])
@pytest.mark.parametrize("model", _INVERSE_MODELS)
def test_chol_inv_matches_triangular_solve(model: CovarianceModel, n: int) -> None:
    from scipy.linalg import solve_triangular

    ctx = build_gram(model, TimeGrid.uniform_grid(n))
    want = solve_triangular(ctx.chol, np.eye(n), lower=True)
    assert _rel_max(ctx.chol_inv, want) <= 1e-12


def test_chol_inv_is_lower_triangular_read_only_and_cached() -> None:
    ctx = build_gram(CovarianceModel.fbm(0.25), TimeGrid.uniform_grid(64))
    inv = ctx.chol_inv
    assert inv is ctx.chol_inv
    assert not inv.flags.writeable
    assert np.all(inv[np.triu_indices(64, 1)] == 0.0)


@pytest.mark.parametrize("model", _INVERSE_MODELS)
def test_leading_solves_match_two_triangular_solves(model: CovarianceModel) -> None:
    from scipy.linalg import solve_triangular

    from roughcalc.gaussian import regression_coefficients

    ctx = build_gram(model, TimeGrid.uniform_grid(64))
    rng = np.random.default_rng(11)
    idx = np.array([0, 5, 40, 63])
    for j in (1, 7, 32, 64):
        block = ctx.chol[:j, :j]
        rhs = rng.normal(size=(j, 3))
        half = solve_triangular(block, rhs, lower=True)
        want = solve_triangular(block, half, lower=True, trans="T")
        assert _rel_max(ctx.solve_leading(j, rhs), want) <= 1e-12
        beta, _ = regression_coefficients(ctx, j, idx)
        want = solve_triangular(block, ctx.chol[idx, :j].T, lower=True, trans="T")
        assert _rel_max(beta, want) <= 1e-12
