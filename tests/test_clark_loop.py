"""The Clark slot loop and the closed-form smoothing it runs, against
reference copies of the earlier allocating forms.

The reference loop smooths a fancy-indexed copy of every slot's prefix
means and updates all k of them each slot; the reference smoothing adds
every live basis term into a zero-filled output.  The loop in
`malliavin.clark_integrand` writes into reused buffers and updates only the
coordinates still live at the slot, and must give the same floats, bit for
bit.  So must the Clark field's own divergence rule, its Ito sum formed
inside one increment table, against the generic divergence with its
correction term, signed zeros included.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughcalc.functionals import (BasisMap, IntegralFunctional, _separable,
                                   catalog_names, discretize_integral_functional,
                                   make_functional, smooth_basis)
from roughcalc.gaussian import expect_scalar, sample_ensemble
from roughcalc.malliavin import clark_integrand, divergence, innovation_directions
from roughcalc.mixed import MixedContext, mixed_clark_fields, sample_mixed
from roughcalc.models import CovarianceModel, GramContext, TimeGrid

MODELS = {
    "bm": CovarianceModel.bm(),
    "fbm": CovarianceModel.fbm(0.25),
    "mixture": CovarianceModel(1.0, 1.0, 0.25),
}


def zero_fill_smooth(table, mu, var):
    """Every live basis term added into a zero-filled output."""
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


def reference_smoother(maps):
    if all(isinstance(h, BasisMap) for h in maps):
        table = np.array([h.coeffs for h in maps])
        return lambda mu, var, cols: zero_fill_smooth(table[cols], mu, var)

    def quadrature(mu, var, cols):
        out = np.empty(mu.shape)
        for j, i in enumerate(cols):
            if var[j] == 0.0:
                out[:, j] = maps[i](mu[:, j])
            else:
                out[:, j] = expect_scalar(maps[i], mu[:, j], np.sqrt(var[j]))
        return out

    return quadrature


def reference_slot_sums(ctx, fn, paths, maps, weights):
    """out[:, s] = sum_i E[maps[i](X_i) | X_{< s}] weights[s, i]."""
    rows = ctx.chol[list(fn.indices)]
    tail_var = np.cumsum(rows[:, ::-1] ** 2, axis=1)[:, ::-1].T
    smooth = reference_smoother(maps)
    out = paths @ innovation_directions(ctx).T
    out /= np.diag(ctx.chol)
    mu = np.zeros((out.shape[0], fn.k))
    for s in range(ctx.n):
        cols = np.flatnonzero(weights[s])
        a_s = (smooth(mu[:, cols], tail_var[s, cols], cols) @ weights[s, cols]
               if cols.size else 0.0)
        mu += out[:, s, None] * rows[:, s]
        out[:, s] = a_s
    return out


def reference_weights(ctx, fn, v=None):
    """The coefficient gains, or the correction weights of ``v``."""
    rows = ctx.chol[list(fn.indices)]
    gains = (rows / np.diag(ctx.chol)).T
    if v is None:
        return gains
    w = innovation_directions(ctx)
    y = ctx.chol_inv @ (v - w @ ctx.sigma).T
    return gains * (rows @ np.triu(y, 1)).T


def generic_divergence(ctx, field, paths, coeff_paths=None, chain=1.0):
    """The divergence with its correction term, for any field."""
    paths = np.atleast_2d(np.asarray(paths, dtype=float))
    if coeff_paths is None:
        coeff_paths = paths
    incr = paths @ field.directions.T
    a = np.asarray(field.coeff_fn(coeff_paths), dtype=float)
    v = field.directions @ ctx.sigma
    corr = np.asarray(field.grad_dot(coeff_paths, v), dtype=float)
    return (a * incr).sum(axis=-1) - chain * corr.sum(axis=-1)


def assert_same_bits(got, want):
    """Equal values and equal signs, so that 0.0 and -0.0 differ."""
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_ito_table(field, paths, a, weight=1.0):
    """The Ito form overwrites the increment table with (weight a) incr."""
    incr = paths @ field.directions.T
    want = (weight * a) * incr
    got = field.coeff_fn(paths, incr, ito=1.0)
    assert got is incr
    assert_same_bits(got, want)


def assert_loop_bit_identical(ctx, fn, paths, v):
    field = clark_integrand(ctx, fn)
    assert_same_bits(divergence(ctx, field, paths),
                     generic_divergence(ctx, field, paths))
    want = reference_slot_sums(ctx, fn, paths, fn.diag, reference_weights(ctx, fn))
    assert_same_bits(field.coeff_fn(paths), want)
    assert_ito_table(field, paths, want)
    scal = reference_weights(ctx, fn, v)
    if not scal.any():  # a linear F: no correction weights at all
        assert np.array_equal(field.grad_dot(paths, v), np.zeros(paths.shape))
        return
    want = reference_slot_sums(ctx, fn, paths, fn.diag_deriv, scal)
    assert np.array_equal(field.grad_dot(paths, v), want)


def correction_input(n, seed):
    """A v that is not w Sigma, with about a third of its entries zero."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, n))
    v[rng.random((n, n)) < 0.35] = 0.0
    return v


@pytest.mark.filterwarnings("ignore:time .* is off-grid")
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("n", [8, 33])
def test_slot_loop_bit_identical_to_reference(model: str, n: int) -> None:
    ctx = GramContext.build(MODELS[model], TimeGrid.uniform_grid(n))
    paths = sample_ensemble(ctx, 40, seed=21).paths
    v = correction_input(n, 22)
    for name in catalog_names():
        assert_loop_bit_identical(ctx, make_functional(name, ctx.grid), paths, v)


def test_slot_loop_bit_identical_with_scattered_weights() -> None:
    # a factor with zeros below its diagonal makes slots whose nonzero
    # weights are not one contiguous run of coordinates
    n = 12
    rng = np.random.default_rng(23)
    chol = np.tril(rng.normal(size=(n, n)))
    chol[rng.random((n, n)) < 0.4] = 0.0
    np.fill_diagonal(chol, 0.5 + rng.random(n))
    grid = TimeGrid.uniform_grid(n)
    ctx = GramContext(model=CovarianceModel.bm(), grid=grid, sigma=chol @ chol.T,
                      chol=chol, jitter=0.0)
    fn = make_functional("integral_sin", grid)
    v = correction_input(n, 24)
    scattered = [row for row in reference_weights(ctx, fn, v) if row.any()
                 and np.ptp(np.flatnonzero(row)) + 1 != np.count_nonzero(row)]
    assert scattered
    paths = rng.normal(size=(30, n)) @ chol.T
    assert_loop_bit_identical(ctx, fn, paths, v)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_slot_loop_bit_identical_with_empty_slots(model: str) -> None:
    # a functional of two mid-path coordinates: slots after the later one
    # have no nonzero weight, and their Ito terms 0.0 I(w_s) keep the sign
    # of each increment
    ctx = GramContext.build(MODELS[model], TimeGrid.uniform_grid(12))
    fn = _separable("mid_path", (2, 5), (BasisMap.of(sin=1.0), BasisMap.of(v2=1.0)))
    assert not reference_weights(ctx, fn)[6:].any()
    paths = sample_ensemble(ctx, 40, seed=31).paths
    assert_loop_bit_identical(ctx, fn, paths, correction_input(ctx.n, 32))
    incr = paths @ innovation_directions(ctx).T
    table = clark_integrand(ctx, fn).coeff_fn(paths, incr, ito=1.0)
    assert np.signbit(table[:, 6:]).any() and not table[:, 6:].any()


def test_slot_loop_bit_identical_through_quadrature() -> None:
    ctx = GramContext.build(MODELS["fbm"], TimeGrid.uniform_grid(8))
    fn = discretize_integral_functional(
        IntegralFunctional(name="plain_sin",
                           g=lambda s, x: np.sin(x),
                           dx_g=lambda s, x: np.cos(x),
                           dxx_g=lambda s, x: -np.sin(x)),
        ctx.grid)
    assert not isinstance(fn.diag[0], BasisMap)
    paths = sample_ensemble(ctx, 30, seed=25).paths
    assert_loop_bit_identical(ctx, fn, paths, correction_input(ctx.n, 26))


def test_clark_coeff_memory_bounded_in_bytes() -> None:
    # beyond the returned (m, n) table the loop holds the prefix means and
    # one work area of two (m, k) blocks
    n, m = 64, 20_000
    ctx = GramContext.build(MODELS["fbm"], TimeGrid.uniform_grid(n))
    fn = make_functional("integral_sin", ctx.grid)
    field = clark_integrand(ctx, fn)
    paths = sample_ensemble(ctx, m, seed=27).paths
    tracemalloc.start()
    try:
        table = field.coeff_fn(paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.nbytes <= 3 * m * fn.k * 8 + (1 << 20)


@pytest.fixture(scope="module")
def large_grid():
    """quadratic on fbm H = 0.25 at n = 1024, m = 1000, with chol_inv warm."""
    ctx = GramContext.build(MODELS["fbm"], TimeGrid.uniform_grid(1024))
    ctx.chol_inv
    paths = sample_ensemble(ctx, 1000, seed=28).paths
    return ctx, make_functional("quadratic", ctx.grid), paths


def test_clark_divergence_bit_identical_at_n_1024(large_grid) -> None:
    ctx, fn, paths = large_grid
    field = clark_integrand(ctx, fn)
    assert np.array_equal(divergence(ctx, field, paths),
                          generic_divergence(ctx, field, paths))


def test_clark_divergence_memory_bounded_in_bytes(large_grid) -> None:
    # the (n, n) directions, the increment table and the coefficient table;
    # no (n, n) product beyond the directions
    ctx, fn, paths = large_grid
    m, n = paths.shape
    tracemalloc.start()
    try:
        divergence(ctx, clark_integrand(ctx, fn), paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * m * n * 8 + (2 << 20)


def test_clark_divergence_holds_one_table_beyond_the_paths() -> None:
    # n = 64, m = 20 000, k = 1: the increment table is 10 MiB, and the Ito
    # sum is formed inside it; beyond it the slot loop holds the prefix
    # means, its work area and per-path vectors
    n, m = 64, 20_000
    ctx = GramContext.build(MODELS["fbm"], TimeGrid.uniform_grid(n))
    fn = make_functional("quadratic", ctx.grid)
    field = clark_integrand(ctx, fn)
    paths = sample_ensemble(ctx, m, seed=33).paths
    tracemalloc.start()
    try:
        delta = divergence(ctx, field, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delta.shape == (m,)
    assert peak <= 8 * m * n + 8 * m * (3 * fn.k + 2) + (1 << 20)


def test_wrapped_clark_field_keeps_its_wrapper() -> None:
    # a copy with a pass-through coeff_fn, as a tracer makes, runs through
    # the wrapper under the field's own divergence rule
    ctx = GramContext.build(MODELS["fbm"], TimeGrid.uniform_grid(16))
    paths = sample_ensemble(ctx, 40, seed=29).paths
    field = clark_integrand(ctx, make_functional("integral_sin", ctx.grid))
    calls = []

    def passthrough(*args, **kwargs):
        calls.append(len(args))
        return field.coeff_fn(*args, **kwargs)

    copy = replace(field, coeff_fn=passthrough)
    assert np.array_equal(divergence(ctx, copy, paths),
                          generic_divergence(ctx, field, paths))
    assert calls == [2]


@pytest.mark.parametrize("name", ["integral_sin", "two_time"])
def test_mixed_clark_fields_stay_scaled(name: str) -> None:
    mctx = MixedContext.build(CovarianceModel(0.7, 1.2, 0.25), TimeGrid.uniform_grid(12))
    ens = sample_mixed(mctx, 40, seed=30)
    ctx, paths = mctx.ctx_x, ens.paths_x
    fn = make_functional(name, ctx.grid)
    field = clark_integrand(ctx, fn)
    a = field.coeff_fn(paths)
    incr = paths @ field.directions.T
    for weight, scaled in zip((mctx.alpha, mctx.beta), mixed_clark_fields(mctx, fn)):
        assert np.array_equal(scaled.coeff_fn(paths), weight * a)
        assert np.array_equal(scaled.coeff_fn(paths, incr), weight * a)
        assert_ito_table(scaled, paths, a, weight)
        own = divergence(ctx, scaled, paths)
        assert_same_bits(own, generic_divergence(ctx, scaled, paths))
        assert_same_bits(own, (weight * a * incr).sum(axis=-1))
        # on a component's paths the generic path reads the mixture
        for comp_ctx, comp in ((mctx.ctx_b, ens.paths_b), (mctx.ctx_h, ens.paths_h)):
            assert np.array_equal(divergence(comp_ctx, scaled, comp, paths, weight),
                                  generic_divergence(comp_ctx, scaled, comp, paths, weight))


@given(
    k=st.integers(1, 6),
    m=st.integers(1, 5),
    live=st.lists(st.booleans(), min_size=6, max_size=6),
    sparsity=st.sampled_from([0.0, 0.4, 0.8]),
    observed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_smooth_basis_out_matches_zero_fill(k, m, live, sparsity, observed, seed) -> None:
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(k, 6)) * np.array(live)
    table[rng.random((k, 6)) < sparsity] = 0.0
    mu = 2.0 * rng.normal(size=(m, k))
    var = 0.0 if observed else rng.random(k) * (rng.random(k) < 0.7)
    want = zero_fill_smooth(table, mu, var)
    buf = np.full((m, k), np.nan)
    assert smooth_basis(table, mu, var, out=buf) is buf
    assert np.array_equal(buf, want)
    assert np.array_equal(smooth_basis(table, mu, var), want)
    # one map evaluated along a path column, as BasisMap.__call__ does
    assert np.array_equal(smooth_basis(table[0], mu[:, 0], 0.0),
                          zero_fill_smooth(table[0], mu[:, 0], 0.0))


def test_smooth_basis_all_zero_table_gives_zeros() -> None:
    mu = np.linspace(-1.0, 1.0, 6).reshape(3, 2)
    buf = np.full((3, 2), np.nan)
    assert smooth_basis(np.zeros((2, 6)), mu, np.ones(2), out=buf) is buf
    assert np.array_equal(buf, np.zeros((3, 2)))
    assert np.array_equal(smooth_basis(np.zeros(6), mu, 0.0), np.zeros((3, 2)))
