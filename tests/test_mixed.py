"""Two-component model: block geometry, degenerations, componentwise rules."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from roughcalc.functionals import make_functional
from roughcalc.gaussian import CHUNK_ROWS, expect_scalar, sample_ensemble
from roughcalc.malliavin import clark_integrand, conditional_value, divergence
from roughcalc.mixed import (MixedContext, mixed_clark_fields, mixed_divergence,
                             mixed_pairing, sample_mixed)
from roughcalc.models import TimeGrid


def make_mctx(alpha: float = 1.0, beta: float = 1.0, h: float = 0.25,
              n: int = 8) -> MixedContext:
    return MixedContext.build(alpha, beta, h, TimeGrid.uniform_grid(n))


def per_slot_grad_dot(ctx, fn, paths, v):
    """Reference Clark correction contraction from dense per-slot solves:
    slot s gets sum_i E[f_i''(X_i) | X_<s] g_{s,i} (beta_s^T v[s, :s])_i,
    with beta_s the Schur regression of X[idx] on the first s coordinates
    and g_{s,i} = <k_{t_i}, w_s> / ||w_s||^2 for the innovation w_s."""
    sig = ctx.sigma
    idx = np.asarray(fn.indices)
    out = np.zeros((paths.shape[0], ctx.n))
    for s in range(1, ctx.n):
        beta = np.linalg.solve(sig[:s, :s], sig[:s, idx])
        cov = sig[np.ix_(idx, idx)] - sig[idx, :s] @ beta
        sd = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        w = np.zeros(ctx.n)
        w[s] = 1.0
        w[:s] = -np.linalg.solve(sig[:s, :s], sig[:s, s])
        sw = w @ sig
        gains = sw[idx] / (sw @ w)
        mu = paths[:, :s] @ beta
        cond = np.column_stack([
            fn.diag_deriv[i](mu[:, i]) * np.ones(len(paths)) if sd[i] == 0.0
            else expect_scalar(fn.diag_deriv[i], mu[:, i], sd[i])
            for i in range(fn.k)
        ])
        out[:, s] = cond @ (gains * (beta.T @ v[s, :s]))
    return out


def test_combined_gram_is_weighted_block_sum() -> None:
    mctx = make_mctx(alpha=0.7, beta=1.3)
    want = 0.7**2 * mctx.ctx_b.sigma + 1.3**2 * mctx.ctx_h.sigma
    assert np.max(np.abs(mctx.ctx_x.sigma - want)) <= 1e-14


def test_beta_zero_gram_is_bitwise_brownian() -> None:
    mctx = make_mctx(alpha=1.0, beta=0.0)
    assert np.array_equal(mctx.ctx_x.sigma, mctx.ctx_b.sigma)


# (n, m) of one row block per chunk, and of several row blocks in each of
# two chunks
SIZES = [(8, 128), (512, CHUNK_ROWS + 2000)]


def test_combined_paths_are_weighted_component_sums() -> None:
    for n, m in SIZES:
        mctx = make_mctx(alpha=0.8, beta=1.1, n=n)
        ens = sample_mixed(mctx, m, seed=5)
        assert np.array_equal(ens.paths_x, 0.8 * ens.paths_b + 1.1 * ens.paths_h)


def test_beta_zero_paths_match_pure_brownian_bitwise() -> None:
    for n, m in SIZES:
        mctx = make_mctx(alpha=1.0, beta=0.0, n=n)
        ens = sample_mixed(mctx, m, seed=42)
        pure = sample_ensemble(mctx.ctx_b, m, seed=42)
        assert np.array_equal(ens.paths_x, pure.paths)


def test_mixed_paths_bit_identical_across_workers() -> None:
    mctx = make_mctx(alpha=0.7, beta=1.2, n=512)
    one = sample_mixed(mctx, CHUNK_ROWS + 2000, 5, 0, 1)
    two = sample_mixed(mctx, CHUNK_ROWS + 2000, 5, 0, 2)
    for name in ("paths_b", "paths_h", "paths_x"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name


def test_mixed_sampler_working_memory_is_bounded_in_bytes() -> None:
    # beyond its three 72 MiB outputs, the sampler holds a few row blocks
    # per worker
    mctx = make_mctx(n=512)
    tracemalloc.start()
    try:
        ens = sample_mixed(mctx, CHUNK_ROWS + 2000, 5, 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = ens.paths_b.nbytes + ens.paths_h.nbytes + ens.paths_x.nbytes
    assert outputs == 3 * 8 * 512 * (CHUNK_ROWS + 2000)
    assert peak - outputs <= 96 << 20


def test_componentwise_adjointness_small_scale() -> None:
    mctx = make_mctx(alpha=1.0, beta=1.0, n=8)
    fn = make_functional("quadratic", mctx.ctx_x.grid)
    m = 20_000
    ens = sample_mixed(mctx, m, seed=11)
    fb, fh = mixed_clark_fields(mctx, fn)
    for field_b, field_h in ((fb, None), (None, fh)):
        lhs = fn.values(ens.paths_x) * mixed_divergence(mctx, field_b, field_h, ens)
        rhs = mixed_pairing(mctx, fn, field_b, field_h, ens)
        gap = lhs - rhs
        se = float(np.std(gap, ddof=1) / math.sqrt(m))
        assert abs(float(np.mean(gap))) <= 4.0 * se


def test_component_clark_correction_matches_per_slot_formula() -> None:
    # the component corrections do not vanish: w is orthogonal to the prefix
    # under Sigma_X but not under Sigma_B or Sigma_H
    mctx = make_mctx(alpha=1.0, beta=1.0, n=12)
    ens = sample_mixed(mctx, 200, seed=29)
    rng = np.random.default_rng(31)
    for name in ("integral_sin", "quadratic", "two_time"):
        fn = make_functional(name, mctx.ctx_x.grid)
        fb, fh = mixed_clark_fields(mctx, fn)
        for field, ctx in ((fb, mctx.ctx_b), (fh, mctx.ctx_h)):
            for v in (field.directions @ ctx.sigma,
                      rng.normal(size=(mctx.ctx_x.n, mctx.ctx_x.n))):
                got = field.grad_dot(ens.paths_x, v)
                want = per_slot_grad_dot(mctx.ctx_x, fn, ens.paths_x, v)
                assert np.max(np.abs(want)) > 1e-3
                assert np.max(np.abs(got - want)) <= 1e-12


def test_mixed_clark_pair_collapses_to_mixture_field() -> None:
    mctx = make_mctx(alpha=1.0, beta=1.0, n=12)
    ens = sample_mixed(mctx, 500, seed=37)
    for name in ("integral_sin", "quadratic"):
        fn = make_functional(name, mctx.ctx_x.grid)
        got = mixed_divergence(mctx, *mixed_clark_fields(mctx, fn), ens)
        want = divergence(mctx.ctx_x, clark_integrand(mctx.ctx_x, fn),
                          ens.paths_x)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_beta_zero_divergence_matches_pure_pipeline_bitwise() -> None:
    mctx = make_mctx(alpha=1.0, beta=0.0)
    fn = make_functional("linear", mctx.ctx_x.grid)
    ens = sample_mixed(mctx, 256, seed=13)
    fb, fh = mixed_clark_fields(mctx, fn)
    got = mixed_divergence(mctx, fb, fh, ens)
    pure_field = clark_integrand(mctx.ctx_b, fn)
    want = divergence(mctx.ctx_b, pure_field, ens.paths_x)
    assert np.array_equal(got, want)


def test_mixed_clark_reproduces_centered_functional_for_bm_linear() -> None:
    mctx = make_mctx(alpha=1.0, beta=0.0)
    fn = make_functional("linear", mctx.ctx_x.grid)
    ens = sample_mixed(mctx, 2_000, seed=17)
    fb, fh = mixed_clark_fields(mctx, fn)
    delta = mixed_divergence(mctx, fb, fh, ens)
    mean = conditional_value(mctx.ctx_x, fn, 0, np.zeros((1, 8)))[0]
    resid = fn.values(ens.paths_x) - mean - delta
    assert float(np.max(resid**2)) <= 1e-20


def test_zero_weight_component_field_is_null() -> None:
    mctx = make_mctx(alpha=1.0, beta=0.0)
    fn = make_functional("quadratic", mctx.ctx_x.grid)
    ens = sample_mixed(mctx, 32, seed=19)
    fb, fh = mixed_clark_fields(mctx, fn)
    null = mixed_divergence(mctx, None, fh, ens)
    assert np.max(np.abs(null)) <= 1e-15


def test_weight_validation() -> None:
    with pytest.raises(ValueError):
        make_mctx(alpha=-1.0)
    with pytest.raises(ValueError):
        make_mctx(alpha=0.0, beta=0.0)
