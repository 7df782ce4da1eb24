"""Sampling, deterministic RNG layout, ensemble IO, Gaussian conditioning."""

from __future__ import annotations

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from roughcalc import gaussian
from roughcalc.energy import GramContext
from roughcalc.errors import UnsupportedDimensionError
from roughcalc.gaussian import (CHUNK_ROWS, ConditionalLaw, PathEnsemble,
                                RngStream, conditional_expectation,
                                conditional_law, expect_scalar,
                                read_ensemble, regression_coefficients,
                                sample_ensemble, sample_ensemble_circulant,
                                write_ensemble)
from roughcalc.mixed import MixedContext, sample_mixed
from roughcalc.models import CovarianceModel, TimeGrid, increment_variance


def make_ctx(h: float = 0.25, n: int = 8) -> GramContext:
    return GramContext.build(CovarianceModel.fbm(h), TimeGrid.uniform_grid(n))


def test_rng_stream_repeatable_and_stream_separated() -> None:
    a = RngStream(42, 0).generator(0).normal(size=5)
    b = RngStream(42, 0).generator(0).normal(size=5)
    c = RngStream(42, 1).generator(0).normal(size=5)
    d = RngStream(42, 0).generator(1).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_ensemble_worker_count_invariance() -> None:
    ctx = make_ctx(n=4)
    m = CHUNK_ROWS + 257  # spans two chunks
    e1 = sample_ensemble(ctx, m, seed=42, workers=1)
    e3 = sample_ensemble(ctx, m, seed=42, workers=3)
    assert np.array_equal(e1.paths, e3.paths)


def test_sample_ensemble_seed_sensitivity() -> None:
    ctx = make_ctx(n=4)
    a = sample_ensemble(ctx, 64, seed=1).paths
    b = sample_ensemble(ctx, 64, seed=2).paths
    assert not np.array_equal(a, b)


def test_sample_covariance_close_to_gram() -> None:
    ctx = make_ctx(n=4)
    m = 100_000
    paths = sample_ensemble(ctx, m, seed=7).paths
    emp = paths.T @ paths / m
    # variance of an empirical second moment of jointly Gaussian terms
    se = np.sqrt(
        (np.outer(np.diag(ctx.sigma), np.diag(ctx.sigma)) + ctx.sigma**2) / m
    )
    assert np.max(np.abs(emp - ctx.sigma) / se) <= 5.0


def test_circulant_matches_model_increments() -> None:
    ctx = make_ctx(h=0.25, n=16)
    m = 50_000
    ens = sample_ensemble_circulant(ctx, m, seed=9)
    assert not ens.fallback
    t = ctx.grid.times
    model = ctx.model
    inc = np.diff(np.concatenate([np.zeros((m, 1)), ens.paths], axis=1), axis=1)
    for i in range(16):
        s = float(t[i - 1]) if i else 0.0
        want = increment_variance(model, s, float(t[i]))
        got = float(np.mean(inc[:, i] ** 2))
        se = want * math.sqrt(2.0 / (m - 1))
        assert abs(got - want) <= 5.0 * se


def test_circulant_bm_increments_uncorrelated() -> None:
    ctx = GramContext.build(CovarianceModel.bm(), TimeGrid.uniform_grid(16))
    m = 50_000
    ens = sample_ensemble_circulant(ctx, m, seed=5)
    inc = np.diff(np.concatenate([np.zeros((m, 1)), ens.paths], axis=1), axis=1)
    r = np.corrcoef(inc[:, :-1].ravel(), inc[:, 1:].ravel())[0, 1]
    assert abs(r) <= 5.0 / math.sqrt(inc[:, :-1].size)


def test_circulant_scales_a_one_component_model() -> None:
    # beta = 0 samples B at H = 1/2 whatever the model's hurst; the nonzero
    # weight scales the unit-weight paths, and a two-component model is refused
    grid = TimeGrid.uniform_grid(16)
    for model, unit in ((CovarianceModel(0.0, 2.5, 0.3), CovarianceModel.fbm(0.3)),
                        (CovarianceModel(2.5, 0.0, 0.3), CovarianceModel.bm())):
        got = sample_ensemble_circulant(GramContext.build(model, grid), 64, seed=4)
        want = sample_ensemble_circulant(GramContext.build(unit, grid), 64, seed=4)
        assert np.allclose(got.paths, 2.5 * want.paths, rtol=1e-12, atol=1e-12)
    mixed = GramContext.build(CovarianceModel(1.0, 1.0, 0.3), grid)
    with pytest.raises(ValueError):
        sample_ensemble_circulant(mixed, 64, seed=4)


def _full_spectrum_paths(ctx: GramContext, m: int, seed: int, stream: int,
                         rows: int = 1024) -> np.ndarray:
    """The circulant formula of the full-length Hermitian spectrum and a
    complex inverse FFT, applied `rows` rows at a time to the same chunked
    draws."""
    model, n = ctx.model, ctx.n
    hurst = model.hurst if model.beta else 0.5
    sqrt_g = np.sqrt(np.clip(gaussian.circulant_eigenvalues(hurst, n), 0.0, None))
    m_emb = 2 * n
    scale = (model.beta or model.alpha) * ctx.grid.times[0] ** hurst
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    out = np.empty((m, n))
    for c, lo in enumerate(range(0, m, CHUNK_ROWS)):
        hi = min(lo + CHUNK_ROWS, m)
        gen = RngStream(seed, stream).generator(c)
        for b0 in range(lo, hi, rows):
            b1 = min(b0 + rows, hi)
            z = gen.standard_normal((b1 - b0, m_emb))
            zc = np.empty((b1 - b0, m_emb), dtype=complex)
            zc[:, 0] = z[:, 0]
            zc[:, n] = z[:, 1]
            a = z[:, 2:n + 1]
            b = z[:, n + 1:]
            zc[:, 1:n] = (a + 1j * b) * inv_sqrt2
            zc[:, n + 1:] = (a[:, ::-1] - 1j * b[:, ::-1]) * inv_sqrt2
            fgn = np.sqrt(m_emb) * np.fft.ifft(sqrt_g[None, :] * zc, axis=1).real[:, :n]
            out[b0:b1] = np.cumsum(scale * fgn, axis=1)
    return out


def test_generator_draws_do_not_depend_on_block_size() -> None:
    # the samplers draw a chunk's normals in row blocks; this is what keeps
    # the paths independent of the block size
    whole = RngStream(3, 1).generator(0).standard_normal((1000, 7))
    gen = RngStream(3, 1).generator(0)
    parts = [gen.standard_normal((rows, 7)) for rows in (1, 333, 666)]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("h", [0.5, 0.25])
@pytest.mark.parametrize("n", [8, 64, 1023])
def test_circulant_matches_full_spectrum_formula(n: int, h: float) -> None:
    ctx = make_ctx(h=h, n=n)
    m = CHUNK_ROWS + 2000  # two chunks, several row blocks at n >= 64
    got = sample_ensemble_circulant(ctx, m, seed=11, stream=1).paths
    want = _full_spectrum_paths(ctx, m, seed=11, stream=1)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_dense_matches_one_product_per_chunk() -> None:
    ctx = make_ctx(n=512)
    m = CHUNK_ROWS + 2000
    got = sample_ensemble(ctx, m, seed=11).paths
    want = np.concatenate([
        RngStream(11).generator(c).standard_normal((min(CHUNK_ROWS, m - lo), 512))
        @ ctx.chol.T for c, lo in enumerate(range(0, m, CHUNK_ROWS))])
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


SAMPLERS = [sample_ensemble, sample_ensemble_circulant]


def _traced_peak(fn, *args):
    """(result, peak traced bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _mixed_paths(ctx, m, seed, stream, workers):
    mctx = MixedContext.build(CovarianceModel(0.7, 1.2, ctx.model.hurst), ctx.grid)
    ens = sample_mixed(mctx, m, seed, stream, workers)
    return ens.paths_b, ens.paths_h, ens.paths_x


@pytest.mark.parametrize("draw", [
    lambda *args: (sample_ensemble(*args).paths,),
    lambda *args: (sample_ensemble_circulant(*args).paths,),
    _mixed_paths,
], ids=["dense", "circulant", "mixed"])
def test_samplers_bit_identical_across_workers(draw) -> None:
    ctx = make_ctx(n=512)
    m = CHUNK_ROWS + 2000  # two chunks, each of several row blocks
    one = draw(ctx, m, 5, 0, 1)
    for workers in (2, 3):
        other = draw(ctx, m, 5, 0, workers)
        assert all(np.array_equal(a, b) for a, b in zip(one, other, strict=True))


def test_pipeline_error_reaches_caller_and_stops_its_threads(monkeypatch) -> None:
    # the failing block is taken once by the calling thread and once by a
    # pool thread; blocks of 16 rows draw far faster than the transform
    # sleeps, so every thread takes blocks past the threshold
    baseline = threading.active_count()
    m, width = 200, 64
    monkeypatch.setattr(gaussian, "BLOCK_BYTES", 16 * 8 * width)
    out = np.empty((m, width))
    for on_caller in (True, False):
        failed = []

        def apply(z, b0, b1, _):
            time.sleep(0.005)
            caller = threading.current_thread() is threading.main_thread()
            if b0 >= 64 and caller == on_caller:
                failed.append(caller)
                raise RuntimeError("transform failed")
            out[b0:b1] = z

        with pytest.raises(RuntimeError, match="transform failed"):
            gaussian._fill_chunks(m, 5, 0, width, [apply], workers=3)
        assert set(failed) == {on_caller}
        assert threading.active_count() == baseline


def test_pipeline_reuses_a_buffer_only_after_its_block_is_applied(monkeypatch) -> None:
    # a transform that copies late would read the normals of a later block
    # if the calling thread refilled its slot too early; blocks of 16 rows
    # draw far faster than the transform sleeps; more workers than cores
    m, width = 200, 64
    monkeypatch.setattr(gaussian, "BLOCK_BYTES", 16 * 8 * width)
    outs = {workers: np.empty((m, width)) for workers in (1, 3)}

    def copy_late(out):
        def apply(z, b0, b1, _):
            time.sleep(0.01)
            out[b0:b1] = z
        return apply

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers, out in outs.items():
            gaussian._fill_chunks(m, 5, 0, width, [copy_late(out)], workers)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(outs[1], outs[3])


def test_pipeline_runs_inline_with_no_more_blocks_than_workers() -> None:
    # two chunks of one block each: at 2 workers no thread would take a
    # second block
    threads = set()

    def apply(z, b0, b1, _):
        threads.add(threading.current_thread())

    gaussian._fill_chunks(CHUNK_ROWS + 2000, 5, 0, 64, [apply], workers=2)
    assert threads == {threading.main_thread()}

    # four blocks that take time to apply spread over both threads, the
    # calling thread among them
    def slow(z, b0, b1, _):
        time.sleep(0.01)
        apply(z, b0, b1, _)

    threads.clear()
    gaussian._fill_chunks(CHUNK_ROWS + 2000, 5, 0, 64, [slow, slow], workers=2)
    assert len(threads) == 2
    assert threading.main_thread() in threads


@pytest.mark.parametrize("sampler", SAMPLERS, ids=["dense", "circulant"])
def test_sampler_buffers_fit_the_rows_drawn(sampler) -> None:
    # 64 rows draw one small block: no full BLOCK_BYTES buffer is made
    ens, peak = _traced_peak(sampler, make_ctx(n=512), 64, 5, 0, 2)
    assert peak - ens.paths.nbytes <= 2 << 20


@pytest.mark.parametrize("sampler", SAMPLERS, ids=["dense", "circulant"])
def test_sampler_working_memory_is_bounded_in_bytes(sampler) -> None:
    # beyond its 72 MiB output, a sampler holds a few row blocks per worker
    ctx = make_ctx(n=512)
    ens, peak = _traced_peak(sampler, ctx, CHUNK_ROWS + 2000, 5, 0, 2)
    assert ens.paths.nbytes == 8 * 512 * (CHUNK_ROWS + 2000)
    assert peak - ens.paths.nbytes <= 96 << 20


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, m", [(64, 20_000), (1024, 4096)])
def test_circulant_buffers_fit_one_block_together(n: int, m: int, workers: int) -> None:
    # the normals and half spectra of every worker share one BLOCK_BYTES;
    # the slack covers the spectrum and its weights, a few 2n-vectors
    ctx = make_ctx(h=0.25, n=n)
    ens, peak = _traced_peak(sample_ensemble_circulant, ctx, m, 5, 1, workers)
    assert ens.sampler == "circulant"
    assert peak - ens.paths.nbytes <= gaussian.BLOCK_BYTES + (1 << 20)


def test_ensemble_io_working_memory_is_bounded_in_bytes(tmp_path) -> None:
    ens = sample_ensemble(make_ctx(n=512), CHUNK_ROWS + 2000, seed=5, workers=2)
    p = tmp_path / "ens.bin"
    _, write_peak = _traced_peak(write_ensemble, p, ens)
    (paths, seed), read_peak = _traced_peak(read_ensemble, p)
    assert write_peak <= 96 << 20
    assert read_peak - paths.nbytes <= 96 << 20
    assert seed == 5 and np.array_equal(paths, ens.paths)


def test_circulant_records_min_eigenvalue_ratio(monkeypatch) -> None:
    ens = sample_ensemble_circulant(make_ctx(h=0.25, n=64), 16, seed=1)
    assert not ens.fallback
    assert ens.min_eig_ratio > -1e-9
    assert sample_ensemble(make_ctx(), 16, seed=1).min_eig_ratio is None
    # a spectrum dipping below -1e-9 * max falls back and keeps its ratio
    monkeypatch.setattr(gaussian, "circulant_eigenvalues",
                        lambda h, n: np.r_[-0.5, np.ones(2 * n - 1)])
    ens = sample_ensemble_circulant(make_ctx(h=0.25, n=8), 16, seed=1)
    assert ens.fallback and ens.sampler == "cholesky"
    assert ens.min_eig_ratio == -0.5


def test_ensemble_io_round_trip(tmp_path) -> None:
    ctx = make_ctx(n=6)
    ens = sample_ensemble(ctx, 17, seed=21)
    p = tmp_path / "ens.bin"
    write_ensemble(p, ens)
    paths, seed = read_ensemble(p)
    assert seed == 21
    assert np.array_equal(paths, ens.paths)


def test_ensemble_io_rejects_foreign_file(tmp_path) -> None:
    p = tmp_path / "junk.bin"
    p.write_bytes(b"not an ensemble at all")
    with pytest.raises(ValueError):
        read_ensemble(p)


def test_ensemble_io_rejects_truncated_header(tmp_path) -> None:
    ens = sample_ensemble(make_ctx(n=6), 17, seed=21)
    p = tmp_path / "ens.bin"
    write_ensemble(p, ens)
    p.write_bytes(p.read_bytes()[:5])  # magic plus one byte
    with pytest.raises(ValueError, match="expected 28 bytes, got 1"):
        read_ensemble(p)


def test_ensemble_io_rejects_short_payload(tmp_path) -> None:
    ens = sample_ensemble(make_ctx(n=6), 17, seed=21)
    p = tmp_path / "ens.bin"
    write_ensemble(p, ens)
    p.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(ValueError, match=f"needs {8 * 17 * 6} bytes, file holds "
                                         f"{8 * 17 * 6 - 3}"):
        read_ensemble(p)


def test_conditional_law_matches_dense_schur() -> None:
    ctx = make_ctx(h=0.25, n=8)
    s = ctx.sigma
    for j in (1, 3, 6):
        law = conditional_law(ctx, j)
        mean_want = np.linalg.solve(s[:j, :j], s[:j, j:]).T
        cov_want = s[j:, j:] - s[j:, :j] @ np.linalg.solve(s[:j, :j], s[:j, j:])
        assert np.max(np.abs(law.mean_map - mean_want)) <= 1e-9
        assert np.max(np.abs(law.cov - cov_want)) <= 1e-9
        evals = np.linalg.eigvalsh(law.cov)
        assert evals.min() >= -1e-10


def test_bm_conditional_mean_is_markov() -> None:
    ctx = GramContext.build(CovarianceModel.bm(), TimeGrid.uniform_grid(8))
    for j in (1, 4, 7):
        law = conditional_law(ctx, j)
        # E[X_t | prefix] = X_{t_{j-1}} for every future time t
        want = np.zeros((8 - j, j))
        want[:, j - 1] = 1.0
        assert np.max(np.abs(law.mean_map - want)) <= 1e-12


def test_regression_coefficients_agree_with_law() -> None:
    ctx = make_ctx(h=0.4, n=8)
    idx = np.array([5, 7])
    for j in (2, 4):
        beta, cov = regression_coefficients(ctx, j, idx)
        law = conditional_law(ctx, j)
        assert np.max(np.abs(beta.T - law.mean_map[idx - j])) <= 1e-10
        want_cov = law.cov[np.ix_(idx - j, idx - j)]
        assert np.max(np.abs(cov - want_cov)) <= 1e-10


def test_observed_coordinates_have_exactly_zero_variance() -> None:
    # the Schur complement leaves roundoff of up to ~1e-8 in the standard
    # deviation here; tail sums of the Cholesky factor give exact zeros
    ctx = make_ctx(h=0.25, n=64)
    idx = np.arange(ctx.n)
    for j in range(ctx.n + 1):
        _, cov = regression_coefficients(ctx, j, idx)
        assert np.all(cov[:j, :] == 0.0)
        assert np.all(cov[:, :j] == 0.0)
        assert np.all(np.diag(cov)[j:] > 0.0)


def test_quadrature_closed_forms() -> None:
    mu = np.array([0.3, -1.2, 0.0])
    sd = np.array([0.7, 1.5, 2.0])
    got = expect_scalar(np.cos, mu, sd)
    want = np.cos(mu) * np.exp(-0.5 * sd**2)
    assert np.max(np.abs(got - want)) <= 1e-12
    got2 = expect_scalar(lambda v: v**2, mu, sd)
    assert np.max(np.abs(got2 - (mu**2 + sd**2))) <= 1e-12


def test_quadrature_degenerate_sd_evaluates_directly() -> None:
    mu = np.array([0.4, -0.9])
    got = expect_scalar(np.exp, mu, np.zeros(2))
    assert np.max(np.abs(got - np.exp(mu))) <= 1e-15


def test_hermite_rule_is_cached_read_only() -> None:
    z, w = gaussian._hermite_nodes(16)
    again = gaussian._hermite_nodes(16)
    assert again[0] is z and again[1] is w
    assert not z.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w *= 2.0
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-14)


def test_conditional_expectation_unconditional_moments() -> None:
    ctx = make_ctx(h=0.25, n=8)
    sig_tt = ctx.sigma[-1, -1]
    e_cos = conditional_expectation(
        ctx, lambda x: np.cos(x[..., 0]), (7,), 0, np.zeros(0)
    )
    assert e_cos == pytest.approx(math.exp(-0.5 * sig_tt), abs=1e-10)
    e_sq = conditional_expectation(
        ctx, lambda x: x[..., 0] ** 2, (7,), 0, np.zeros(0)
    )
    assert e_sq == pytest.approx(sig_tt, abs=1e-10)


def test_conditional_expectation_of_repeated_coordinate() -> None:
    # X_5 listed twice: the conditional covariance is rank 1, which the
    # jitter ladder factors; E[X_5^2 | prefix] = mu^2 + var
    ctx = make_ctx(h=0.25, n=8)
    prefix = np.array([0.3, -0.4])
    beta, cov = regression_coefficients(ctx, 2, np.array([5]))
    mu = float(prefix @ beta[:, 0])
    got = conditional_expectation(
        ctx, lambda x: x[..., 0] * x[..., 1], (5, 5), 2, prefix
    )
    assert got == pytest.approx(mu**2 + cov[0, 0], abs=1e-10)


def test_conditional_expectation_tower() -> None:
    # E[ E[X_T^2 | prefix_j] ] over sampled prefixes converges to E[X_T^2]
    ctx = make_ctx(h=0.25, n=8)
    m = 40_000
    paths = sample_ensemble(ctx, m, seed=13).paths
    j = 4
    beta, cov = regression_coefficients(ctx, j, np.array([7]))
    mu = paths[:, :j] @ beta[:, 0]
    var = cov[0, 0]
    inner = mu**2 + var
    est = float(np.mean(inner))
    se = float(np.std(inner, ddof=1) / math.sqrt(m))
    assert abs(est - ctx.sigma[7, 7]) <= 4.0 * se


def test_monte_carlo_method_agrees_with_quadrature() -> None:
    ctx = make_ctx(h=0.25, n=8)
    prefix = np.array([0.1, -0.2, 0.3])
    q = conditional_expectation(
        ctx, lambda x: np.exp(x[..., 0]), (7,), 3, prefix
    )
    mc = conditional_expectation(
        ctx,
        lambda x: np.exp(x[..., 0]),
        (7,),
        3,
        prefix,
        method="mc",
        mc_n=200_000,
        rng=np.random.default_rng(0),
    )
    assert mc == pytest.approx(q, rel=0.02)


def test_joint_quadrature_dimension_guard() -> None:
    ctx = make_ctx(h=0.25, n=8)
    with pytest.raises(UnsupportedDimensionError):
        conditional_expectation(
            ctx,
            lambda x: np.prod(np.sin(x), axis=-1),
            (2, 3, 4, 5, 6),
            0,
            np.zeros(0),
        )
