"""Experiment drivers at reduced scale: shapes, gates, and report wiring."""

from __future__ import annotations

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from roughcalc import experiments, gaussian
from roughcalc.config import DEFAULTS, ExperimentConfig
from roughcalc.errors import ConfigError
from roughcalc.functionals import catalog_names, make_functional
from roughcalc.gaussian import CHUNK_ROWS, sample_ensemble
from roughcalc.malliavin import derivative_pairing, divergence, field_coefficients
from roughcalc.mixed import MixedContext, mixed_divergence, mixed_pairing, sample_mixed
from roughcalc.models import (CovarianceModel, GramContext, TimeGrid,
                              increment_variance)
from roughcalc.experiments import (run_adjointness, run_factorization,
                                   run_gubinelli_compare,
                                   run_increment_identity,
                                   run_isometry_defect, run_mixed,
                                   run_projection_lemma,
                                   run_remainder_scaling, run_simulate,
                                   verify_all)


def small(**kw) -> ExperimentConfig:
    base = dict(model="fbm", hurst=0.25, grid_n=8, paths=4000, seed=42)
    base.update(kw)
    return dataclasses.replace(DEFAULTS, **base)


def test_increment_identity_report() -> None:
    rep = run_increment_identity(small())
    assert rep.passed
    assert rep.summary["max_rel_err"] <= 1e-12


def test_projection_lemma_small() -> None:
    rep = run_projection_lemma(small(grid_n=8))
    assert rep.passed
    assert rep.summary["max_gap"] <= 1e-10
    assert rep.summary["bm_projection_max_gap"] <= 1e-12
    assert len(rep.results) == len(experiments._LEMMA_HURSTS)
    assert rep.summary["elements"] == experiments._LEMMA_ELEMENTS


def test_adjointness_rows_cover_catalog_and_fields() -> None:
    rep = run_adjointness(small())
    assert len(rep.results) == 6 * 3
    assert rep.summary["failures"] == 0
    for row in rep.results:
        assert row["passed"]
        assert row["se_combined"] > 0.0


@pytest.mark.parametrize("model", ["bm", "fbm"])
def test_factorization_exact_brownian(model) -> None:
    # the linear functional is an exact case at every H, not only at 1/2
    rep = run_factorization(small(model=model, hurst=0.25, functional="linear",
                                  grid_sweep=(16,)))
    assert rep.passed
    assert rep.summary["exact_case"]
    assert rep.summary["max_residual"] <= 1e-20


def test_factorization_refinement_small() -> None:
    rep = run_factorization(small(functional="quadratic", paths=20_000,
                                  grid_sweep=(8, 16, 32)))
    assert rep.passed
    assert rep.summary["monotone_strict"]
    residuals = [row["residual"] for row in rep.results]
    assert residuals == sorted(residuals, reverse=True)


def test_factorization_rejects_nonuniform_sweep() -> None:
    cfg = small(times=(0.2, 0.7, 1.0))
    with pytest.raises(ConfigError):
        run_factorization(cfg)


def test_remainder_scaling_small() -> None:
    rep = run_remainder_scaling(small(grid_n=64, paths=20_000))
    assert rep.passed
    assert rep.summary["r_squared"] >= 0.98
    assert rep.summary["offsets_used"] >= 5
    assert np.isfinite(rep.summary["slope"])
    assert rep.summary["reference_exponent"] == pytest.approx(1.0)


def test_remainder_needs_enough_offsets() -> None:
    with pytest.raises(ConfigError):
        run_remainder_scaling(small(grid_n=8))


def test_gubinelli_exact_for_brownian_linear() -> None:
    rep = run_gubinelli_compare(small(model="bm", functional="linear",
                                      grid_n=64, paths=2_000))
    assert rep.passed
    for row in rep.results:
        assert row["rel_l2_pairing"] <= 1e-8
        assert row["corr_predictions"] >= 1.0 - 1e-10
        # Brownian increments after s are orthogonal to the prefix
        assert row["projected_pairing_rms"] == 0.0


def test_gubinelli_rough_records_agreement() -> None:
    rep = run_gubinelli_compare(small(grid_n=32, paths=4_000,
                                      functional="quadratic"))
    assert rep.passed
    for row in rep.results:
        assert np.isfinite(row["gamma_pair_mean"])
        assert np.isfinite(row["gamma_reg_mean"])


def test_isometry_defect_small() -> None:
    rep = run_isometry_defect(small(paths=20_000))
    assert rep.passed
    fields = [row["field"] for row in rep.results]
    assert fields == ["deterministic", "terminal_linear", "adapted_affine"]
    terminal = rep.results[1]
    assert terminal["pathwise_gap"] <= 1e-12
    # the deterministic row is affine too: closed-form defect 0 and, on the
    # unit horizon, ||k_T||^2 = Sigma_TT = 1 on every path
    deterministic = rep.results[0]
    assert deterministic["defect_closed"] == 0.0
    assert deterministic["e_norm_sq"] == 1.0
    assert deterministic["se_norm_sq"] == 0.0


def test_simulate_uniform_runs_both_samplers(tmp_path) -> None:
    rep = run_simulate(small(grid_n=16, paths=4_000),
                       export_path=str(tmp_path / "e.bin"))
    assert rep.passed
    assert rep.summary["samplers"] == ["cholesky", "circulant"]
    assert (tmp_path / "e.bin").exists()
    kinds = [row.get("check") for row in rep.results]
    assert "terminal_var_cross" in kinds


def _column_loop_stats(ctx, paths: np.ndarray) -> tuple[float, float, float]:
    """(max_increment_sigma, terminal_var, lag1 correlation) by one strided
    column of a full increment copy at a time, and two raveled copies."""
    model, grid = ctx.model, ctx.grid
    increments = np.diff(paths, axis=1, prepend=0.0)
    t_lo = np.concatenate(([0.0], grid.times[:-1]))
    worst = 0.0
    for i in range(grid.n):
        col = increments[:, i]
        v = float(np.var(col, ddof=1))
        se = v * math.sqrt(2.0 / (col.size - 1))
        theory = increment_variance(model, float(t_lo[i]), float(grid.times[i]))
        worst = max(worst, abs(v - theory) / se)
    a = increments[:, :-1].ravel()
    b = increments[:, 1:].ravel()
    a = a - a.mean()
    b = b - b.mean()
    lag1 = float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))
    return worst, float(np.var(paths[:, -1], ddof=1)), lag1


@pytest.mark.parametrize("model, n", [
    (CovarianceModel.fbm(0.25), 2),
    (CovarianceModel.fbm(0.25), 300),
    (CovarianceModel.fbm(0.75), 131),
    (CovarianceModel.bm(), 300),
], ids=["fbm025-n2", "fbm025-n300", "fbm075-n131", "bm-n300"])
def test_sampler_stats_match_column_loop(model, n: int) -> None:
    # 300 columns of 18 384 paths span six column blocks
    ctx = GramContext.build(model, TimeGrid.uniform_grid(n))
    ens = sample_ensemble(ctx, CHUNK_ROWS + 2000, seed=3)
    row = experiments._sampler_stats(ctx, ens)
    worst, terminal_var, lag1 = _column_loop_stats(ctx, ens.paths)
    assert row["max_increment_sigma"] == worst
    assert row["terminal_var"] == terminal_var
    # a reordered sum: relative roundoff where the correlation is O(1), and
    # absolute roundoff for Brownian increments, whose correlation is ~0
    bound = 1e-12 * abs(lag1) if model.beta else 1e-14
    assert abs(row["lag1_increment_corr"] - lag1) <= bound


def test_sampler_stats_working_memory_is_bounded_in_bytes() -> None:
    ctx = GramContext.build(CovarianceModel.fbm(0.25), TimeGrid.uniform_grid(512))
    ens = sample_ensemble(ctx, CHUNK_ROWS + 2000, seed=3, workers=2)
    tracemalloc.start()
    try:
        experiments._sampler_stats(ctx, ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 << 20


@pytest.mark.parametrize("n", [1000, 5000, 20_000])
def test_ks_helper_matches_scipy_kstest(n: int) -> None:
    from scipy import stats

    sample = 0.8 * np.random.default_rng(20261018).standard_normal(n)
    stat, pvalue = experiments._ks_normal(sample, 0.8)
    ref = stats.kstest(sample, "norm", args=(0.0, 0.8))
    assert stat == ref.statistic
    # asymptotic Kolmogorov p-value against kstest's exact one
    assert abs(pvalue - ref.pvalue) <= 0.05 * ref.pvalue


def _duality_sides(monkeypatch, run, cfg) -> dict:
    """The paths and fields an experiment hands to _duality_rows, and the
    per-path arrays F delta(u) and <DF, u> of each row, field by field and
    functional by functional, as the rows' means read them."""
    seen = {}
    rows, mean_se = experiments._duality_rows, experiments._mean_se

    def capture(report, paths, parts, fields):
        means = []
        monkeypatch.setattr(experiments, "_mean_se",
                            lambda x: means.append(x) or mean_se(x))
        try:
            worst = rows(report, paths, parts, fields)
        finally:
            monkeypatch.setattr(experiments, "_mean_se", mean_se)
        # each row takes the mean of lhs, of rhs and of lhs - rhs
        seen.update(paths=paths, fields=fields, lhs=means[0::3], rhs=means[1::3])
        return worst

    monkeypatch.setattr(experiments, "_duality_rows", capture)
    run(cfg)
    fns = [make_functional(name, cfg.grid()) for name in catalog_names()]
    seen["cases"] = [(u, fn) for _, u in seen["fields"] for fn in fns]
    assert len(seen["lhs"]) == len(seen["rhs"]) == len(seen["cases"]) == 3 * len(fns)
    return seen


def test_adjointness_pairings_are_derivative_pairing_bitwise(monkeypatch) -> None:
    cfg = small()
    seen = _duality_sides(monkeypatch, run_adjointness, cfg)
    ctx = GramContext.build(cfg.covariance_model(), cfg.grid())
    paths = seen["paths"]
    for (u, fn), lhs, rhs in zip(seen["cases"], seen["lhs"], seen["rhs"]):
        assert np.array_equal(lhs, fn.values(paths) * divergence(ctx, u, paths))
        assert np.array_equal(rhs, derivative_pairing(ctx, fn, u, paths))
        # the plain out-of-place form of the pairing formula
        v = field_coefficients(u, paths)
        want = (fn.gradient(paths) * (v @ ctx.sigma[:, list(fn.indices)])).sum(axis=-1)
        assert np.array_equal(rhs, want)


@pytest.mark.parametrize("alpha, beta", [(0.7, 1.2), (1.0, 0.0), (0.0, 1.0)],
                         ids=["general", "beta0", "alpha0"])
def test_mixed_pairings_are_mixed_pairing_bitwise(monkeypatch, alpha, beta) -> None:
    cfg = small(model="mixed", alpha=alpha, beta=beta)
    seen = _duality_sides(monkeypatch, run_mixed, cfg)
    mctx = MixedContext.build(cfg.covariance_model(), cfg.grid())
    ens = sample_mixed(mctx, cfg.paths, cfg.seed)
    assert np.array_equal(ens.paths_x, seen["paths"])
    for (u, fn), lhs, rhs in zip(seen["cases"], seen["lhs"], seen["rhs"]):
        # a component of weight exactly zero carries no field
        pair = (None if alpha == 0.0 else u, None if beta == 0.0 else u)
        delta = mixed_divergence(mctx, *pair, ens)
        assert np.array_equal(lhs, fn.values(ens.paths_x) * delta)
        assert np.array_equal(rhs, mixed_pairing(mctx, fn, *pair, ens))


def test_mixed_row_loop_holds_one_coefficient_table_at_a_time(monkeypatch) -> None:
    # n = 64, m = 20 000: a coefficient table is 10 MiB.  The row loop holds
    # every functional's gradient, one component table and one product of
    # it, and per-path vectors; holding a second table would cross the bound
    n, m = 64, 20_000
    peaks = []
    rows = experiments._duality_rows

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            out = rows(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(experiments, "_duality_rows", traced)
    run_mixed(small(model="mixed", alpha=1.0, beta=1.0, grid_n=n, paths=m))
    grid = TimeGrid.uniform_grid(n)
    grad_bytes = 8 * m * sum(make_functional(name, grid).k for name in catalog_names())
    table_bytes = 8 * m * n
    assert peaks[0] < grad_bytes + 3 * table_bytes


def test_simulate_summary_records_min_eigenvalue_ratio(monkeypatch) -> None:
    rep = run_simulate(small(grid_n=16, paths=2_000))
    ratio = rep.summary["circulant_min_eig_ratio"]
    assert ratio > -1e-9
    timed = run_simulate(small(grid_n=16, paths=2_000, times=(0.1, 0.5, 0.9)))
    assert timed.summary["circulant_min_eig_ratio"] is None
    monkeypatch.setattr(gaussian, "circulant_eigenvalues",
                        lambda h, n: np.r_[-0.5, np.ones(2 * n - 1)])
    fell_back = run_simulate(small(grid_n=16, paths=2_000))
    assert fell_back.summary["samplers"] == ["cholesky", "cholesky"]
    assert fell_back.results[1]["fallback"] is True
    assert fell_back.summary["circulant_min_eig_ratio"] == -0.5


def test_simulate_drops_dense_ensemble_before_circulant_draw(monkeypatch,
                                                              tmp_path) -> None:
    dense_paths = []
    draw = experiments.sample_ensemble
    draw_circulant = experiments.sample_ensemble_circulant

    def sample(*args, **kwargs):
        ens = draw(*args, **kwargs)
        dense_paths.append(weakref.ref(ens.paths))
        return ens

    def sample_circulant(*args, **kwargs):
        gc.collect()
        assert dense_paths[0]() is None
        return draw_circulant(*args, **kwargs)

    monkeypatch.setattr(experiments, "sample_ensemble", sample)
    monkeypatch.setattr(experiments, "sample_ensemble_circulant", sample_circulant)
    export = tmp_path / "paths.bin"
    rep = run_simulate(small(grid_n=16, paths=2_000), export_path=str(export))
    assert rep.summary["samplers"] == ["cholesky", "circulant"]
    assert export.stat().st_size > 8 * 16 * 2_000


def test_simulate_mixed_model() -> None:
    # a mixture goes through the dense sampler and its gates like bm and fbm;
    # the circulant sampler covers one-component models only
    rep = run_simulate(small(model="mixed", alpha=1.0, beta=1.0, grid_n=8,
                             paths=4_000))
    assert rep.passed
    assert rep.summary["samplers"] == ["cholesky"]
    assert rep.summary["circulant_min_eig_ratio"] is None
    assert len(rep.results) == 1
    assert rep.results[0]["max_increment_sigma"] <= 5.0
    one = run_simulate(small(model="mixed", alpha=0.0, beta=1.0, grid_n=8,
                             paths=4_000))
    assert one.passed
    assert one.summary["samplers"] == ["cholesky", "circulant"]


def test_mixed_on_bm_reproduces_adjointness() -> None:
    # bm is the mixture with the single part B of weight 1
    pure = run_adjointness(small(model="bm"))
    mixed = run_mixed(small(model="bm"))
    assert len(pure.results) == 18
    # every column, lhs_mean, rhs_mean and gap_se included, under ==
    assert mixed.results == pure.results
    assert (mixed.summary["alpha"], mixed.summary["beta"]) == (1.0, 0.0)


def test_mixed_small() -> None:
    rep = run_mixed(small(model="mixed", alpha=1.0, beta=1.0, paths=8_000))
    assert rep.passed
    assert rep.summary["rows"] == len(rep.results) == 18
    assert rep.summary["failures"] == 0


def test_mixed_gap_se_at_beta_zero_matches_brownian_run() -> None:
    # beta = 0 runs the Brownian pipeline literally, so the paired SE of
    # every mixed adjointness row is the pure Brownian row's, bit for bit
    pure = run_adjointness(small(model="bm", paths=4_000))
    mixed = run_mixed(small(model="mixed", alpha=1.0, beta=0.0, paths=4_000))
    ref = {(r["functional"], r["field"]): r["gap_se"] for r in pure.results}
    assert len(mixed.results) == len(ref)
    for row in mixed.results:
        assert row["gap_se"] == ref[(row["functional"], row["field"])]


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.0, 1.0), (0.7, 1.2)],
                         ids=["beta0", "alpha0", "general"])
def test_mixed_beta_zero_exact_linear(alpha: float, beta: float) -> None:
    # the linear Clark residual is exact for every weight pair, not only beta = 0
    rep = run_factorization(small(model="mixed", alpha=alpha, beta=beta,
                                  functional="linear", grid_sweep=(8,),
                                  paths=4_000))
    assert rep.passed
    assert rep.summary["exact_case"]
    assert rep.results[0]["residual"] <= 1e-20


@pytest.mark.parametrize("run, kw", [
    (run_adjointness, {}),
    (run_isometry_defect, dict(paths=20_000)),
    (run_remainder_scaling, dict(grid_n=64, paths=20_000)),
    (run_gubinelli_compare, dict(grid_n=32)),
    (run_factorization, dict(paths=20_000, grid_sweep=(8, 16, 32))),
], ids=["adjointness", "isometry", "remainder", "gubinelli", "factorize"])
def test_drivers_run_on_a_mixture(run, kw) -> None:
    # every statistical driver conditions in the mixture's own geometry
    rep = run(small(model="mixed", alpha=1.0, beta=1.0, hurst=0.25, **kw))
    assert rep.passed


def test_verify_all_writes_and_passes(tmp_path) -> None:
    cfg = small(paths=2_000, out_dir=str(tmp_path))
    reports, summary = verify_all(cfg)
    assert summary.passed
    checks = [row["check"] for row in summary.results]
    assert checks == [
        "increment_identity", "projection_lemma", "adjointness_h025",
        "adjointness_h040", "adjointness_bm", "isometry_defect",
        "factorization_exact_bm", "factorization_refinement",
        "remainder_scaling", "gubinelli_bm_exact", "gubinelli_rough",
        "sampler_cross_h025", "sampler_cross_h040", "mixed_adjointness",
        "mixed_beta0", "mixed_alpha0", "degeneration_beta0",
        "degeneration_alpha0",
    ]
    assert len(reports) == len([c for c in checks if not c.startswith("degeneration")])


def test_verify_all_summary_name_carries_mixed_weights(monkeypatch) -> None:
    # every check replaced by a stub report, so that only the summary's
    # own naming is exercised
    def stub(cfg):
        rep = experiments._report(cfg, "stub", cfg.grid_n)
        rep.add(residual=0.0, passed=True)
        return rep

    monkeypatch.setattr(experiments, "_SUITE", {
        name: (stub, overrides)
        for name, (_, overrides) in experiments._SUITE.items()})
    names = {verify_all(small(model="mixed", alpha=alpha, beta=1.0))[1].basename()
             for alpha in (0.7, 1.0)}
    assert len(names) == 2
    assert verify_all(small())[1].basename() == "verify_all_fbm_0.25_8_42"


def test_statistical_experiments_reject_tiny_path_counts() -> None:
    with pytest.raises(ConfigError):
        run_adjointness(small(paths=50))
