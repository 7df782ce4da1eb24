"""Experiment drivers at reduced scale: shapes, gates, and report wiring."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from roughcalc.config import DEFAULTS, ExperimentConfig
from roughcalc.errors import ConfigError
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
    rep = run_projection_lemma(small(grid_n=8, elements=20))
    assert rep.passed
    assert rep.summary["max_gap"] <= 1e-10
    assert rep.summary["bm_projection_max_gap"] <= 1e-12
    assert len(rep.results) == len(DEFAULTS.hurst_sweep)


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


def test_simulate_uniform_runs_both_samplers(tmp_path) -> None:
    rep = run_simulate(small(grid_n=16, paths=4_000),
                       export_path=str(tmp_path / "e.bin"))
    assert rep.passed
    assert rep.summary["samplers"] == ["cholesky", "circulant"]
    assert (tmp_path / "e.bin").exists()
    kinds = [row.get("check") for row in rep.results]
    assert "terminal_var_cross" in kinds


def test_simulate_mixed_model() -> None:
    rep = run_simulate(small(model="mixed", alpha=1.0, beta=1.0, grid_n=8,
                             paths=4_000))
    assert rep.passed


def test_mixed_requires_mixed_model() -> None:
    with pytest.raises(ConfigError):
        run_mixed(small(model="fbm"))


def test_mixed_small() -> None:
    rep = run_mixed(small(model="mixed", alpha=1.0, beta=1.0, paths=8_000))
    assert rep.passed
    kinds = {row.get("kind") for row in rep.results}
    assert kinds == {"adjointness", "clark_residual"}
    assert rep.summary["failures"] == 0


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.0, 1.0), (0.7, 1.2)],
                         ids=["beta0", "alpha0", "general"])
def test_mixed_beta_zero_exact_linear(alpha: float, beta: float) -> None:
    # the linear Clark residual is exact for every weight pair, not only beta = 0
    rep = run_mixed(small(model="mixed", alpha=alpha, beta=beta,
                          functional="linear", paths=4_000))
    assert rep.passed
    resid = [r for r in rep.results if r.get("kind") == "clark_residual"][0]
    assert resid["residual"] <= 1e-20


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


def test_statistical_experiments_reject_tiny_path_counts() -> None:
    with pytest.raises(ConfigError):
        run_adjointness(small(paths=50))
