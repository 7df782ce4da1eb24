"""End-to-end acceptance gate.

Each test below covers one numbered criterion at its stated scale and
tolerance and prints a single pass/fail line (bypassing pytest capture so
the ledger is visible in any run mode).  Statistical checks run at
m = 10^5 paths with fixed seeds; exact checks use machine-precision
tolerances.  The whole module is budgeted well under the suite ceiling.
"""

from __future__ import annotations

import dataclasses
import filecmp
import math
import time

import numpy as np
import pytest

from roughcalc.config import DEFAULTS
from roughcalc.energy import GramContext, project_adapted, representer
from roughcalc.cli import main as cli_main
from roughcalc.experiments import (_compare_rows, run_adjointness,
                                   run_factorization, run_increment_identity,
                                   run_mixed, run_projection_lemma,
                                   run_remainder_scaling, run_simulate)
from roughcalc.gaussian import sample_ensemble
from roughcalc.malliavin import affine_field, divergence, field_norm_sq
from roughcalc.models import CovarianceModel, TimeGrid

M_FULL = 100_000


def cfg_with(**kw):
    return dataclasses.replace(DEFAULTS, **kw)


@pytest.fixture()
def announce(capfd):
    """Verdict-line printer that punches through fd-level capture."""

    def _announce(num: int, ok: bool, detail: str, elapsed: float) -> None:
        line = (f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] "
                f"{detail} ({elapsed:.2f}s)")
        with capfd.disabled():
            print(line, flush=True)

    return _announce


def test_criterion_01_increment_identity(announce) -> None:
    start = time.perf_counter()
    rep = run_increment_identity(cfg_with(seed=42))
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 1.0
    announce(1, ok, f"increment identity, max err {rep.summary['max_rel_err']:.3e} <= 1e-12", elapsed)
    assert rep.passed
    assert elapsed < 1.0


def test_criterion_02_projection_lemma(announce) -> None:
    start = time.perf_counter()
    rep = run_projection_lemma(cfg_with(grid_n=32))
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 10.0
    announce(
        2, ok,
        f"projection lemma, max energy gap {rep.summary['max_gap']:.3e} <= 1e-10",
        elapsed,
    )
    assert rep.passed
    assert rep.summary["max_gap"] <= 1e-10
    assert elapsed < 10.0


def test_criterion_03_adjointness(announce) -> None:
    start = time.perf_counter()
    worst = 0.0
    rows = 0
    ok = True
    for h in (0.25, 0.4):
        rep = run_adjointness(cfg_with(model="fbm", hurst=h, grid_n=32,
                                       paths=M_FULL, seed=42))
        worst = max(worst, rep.summary["max_sigma"])
        rows += len(rep.results)
        ok = ok and rep.passed
    elapsed = time.perf_counter() - start
    ok = ok and rows == 36 and elapsed < 120.0
    announce(3, ok, f"adjointness 6x3 at H=0.25,0.4, worst {worst:.2f} sigma <= 3", elapsed)
    assert ok


def test_criterion_04_quadratic_divergence_identity(announce) -> None:
    start = time.perf_counter()
    ctx = GramContext.build(CovarianceModel.fbm(0.25), TimeGrid.uniform_grid(32))
    assert ctx.sigma[-1, -1] == 1.0  # horizon 1 pins Sigma_TT
    paths = sample_ensemble(ctx, M_FULL, seed=42).paths
    lin = np.zeros((ctx.n, ctx.n))
    lin[-1, -1] = 1.0
    u = affine_field(np.eye(ctx.n), np.zeros(ctx.n), lin)
    delta = divergence(ctx, u, paths)
    pathwise = float(np.max(np.abs(delta - (paths[:, -1] ** 2 - 1.0))))
    mean = float(np.mean(delta))
    se_mean = float(np.std(delta, ddof=1) / math.sqrt(M_FULL))
    d2 = delta**2
    n2 = field_norm_sq(ctx, u, paths)
    gap_var = abs(float(np.mean(d2)) - 2.0)
    se_var = float(np.std(d2, ddof=1) / math.sqrt(M_FULL))
    gap_norm = abs(float(np.mean(n2)) - 1.0)
    se_norm = float(np.std(n2, ddof=1) / math.sqrt(M_FULL))
    elapsed = time.perf_counter() - start
    ok = (
        pathwise <= 1e-12
        and abs(mean) <= 3.0 * se_mean
        and gap_var <= 3.0 * se_var
        and gap_norm <= 3.0 * se_norm
        and elapsed < 30.0
    )
    announce(
        4, ok,
        f"delta(X_T k_T) = X_T^2 - 1 pathwise {pathwise:.1e}; 2 = 1 + 1 within 3 SE",
        elapsed,
    )
    assert ok


def test_criterion_05_brownian_exactness(announce) -> None:
    start = time.perf_counter()
    rep = run_factorization(cfg_with(model="bm", functional="linear",
                                     grid_n=32, grid_sweep=(32,),
                                     paths=20_000, seed=42))
    ctx = GramContext.build(CovarianceModel.bm(), TimeGrid.uniform_grid(32))
    proj_gap = 0.0
    for j in range(1, ctx.n):
        for i in range(j - 1, ctx.n):
            p = project_adapted(ctx, representer(ctx, i), j)
            want = representer(ctx, min(i, j - 1))
            proj_gap = max(proj_gap, float(np.max(np.abs(p - want))))
    elapsed = time.perf_counter() - start
    residual = rep.summary["max_residual"]
    ok = rep.passed and residual <= 1e-20 and proj_gap <= 1e-12 and elapsed < 1.0
    announce(
        5, ok,
        f"Brownian linear residual {residual:.1e} <= 1e-20, P_s k_t = k_s gap {proj_gap:.1e}",
        elapsed,
    )
    assert ok


def test_criterion_06_factorization_refinement(announce) -> None:
    start = time.perf_counter()
    rep = run_factorization(cfg_with(model="fbm", hurst=0.25,
                                     functional="quadratic",
                                     grid_sweep=(8, 16, 32, 64),
                                     paths=M_FULL, seed=42))
    elapsed = time.perf_counter() - start
    residuals = [row["residual"] for row in rep.results]
    halved = residuals[-1] < residuals[0] / 2.0
    ok = rep.passed and rep.summary["monotone_strict"] and halved and elapsed < 300.0
    announce(
        6, ok,
        "factorization residuals "
        + " > ".join(f"{r:.4f}" for r in residuals)
        + f", ratio {rep.summary['ratio_last_first']:.3f} < 0.5",
        elapsed,
    )
    assert ok


def test_criterion_07_remainder_scaling(announce) -> None:
    start = time.perf_counter()
    rep = run_remainder_scaling(cfg_with(model="fbm", hurst=0.25, grid_n=128,
                                         paths=M_FULL, seed=42,
                                         functional="quadratic"))
    elapsed = time.perf_counter() - start
    s = rep.summary
    ok = (rep.passed and s["r_squared"] >= 0.98 and math.isfinite(s["slope"])
          and s["offsets_used"] == 6 and elapsed < 180.0)
    announce(
        7, ok,
        f"remainder scaling R^2 {s['r_squared']:.4f} >= 0.98, slope "
        f"{s['slope']:.3f} vs reference {s['reference_exponent']:.1f} (recorded)",
        elapsed,
    )
    assert ok


def test_criterion_08_sampler_cross_validation(announce) -> None:
    start = time.perf_counter()
    ok = True
    worst_incr = 0.0
    for h in (0.25, 0.4):
        rep = run_simulate(cfg_with(model="fbm", hurst=h, grid_n=64,
                                    paths=M_FULL, seed=42))
        ok = ok and rep.passed
        worst_incr = max(
            worst_incr,
            max(row["max_increment_sigma"] for row in rep.results
                if "max_increment_sigma" in row),
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    announce(
        8, ok,
        f"cholesky vs circulant at H=0.25,0.4: increments within {worst_incr:.2f} <= 5 SE",
        elapsed,
    )
    assert ok


def test_criterion_09_mixed_process(announce) -> None:
    start = time.perf_counter()
    # componentwise adjointness at full scale
    rep_11 = run_mixed(cfg_with(model="mixed", alpha=1.0, beta=1.0,
                                hurst=0.25, grid_n=32, paths=M_FULL, seed=42))
    # degenerations at shared seed: beta = 0 shares every computation with
    # the Brownian pipeline, alpha = 0 samples different noise
    base = cfg_with(model="fbm", hurst=0.25, grid_n=32, paths=20_000, seed=42)
    adj_bm = run_adjointness(dataclasses.replace(base, model="bm"))
    adj_fbm = run_adjointness(base)
    mixed_b0 = run_mixed(cfg_with(model="mixed", alpha=1.0, beta=0.0,
                                  hurst=0.25, grid_n=32, paths=20_000,
                                  seed=42))
    mixed_a0 = run_mixed(cfg_with(model="mixed", alpha=0.0, beta=1.0,
                                  hurst=0.25, grid_n=32, paths=20_000,
                                  seed=42))
    deg_b0 = _compare_rows(adj_bm, mixed_b0, exact=True)
    deg_a0 = _compare_rows(adj_fbm, mixed_a0, exact=False)
    # the (1, 0) mixture's Clark residual is bm's, bit for bit
    exact = dict(functional="linear", grid_sweep=(32,))
    bm_exact = run_factorization(dataclasses.replace(base, model="bm", **exact))
    b0_exact = run_factorization(dataclasses.replace(
        base, model="mixed", alpha=1.0, beta=0.0, **exact))
    elapsed = time.perf_counter() - start
    ok = (rep_11.passed and deg_b0["passed"] and deg_a0["passed"]
          and b0_exact.passed and b0_exact.results == bm_exact.results
          and elapsed < 120.0)
    announce(
        9, ok,
        f"mixed componentwise {rep_11.summary['max_sigma']:.2f} sigma <= 3; "
        f"beta=0 shared-computation gap {deg_b0['worst']:.1e} <= 1e-12; "
        f"alpha=0 within {deg_a0['worst']:.2f} <= 3 combined SE",
        elapsed,
    )
    assert ok


def test_criterion_10_determinism(tmp_path, announce) -> None:
    start = time.perf_counter()
    d1, d2 = tmp_path / "w1", tmp_path / "w4"
    for d, workers in ((d1, 1), (d2, 4)):
        rc = cli_main(["verify-all", "--workers", str(workers),
                       "--out-dir", str(d)])
        assert rc == 0
    names1 = sorted(p.name for p in d1.iterdir())
    names2 = sorted(p.name for p in d2.iterdir())
    identical = names1 == names2 and all(
        filecmp.cmp(d1 / n, d2 / n, shallow=False) for n in names1
    )
    elapsed = time.perf_counter() - start
    announce(
        10, identical,
        f"verify-all twice (workers 1 vs 4): {len(names1)} files byte-identical",
        elapsed,
    )
    assert identical
