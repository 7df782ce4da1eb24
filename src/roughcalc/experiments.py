"""Experiment drivers: the statistical and exact checks behind the CLI.

Each ``run_*`` function takes an ExperimentConfig, computes one experiment
on a freshly sampled ensemble, and returns an ExperimentReport whose rows
and summary are plain dicts of Python scalars.  Pass criteria follow two
regimes:

* statistical identities (adjointness, isometry defect, sampler agreement)
  are two-sided tests at 3 standard errors (5 for sampler cross-checks),
  with the combined SE of the two estimates as the yardstick;
* linear-algebra identities (projection routes, the exact Clark residual
  of the linear functional, pathwise divergence formulas) use absolute
  tolerances.

Every statistical driver runs on every model, mixtures included, with X's
own Gram as the conditioning geometry.

Every report embeds the effective config and is byte-identical under rerun
with the same seed, for any worker count: randomness is keyed by (seed,
stream, chunk) only, and wall-clock time never enters a report.

Stream ids keep ensembles reproducible and non-overlapping:

    0     primary ensemble of every experiment
    1     circulant-sampler ensemble in the sampler cross-check
    77    the random (H, s, t) triples of the increment-identity check
    9001  random energy-space elements in the projection-lemma check
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import replace

import numpy as np
from scipy.special import kolmogorov, ndtr

from .config import ExperimentConfig, float_label
from .energy import (GramContext, increment_element, inner_product, project_adapted,
                     representer)
from .errors import ConfigError, IllConditionedModelError
from .functionals import CylindricalFunctional, catalog_names, make_functional
from .gaussian import (BLOCK_BYTES, PathEnsemble, RngStream, conditional_law,
                       sample_ensemble, sample_ensemble_circulant, write_ensemble)
from .malliavin import (VectorField, _pairings, affine_field, clark_integrand,
                        conditional_value, deterministic_field, divergence,
                        field_coefficients, field_norm_sq, increment_directions,
                        isometry_defect_affine, predictable_projection)
from .mixed import MixedContext, sample_mixed
from .models import CovarianceModel, increment_variance
from .reporting import ExperimentReport

__all__ = [
    "run_adjointness",
    "run_factorization",
    "run_remainder_scaling",
    "run_gubinelli_compare",
    "run_isometry_defect",
    "run_projection_lemma",
    "run_simulate",
    "run_mixed",
    "run_increment_identity",
    "verify_all",
]

STREAM_PRIMARY = 0
STREAM_CIRCULANT = 1
STREAM_INCREMENTS = 77
STREAM_ELEMENTS = 9001

# Anchor fractions of the horizon for local expansion experiments; offsets
# are small multiples of the grid step so every (s, t) pair stays on-grid.
_GUBINELLI_ANCHORS = (0.25, 0.375, 0.5, 0.625, 0.75)
_GUBINELLI_STEPS = (1, 2, 4, 8)
# Dyadic offsets probed by the remainder experiment.
_REMAINDER_OFFSETS = 6
# Random energy-space elements and Hurst values of the projection lemma.
_LEMMA_ELEMENTS = 100
_LEMMA_HURSTS = (0.1, 0.25, 0.4, 0.5)

_EXACT_RESIDUAL_TOL = 1e-20
_INCREMENT_SAMPLES = 1000
_ROUTE_TOL = 1e-10
_BM_PROJECTION_TOL = 1e-12


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise IllConditionedModelError("a sample moment is not finite: the model's "
                                       "variance scale overflows a functional or field")
    m = x.size
    se = float(np.std(x, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return float(np.mean(x)), se


def _var_se(x: np.ndarray) -> tuple[float, float]:
    """Sample variance and its Gaussian-theory standard error."""
    x = np.asarray(x, dtype=float)
    v = float(np.var(x, ddof=1))
    return v, v * math.sqrt(2.0 / (x.size - 1))


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = math.sqrt(float(a @ a) * float(b @ b))
    if denom == 0.0:
        return float("nan")
    return float(a @ b) / denom


def _rel_l2(pred: np.ndarray, target: np.ndarray) -> float:
    norm = float(np.linalg.norm(target))
    return float(np.linalg.norm(pred - target)) / norm if norm > 0 else float("nan")


def _sigma_units(gap: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if gap == 0.0 else float("inf")
    return abs(gap) / se


def _setup(cfg: ExperimentConfig, n: int | None = None):
    """Gram context and primary-stream ensemble of a statistical run, in the
    geometry of X itself: the mixture's Gram for a mixture."""
    cfg.require_statistical()
    ctx = GramContext.build(cfg.covariance_model(), cfg.grid(n))
    return ctx, sample_ensemble(ctx, cfg.paths, cfg.seed, stream=STREAM_PRIMARY,
                                workers=cfg.workers)


def _summarize(report: ExperimentReport, **summary) -> ExperimentReport:
    """Set the summary plus the count of failed rows; pass when it is 0."""
    failures = sum(not r["passed"] for r in report.results)
    report.summary = {**summary, "failures": failures}
    report.passed = failures == 0
    return report


def _report(cfg: ExperimentConfig, experiment: str, n: int) -> ExperimentReport:
    # Mixed runs with different weights must not share an output file name.
    model = cfg.model
    if model == "mixed":
        model = f"mixed-{float_label(cfg.alpha)}-{float_label(cfg.beta)}"
    return ExperimentReport(
        experiment=experiment,
        config=cfg.echo(),
        model=model,
        hurst_label=float_label(cfg.covariance_model().hurst),
        grid_label=n,
        seed=cfg.seed,
    )


def _clark_residual(ctx: GramContext, fn: CylindricalFunctional,
                    paths: np.ndarray) -> tuple[float, float]:
    """Mean and SE of (F - E[F] - delta(u))^2, u the Clark integrand of F.

    E[F] is the j = 0 conditional value.  Exact centering keeps the
    Brownian telescoping residual at roundoff; a sample mean would put a
    Var(F)/m floor under it."""
    mean = float(conditional_value(ctx, fn, 0, np.zeros((1, ctx.n)))[0])
    delta = divergence(ctx, clark_integrand(ctx, fn), paths)
    return _mean_se((fn.values(paths) - mean - delta) ** 2)


def _duality_rows(report: ExperimentReport, paths: np.ndarray, parts, fields) -> float:
    """One row per catalog functional x field: E[F delta(u)] against
    E[<DF, u>] at 3 combined SE; returns the worst sigma.

    ``paths`` are the observed paths X, which the functionals and the field
    coefficients read, and ``parts`` the weighted components (ctx, component
    paths, weight) of X: one part of weight 1 for bm/fbm, B then B^H for a
    mixture.  delta(u) and <DF, u> are sums over the parts, started from 0.
    Each gradient is computed once and each field's coefficient table once,
    one field at a time; rows are added functional by functional.  Every row
    carries the paired SE of the per-path gap.
    """
    fns = [make_functional(name, parts[0][0].grid) for name in catalog_names()]
    values = [fn.values(paths) for fn in fns]
    deltas = [sum(divergence(ctx, u, own, paths, weight) for ctx, own, weight in parts)
              for _, u in fields]
    grads = [fn.gradient(paths) for fn in fns]
    rows = [[] for _ in fns]
    worst = 0.0
    for (field_name, u), delta in zip(fields, deltas):
        pairings = [0.0] * len(fns)  # frees the last field's sums first
        v = field_coefficients(u, paths)
        for ctx, _, weight in parts:
            pairings = [total + weight * p
                        for total, p in zip(pairings, _pairings(ctx, fns, grads, v))]
        del v  # before the next field's table is built
        for fn, value, rhs, fn_rows in zip(fns, values, pairings, rows):
            lhs = value * delta
            lhs_mean, lhs_se = _mean_se(lhs)
            rhs_mean, rhs_se = _mean_se(rhs)
            gap = lhs_mean - rhs_mean
            se_combined = math.hypot(lhs_se, rhs_se)
            sigma = _sigma_units(gap, se_combined)
            worst = max(worst, sigma)
            fn_rows.append(dict(
                functional=fn.name, field=field_name, lhs_mean=lhs_mean,
                lhs_se=lhs_se, rhs_mean=rhs_mean, rhs_se=rhs_se, gap=gap,
                gap_se=_mean_se(lhs - rhs)[1], se_combined=se_combined,
                passed=bool(sigma <= 3.0)))
    for row in (row for fn_rows in rows for row in fn_rows):
        report.add(**row)
    return worst


def _anchor(ctx: GramContext, fn: CylindricalFunctional, i_s: int,
            paths: np.ndarray):
    """M_s = E[F | prefix through s], E[DF | prefix], and the projected
    pairing t -> <(Pi DF)_s, k_t - k_s> per path, read off the factored
    `predictable_projection`."""
    j_s = i_s + 1
    m_s = conditional_value(ctx, fn, j_s, paths)
    cond_grad, y_s = predictable_projection(ctx, fn, j_s, paths)

    def projected(i_t: int) -> np.ndarray:
        return cond_grad @ (y_s.T @ (ctx.sigma[:j_s, i_t] - ctx.sigma[:j_s, i_s]))

    return m_s, cond_grad, projected


# --- test fields -------------------------------------------------------------


def _test_fields(ctx: GramContext) -> list[tuple[str, VectorField]]:
    """The fixed three-field suite: one per adaptedness regime.

    * ``deterministic``: u = k_T, the terminal representer.
    * ``adapted_affine``: increment directions with a_s = 1 + X_{t_{s-1}}
      (slot 0 reads nothing), predictable by construction.
    * ``nonadapted_affine``: increment directions with a_s = X_{t_N}, every
      slot reading the terminal value.

    The fields depend on ``ctx`` only through n, so one list serves every
    component of a mixture.
    """
    n = ctx.n
    term = representer(ctx, n - 1)[None, :]
    w = increment_directions(ctx)
    lin_term = np.repeat(term, n, axis=0)
    return [
        ("deterministic", deterministic_field(term, np.array([1.0]))),
        ("adapted_affine", affine_field(w, np.ones(n), np.eye(n, k=-1))),
        ("nonadapted_affine", affine_field(w, np.zeros(n), lin_term)),
    ]


# --- adjointness -------------------------------------------------------------


def run_adjointness(cfg: ExperimentConfig) -> ExperimentReport:
    """E[F delta(u)] vs E[<DF, u>] across the catalog and the field suite.

    Both sides are estimated on the same paths; the pass band is 3 combined
    standard errors.  The paired SE of the per-path gap is reported too, as
    the sharper (correlation-aware) yardstick.
    """
    ctx, ens = _setup(cfg)
    report = _report(cfg, "adjointness", ctx.n)
    worst = _duality_rows(report, ens.paths, [(ctx, ens.paths, 1.0)],
                          _test_fields(ctx))
    return _summarize(report, rows=len(report.results), max_sigma=worst,
                      jitter=ctx.jitter)


# --- martingale factorization ------------------------------------------------


def run_factorization(cfg: ExperimentConfig) -> ExperimentReport:
    """L2 residual of F - E[F] = delta(u) with the predictable integrand,
    across a grid-refinement sweep.

    For the piecewise-linear functional the Clark field along innovation
    directions is exact at every H, so every residual must sit at roundoff
    (<= 1e-20).  Otherwise the asserted predicate is refinement: strictly
    decreasing residuals with the finest at most half the coarsest, which
    needs at least two grid sizes.
    """
    if cfg.times:
        raise ConfigError("the factorization sweep refines uniform grids")
    sweep = tuple(sorted(set(cfg.grid_sweep)))
    exact_case = cfg.functional == "linear"
    need = 1 if exact_case else 2
    if len(sweep) < need:
        raise ConfigError(f"grid_sweep must name at least {need} distinct grid "
                          f"size(s) for functional {cfg.functional!r}")
    report = _report(cfg, "factorization", sweep[-1])
    residuals = []
    for n in sweep:
        ctx, ens = _setup(cfg, n)
        fn = make_functional(cfg.functional, ctx.grid)
        residual, se = _clark_residual(ctx, fn, ens.paths)
        residuals.append(residual)
        report.add(grid_n=n, residual=residual, se=se, jitter=ctx.jitter)
    res = np.asarray(residuals)
    monotone = bool(np.all(np.diff(res) < 0.0))
    halved = bool(res[-1] < 0.5 * res[0])
    report.summary = {
        "monotone_strict": monotone,
        "ratio_last_first": float(res[-1] / res[0]) if res[0] > 0 else 0.0,
        "max_residual": float(res.max()),
        "exact_case": exact_case,
    }
    report.passed = (bool(res.max() <= _EXACT_RESIDUAL_TOL) if exact_case
                     else monotone and halved)
    return report


# --- remainder scaling -------------------------------------------------------


def _dyadic_offset_indices(grid, i_s: int) -> list[int]:
    """Grid indices of t = s + (T/2) 2^{-q}, q = 1.._REMAINDER_OFFSETS,
    snapped and deduplicated; needs at least 5 distinct usable offsets.

    q starts at 1 so the largest offset is T/4 and no probe touches the
    horizon endpoint, keeping the regression inside the interior scaling
    window."""
    s_time = grid.times[i_s]
    indices: list[int] = []
    for q in range(1, _REMAINDER_OFFSETS + 1):
        t = s_time + 0.5 * grid.horizon * 2.0 ** (-q)
        i_t = grid.index_of(t)
        if i_t > i_s and i_t not in indices:
            indices.append(i_t)
    if len(indices) < 5:
        raise ConfigError(
            f"only {len(indices)} distinct offsets land on the grid; "
            "need at least 5 (refine the grid)"
        )
    return indices


def run_remainder_scaling(cfg: ExperimentConfig) -> ExperimentReport:
    """Second-order remainder of the local expansion of M_t = E[F | prefix].

    Per path, R(s, t) = M_t - M_s - <(Pi DF)_s, k_t - k_s> with s fixed at
    the horizon midpoint and dyadic offsets t - s.  The report fits a
    log-log line to E[R^2] and places the slope next to the 4H reference;
    the fit quality (R^2 >= 0.98) is asserted, the exponent itself is data.
    """
    ctx, ens = _setup(cfg)
    grid = ctx.grid
    fn = make_functional(cfg.functional, grid)
    i_s = grid.index_of(0.5 * grid.horizon)
    offsets = _dyadic_offset_indices(grid, i_s)
    m_s, _, projected = _anchor(ctx, fn, i_s, ens.paths)

    report = _report(cfg, "remainder", grid.n)
    gaps = []
    mean_r2 = []
    for i_t in offsets:
        r = conditional_value(ctx, fn, i_t + 1, ens.paths) - m_s - projected(i_t)
        e_r2, se = _mean_se(r**2)
        gap = float(grid.times[i_t] - grid.times[i_s])
        gaps.append(gap)
        mean_r2.append(e_r2)
        incr = increment_element(ctx, i_s, i_t)
        report.add(
            offset=gap,
            mean_r_sq=e_r2,
            se=se,
            increment_norm_sq=inner_product(ctx, incr, incr),
            increment_var_model=increment_variance(ctx.model, float(grid.times[i_s]),
                                                   float(grid.times[i_t])),
        )
    x = np.log(np.asarray(gaps))
    y = np.log(np.asarray(mean_r2))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    reference = 4.0 * ctx.model.hurst
    report.summary = {
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": r_squared,
        "reference_exponent": reference,
        "slope_gap": float(slope) - reference,
        "offsets_used": len(offsets),
        "jitter": ctx.jitter,
    }
    report.passed = bool(math.isfinite(slope) and r_squared >= 0.98)
    return report


# --- local slope comparison --------------------------------------------------


def run_gubinelli_compare(cfg: ExperimentConfig) -> ExperimentReport:
    """Two candidates for the local derivative of M_t = E[F | prefix] along X.

    Candidate (a) pairs the conditionally expected derivative with the
    increment representer:  gamma_pair = <E[DF | prefix], k_t - k_s> /
    ||k_t - k_s||^2.  Candidate (b) regresses M_t - M_s on X_t - X_s per
    path across small offsets.  Rows report the ensemble correlation of the
    two increment predictions and each candidate's relative L2 error
    against the realized M_t - M_s.  The spatially projected pairing
    <(Pi DF)_s, k_t - k_s> is recorded alongside; it degenerates to zero in
    the martingale case, which is why the normalized unprojected pairing is
    the candidate that can match the regression.

    For the piecewise-linear functional at H = 1/2 both candidates recover
    the same constant slope exactly (up to roundoff), and that agreement is
    asserted; rough-regime rows are reported without a pass threshold.
    """
    ctx, ens = _setup(cfg)
    grid = ctx.grid
    sigma = ctx.sigma
    fn = make_functional(cfg.functional, grid)
    idx = np.asarray(fn.indices, dtype=int)
    report = _report(cfg, "gubinelli", grid.n)

    for frac in _GUBINELLI_ANCHORS:
        i_s = grid.index_of(frac * grid.horizon)
        steps = [k for k in _GUBINELLI_STEPS if i_s + k < grid.n]
        if len(steps) < 2:
            continue
        m_s, cond_grad, projected = _anchor(ctx, fn, i_s, ens.paths)
        dm = {k: conditional_value(ctx, fn, i_s + k + 1, ens.paths) - m_s
              for k in steps}
        dx = {k: ens.paths[:, i_s + k] - ens.paths[:, i_s] for k in steps}
        num = sum(dm[k] * dx[k] for k in steps)
        den = sum(dx[k] ** 2 for k in steps)
        gamma_reg = num / den
        for k in steps:
            i_t = i_s + k
            norm_sq = sigma[i_t, i_t] - 2.0 * sigma[i_t, i_s] + sigma[i_s, i_s]
            gamma_pair = cond_grad @ (sigma[idx, i_t] - sigma[idx, i_s]) / norm_sq
            pred_pair = gamma_pair * dx[k]
            pred_reg = gamma_reg * dx[k]
            report.add(
                s=float(grid.times[i_s]),
                t=float(grid.times[i_t]),
                offset=float(grid.times[i_t] - grid.times[i_s]),
                corr_predictions=_pearson(pred_pair, pred_reg),
                rel_l2_pairing=_rel_l2(pred_pair, dm[k]),
                rel_l2_regression=_rel_l2(pred_reg, dm[k]),
                gamma_pair_mean=float(np.mean(gamma_pair)),
                gamma_reg_mean=float(np.mean(gamma_reg)),
                max_candidate_gap=float(np.max(np.abs(gamma_pair - gamma_reg))),
                projected_pairing_rms=float(np.sqrt(np.mean(projected(i_t)**2))),
            )
    rows = report.results
    if not rows:
        raise ConfigError(f"no anchor of a {grid.n}-point grid has two on-grid "
                          "offsets; refine the grid")
    # Running extremes in row order, seeded as 0 and inf; NaN rows never win.
    max_rel_pair = max([0.0] + [r["rel_l2_pairing"] for r in rows])
    max_rel_reg = max([0.0] + [r["rel_l2_regression"] for r in rows])
    min_corr = min([float("inf")] + [r["corr_predictions"] for r in rows])
    max_candidate_gap = max([0.0] + [r["max_candidate_gap"] for r in rows])
    # Unlike the Clark residual, the two candidates agree only at H = 1/2.
    exact_case = ctx.model.hurst == 0.5 and cfg.functional == "linear"
    report.summary = {
        "max_rel_l2_pairing": max_rel_pair,
        "max_rel_l2_regression": max_rel_reg,
        "min_corr": min_corr,
        "max_candidate_gap": max_candidate_gap,
        "exact_case": exact_case,
        "jitter": ctx.jitter,
    }
    report.passed = not exact_case or bool(
        max_rel_pair <= 1e-8 and max_rel_reg <= 1e-8
        and max_candidate_gap <= 1e-8 and min_corr >= 1.0 - 1e-10)
    return report


# --- isometry defect ---------------------------------------------------------


def _affine_moments(ctx: GramContext, u: VectorField, paths: np.ndarray):
    """delta(u) per path, the isometry-defect columns of an affine field u,
    and whether the measured defect is within 3 combined SE of the closed
    form."""
    delta = divergence(ctx, u, paths)
    e_d2, se_d2 = _mean_se(delta**2)
    e_n2, se_n2 = _mean_se(field_norm_sq(ctx, u, paths))
    closed = isometry_defect_affine(ctx, u)
    se_comb = math.hypot(se_d2, se_n2)
    moments = dict(e_delta_sq=e_d2, se_delta_sq=se_d2, e_norm_sq=e_n2,
                   se_norm_sq=se_n2, defect_measured=e_d2 - e_n2,
                   defect_closed=closed, se_combined=se_comb)
    return delta, moments, _sigma_units(e_d2 - e_n2 - closed, se_comb) <= 3.0


def run_isometry_defect(cfg: ExperimentConfig) -> ExperimentReport:
    """E[delta(u)^2] - E[||u||^2] against the closed-form double contraction.

    Three affine fields: a deterministic one (defect zero, first-chaos
    isometry), the terminal field u = X_T k_T (pathwise divergence formula
    checked exactly; defect Sigma_TT^2), and the adapted affine suite field
    (defect vanishes at H = 1/2, strictly positive in the rough regime).
    """
    ctx, ens = _setup(cfg)
    n = ctx.n
    sigma_tt = float(ctx.sigma[n - 1, n - 1])
    report = _report(cfg, "isometry", n)
    fields = dict(_test_fields(ctx))

    # deterministic u = k_T: delta = X_T, ||u||^2 = Sigma_TT, defect 0.
    _, moments, defect_ok = _affine_moments(ctx, fields["deterministic"], ens.paths)
    report.add(field="deterministic", **moments, passed=bool(defect_ok))

    # u = X_T k_T: delta = X_T^2 - Sigma_TT per path, defect = Sigma_TT^2.
    term = fields["deterministic"].directions
    delta, moments, defect_ok = _affine_moments(
        ctx, affine_field(term, np.zeros(1), term), ens.paths)
    pathwise_gap = float(np.max(np.abs(delta - (ens.paths[:, n - 1]**2 - sigma_tt))))
    mean_delta, se_delta = _mean_se(delta)
    ok = (pathwise_gap <= 1e-12 and _sigma_units(mean_delta, se_delta) <= 3.0
          and defect_ok)
    report.add(field="terminal_linear", **moments, pathwise_gap=pathwise_gap,
               mean_delta=mean_delta, se_delta=se_delta, passed=bool(ok))

    # adapted affine field: closed form vs measurement.  At H = 1/2 the
    # closed form is 0 (increment orthogonality); in the rough regime it is
    # nonzero but of either sign, so significance is recorded, not asserted.
    _, moments, defect_ok = _affine_moments(ctx, fields["adapted_affine"], ens.paths)
    nonzero = abs(moments["defect_measured"]) > 3.0 * moments["se_combined"]
    report.add(field="adapted_affine", **moments,
               defect_nonzero_3se=bool(nonzero), passed=bool(defect_ok))
    return _summarize(report, jitter=ctx.jitter)


# --- projection lemma --------------------------------------------------------


def _max_energy_gap(sigma_jj: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Max over columns of ||a - b|| in the energy norm of the leading block."""
    d = a - b
    q = np.einsum("ik,ij,jk->k", d, sigma_jj, d)
    return float(np.sqrt(np.clip(q, 0.0, None)).max()) if q.size else 0.0


def run_projection_lemma(cfg: ExperimentConfig) -> ExperimentReport:
    """Three routes to the adapted projection must coincide.

    For random elements h and every prefix length j, compares coefficients
    from (1) the cached leading-block Cholesky solve, (2) a dense solve of
    the same normal equations, and (3) the conditional-law mean map (the
    conditional expectation of I(h) restricted to the first chaos).  The
    discrepancy bound is 1e-10 in the energy norm, across the Hurst sweep.

    The Brownian reduction P_j k_t = k_{last observed} is checked on the
    side at 1e-12.
    """
    grid = cfg.grid()
    n = grid.n
    gen = RngStream(cfg.seed, STREAM_ELEMENTS).generator(0)
    elements = gen.standard_normal((_LEMMA_ELEMENTS, n))
    report = _report(cfg, "lemma", n)
    overall = 0.0
    for h in _LEMMA_HURSTS:
        ctx = GramContext.build(CovarianceModel.fbm(h), grid)
        sigma = ctx.sigma
        rhs_full = elements @ sigma  # row i = (Sigma h_i)^T
        gap_dense = 0.0
        gap_meanmap = 0.0
        for j in range(1, n + 1):
            rhs = rhs_full[:, :j].T
            y1 = ctx.solve_leading(j, rhs)
            y2 = np.linalg.solve(sigma[:j, :j], rhs)
            law = conditional_law(ctx, j)
            y3 = elements[:, :j].T + law.mean_map.T @ elements[:, j:].T
            block = sigma[:j, :j]
            gap_dense = max(gap_dense, _max_energy_gap(block, y1, y2))
            gap_meanmap = max(gap_meanmap, _max_energy_gap(block, y1, y3))
        overall = max(overall, gap_dense, gap_meanmap)
        report.add(hurst=float(h), max_gap_dense=gap_dense,
                   max_gap_meanmap=gap_meanmap, jitter=ctx.jitter)

    ctx_bm = GramContext.build(CovarianceModel.bm(), grid)
    bm_gap = 0.0
    for j in range(1, n + 1):
        target = representer(ctx_bm, j - 1)
        for i in range(j - 1, n):
            p = project_adapted(ctx_bm, representer(ctx_bm, i), j)
            d = p - target
            bm_gap = max(bm_gap, math.sqrt(max(float(d @ ctx_bm.sigma @ d), 0.0)))
    report.summary = {
        "max_gap": overall,
        "bm_projection_max_gap": bm_gap,
        "elements": _LEMMA_ELEMENTS,
    }
    report.passed = bool(overall <= _ROUTE_TOL and bm_gap <= _BM_PROJECTION_TOL)
    return report


# --- sampler checks ----------------------------------------------------------


def _increment_stats(paths: np.ndarray) -> tuple[np.ndarray, float]:
    """Sample variance (ddof 1) of each increment column, with the path
    starting at 0, and the Pearson correlation of the pooled lag-1 pairs.

    The increments are formed BLOCK_BYTES worth of columns at a time and
    transposed, so that each column reduces as one contiguous row (the
    same pairwise sums as a column on its own); a block starts one column
    early so that its first lag pair straddles the previous block.
    """
    m, n = paths.shape
    variances = np.empty(n)
    col_sum = np.empty(n)
    col_sq = np.empty(n)
    lag = np.empty(max(n - 1, 0))
    cols = max(1, BLOCK_BYTES // (8 * m))
    for c0 in range(0, n, cols):
        c1 = min(c0 + cols, n)
        lo = max(c0 - 1, 0)
        prev = paths[:, lo - 1:lo] if lo else 0.0
        block = np.diff(paths[:, lo:c1], axis=1, prepend=prev).T.copy()
        own = block[c0 - lo:]
        variances[c0:c1] = np.var(own, axis=1, ddof=1)
        col_sum[c0:c1] = own.sum(axis=1)
        col_sq[c0:c1] = np.einsum("ij,ij->i", own, own)
        lag[lo:c1 - 1] = np.einsum("ij,ij->i", block[:-1], block[1:])
    # raw moments of a = columns 0..n-2 and b = columns 1..n-1
    count = m * (n - 1)
    if count == 0:
        return variances, float("nan")
    sa, sb = float(col_sum[:-1].sum()), float(col_sum[1:].sum())
    cov = float(lag.sum()) - sa * sb / count
    var_a = float(col_sq[:-1].sum()) - sa * sa / count
    var_b = float(col_sq[1:].sum()) - sb * sb / count
    denom = math.sqrt(var_a * var_b)
    return variances, cov / denom if denom > 0.0 else float("nan")


def _ks_normal(sample: np.ndarray, sd: float) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic of ``sample`` against N(0, sd^2) and its
    asymptotic (Kolmogorov distribution) p-value.

    D = max(max(i/N - cdf), max(cdf - (i-1)/N)) over the sorted sample: the
    statistic of ``scipy.stats.kstest`` bit for bit, without importing
    scipy.stats, which costs most of a second on every start.
    """
    cdf = ndtr(np.sort(sample) / sd)
    n = cdf.size
    d = max(float((np.arange(1.0, n + 1) / n - cdf).max()),
            float((cdf - np.arange(0.0, n) / n).max()))
    return d, float(np.clip(kolmogorov(math.sqrt(n) * d), 0.0, 1.0))


def _sampler_stats(ctx: GramContext, ens: PathEnsemble) -> dict:
    model, grid, paths = ctx.model, ctx.grid, ens.paths
    m = paths.shape[0]
    terminal = paths[:, -1]
    var_term, se_var = _var_se(terminal)
    theory_var = float(increment_variance(model, 0.0, float(grid.times[-1])))
    ks_stat, ks_pvalue = _ks_normal(terminal, math.sqrt(theory_var))
    variances, lag1 = _increment_stats(paths)
    t_lo = np.concatenate(([0.0], grid.times[:-1]))
    se_factor = math.sqrt(2.0 / (m - 1))
    worst = 0.0
    for i in range(grid.n):
        v = float(variances[i])
        theory = increment_variance(model, float(t_lo[i]), float(grid.times[i]))
        worst = max(worst, _sigma_units(v - theory, v * se_factor))
    return {
        "sampler": ens.sampler,
        "fallback": bool(ens.fallback),
        "paths": int(m),
        "terminal_mean": float(terminal.mean()),
        "terminal_var": var_term,
        "terminal_var_se": se_var,
        "terminal_var_model": theory_var,
        "ks_stat": ks_stat,
        "ks_pvalue": ks_pvalue,
        "max_increment_sigma": worst,
        "lag1_increment_corr": lag1,
    }


def run_simulate(cfg: ExperimentConfig, export_path: str | None = None
                 ) -> ExperimentReport:
    """Sample the configured model and validate marginals.

    Every model, mixtures included, is drawn by the dense sampler, and
    every increment variance must sit within 5 SE of the model value.  On
    uniform grids a one-component model (one weight zero) is also drawn by
    the circulant sampler, and the two terminal variances must agree within
    5 joint SE.  A Kolmogorov-Smirnov test of the terminal marginal is
    recorded per sampler, with the asymptotic (Kolmogorov distribution)
    p-value, but not gated: at the 1% level it trips by chance on about one
    run in fifty, which would make a deterministic pipeline flaky.  The
    gates are statistical, so fewer than MIN_STATISTICAL_PATHS paths are a
    config error.  The summary records the circulant embedding's min/max
    eigenvalue ratio (None without a circulant run).
    The optional export writes the dense ensemble in the binary format,
    before the circulant draw, so that one ensemble is held at a time.
    """
    ctx, dense = _setup(cfg)
    report = _report(cfg, "simulate", ctx.n)
    rows = [_sampler_stats(ctx, dense)]
    if export_path is not None:
        write_ensemble(export_path, dense)
    del dense  # one ensemble in memory at a time
    min_eig_ratio = None
    if ctx.grid.uniform and not (ctx.model.alpha and ctx.model.beta):
        circ = sample_ensemble_circulant(ctx, cfg.paths, cfg.seed,
                                         stream=STREAM_CIRCULANT,
                                         workers=cfg.workers)
        min_eig_ratio = circ.min_eig_ratio
        rows.append(_sampler_stats(ctx, circ))
    ok = True
    for row in rows:
        row_ok = row["max_increment_sigma"] <= 5.0
        row["passed"] = bool(row_ok)
        ok = ok and row_ok
        report.add(**row)
    if len(rows) == 2:
        gap = rows[0]["terminal_var"] - rows[1]["terminal_var"]
        joint_se = math.hypot(rows[0]["terminal_var_se"], rows[1]["terminal_var_se"])
        cross_ok = _sigma_units(gap, joint_se) <= 5.0
        report.add(check="terminal_var_cross", gap=gap, joint_se=joint_se,
                   passed=bool(cross_ok))
        ok = ok and cross_ok
    report.summary = {"jitter": ctx.jitter,
                      "samplers": [r.get("sampler") for r in rows],
                      "circulant_min_eig_ratio": min_eig_ratio}
    report.passed = bool(ok)
    return report


# --- mixed process -----------------------------------------------------------


def run_mixed(cfg: ExperimentConfig) -> ExperimentReport:
    """Componentwise adjointness for X = alpha B + beta B^H, on any model.

    The weights and H are the configured model's: bm is B with weight 1,
    fbm is B^H with weight 1.  Divergence and pairing act per component
    with chain-rule weights; the coefficient rules read X.  Components with
    weight exactly zero are dropped, so beta = 0 reproduces the Brownian
    pipeline bit for bit (the B block consumes each chunk's leading normal
    draws) and alpha = 0 matches the fractional pipeline in distribution.
    The mixture's Clark residual, taken in the X geometry, is
    ``run_factorization`` with model=mixed.
    """
    cfg.require_statistical()
    mctx = MixedContext.build(cfg.covariance_model(), cfg.grid())
    ens = sample_mixed(mctx, cfg.paths, cfg.seed, stream=STREAM_PRIMARY,
                       workers=cfg.workers)
    report = _report(cfg, "mixed", mctx.ctx_x.n)
    parts = [(ctx, own, weight) for ctx, own, weight in (
        (mctx.ctx_b, ens.paths_b, mctx.alpha), (mctx.ctx_h, ens.paths_h, mctx.beta))
        if weight != 0.0]
    worst = _duality_rows(report, ens.paths_x, parts, _test_fields(mctx.ctx_x))
    return _summarize(report, alpha=mctx.alpha, beta=mctx.beta,
                      rows=len(report.results), max_sigma=worst,
                      jitter_x=mctx.ctx_x.jitter)


# --- increment identity ------------------------------------------------------


def run_increment_identity(cfg: ExperimentConfig) -> ExperimentReport:
    """|Var[X_t - X_s] - |t-s|^{2H}| over _INCREMENT_SAMPLES random (H, s, t).

    The error is measured against 1e-12 * max(1, |t-s|^{2H}): the variance
    is assembled from three covariance evaluations, so for increments much
    smaller than the times themselves the cancellation noise is absolute
    (a few ulp of t^{2H} + s^{2H}), not proportional to the tiny result.
    """
    gen = RngStream(cfg.seed, STREAM_INCREMENTS).generator(0)
    h_vals = gen.uniform(0.05, 0.95, size=_INCREMENT_SAMPLES)
    a = gen.uniform(0.0, 2.0, size=_INCREMENT_SAMPLES)
    b = gen.uniform(0.0, 2.0, size=_INCREMENT_SAMPLES)
    s = np.minimum(a, b)
    t = np.maximum(a, b)
    worst = 0.0
    for hi, si, ti in zip(h_vals, s, t):
        model = CovarianceModel.fbm(float(hi))
        got = increment_variance(model, float(si), float(ti))
        want = abs(ti - si) ** (2.0 * hi)
        worst = max(worst, abs(got - want) / max(want, 1.0))
    report = _report(cfg, "increments", cfg.grid_n)
    report.add(samples=_INCREMENT_SAMPLES, max_rel_err=worst,
               passed=bool(worst <= 1e-12))
    report.summary = {"max_rel_err": worst}
    report.passed = bool(worst <= 1e-12)
    return report


# --- full suite --------------------------------------------------------------


def _compare_rows(pure: ExperimentReport, mixed: ExperimentReport,
                  exact: bool) -> dict:
    """Row-by-row degeneration check of a mixed run against a pure run.

    ``exact`` compares shared computations at 1e-12 (scaled); otherwise the
    runs sample different noise and estimates must agree within 3 combined
    standard errors.
    """
    pure_rows = {(r["functional"], r["field"]): r
                 for r in pure.results if "field" in r}
    worst = 0.0
    checked = 0
    ok = True
    for row in mixed.results:
        ref = pure_rows.get((row.get("functional"), row.get("field")))
        if ref is None:
            continue
        checked += 1
        for side in ("lhs", "rhs"):
            gap = row[f"{side}_mean"] - ref[f"{side}_mean"]
            if exact:
                scale = max(1.0, abs(ref[f"{side}_mean"]))
                worst = max(worst, abs(gap) / scale)
                ok = ok and abs(gap) <= 1e-12 * scale
            else:
                se = math.hypot(row[f"{side}_se"], ref[f"{side}_se"])
                sig = _sigma_units(gap, se)
                worst = max(worst, sig)
                ok = ok and sig <= 3.0
    return {"rows_compared": checked, "worst": worst, "passed": bool(ok and checked > 0)}


# verify_all's checks in report order: name -> (driver, config overrides).
# The drivers sit in tuples of a module-level dict, where bench/tracer.py
# finds and wraps them.
_FBM_32 = dict(model="fbm", hurst=0.25, grid_n=32)
_MIXED_32 = dict(model="mixed", alpha=1.0, beta=1.0, hurst=0.25, grid_n=32)
_SUITE = {
    "increment_identity": (run_increment_identity, {}),
    "projection_lemma": (run_projection_lemma, dict(model="fbm", grid_n=32)),
    "adjointness_h025": (run_adjointness, _FBM_32),
    "adjointness_h040": (run_adjointness, dict(_FBM_32, hurst=0.4)),
    "adjointness_bm": (run_adjointness, dict(model="bm", grid_n=32)),
    "isometry_defect": (run_isometry_defect, _FBM_32),
    "factorization_exact_bm": (run_factorization, dict(
        model="bm", functional="linear", grid_sweep=(32,))),
    "factorization_refinement": (run_factorization, dict(
        model="fbm", hurst=0.25, functional="quadratic", grid_sweep=(8, 16, 32, 64))),
    "remainder_scaling": (run_remainder_scaling, dict(
        model="fbm", hurst=0.25, functional="quadratic", grid_n=128)),
    "gubinelli_bm_exact": (run_gubinelli_compare, dict(
        model="bm", functional="linear", grid_n=64)),
    "gubinelli_rough": (run_gubinelli_compare, dict(
        model="fbm", hurst=0.25, functional="quadratic", grid_n=64)),
    "sampler_cross_h025": (run_simulate, dict(model="fbm", hurst=0.25, grid_n=64)),
    "sampler_cross_h040": (run_simulate, dict(model="fbm", hurst=0.4, grid_n=64)),
    "mixed_adjointness": (run_mixed, _MIXED_32),
    "mixed_beta0": (run_mixed, dict(_MIXED_32, beta=0.0)),
    "mixed_alpha0": (run_mixed, dict(_MIXED_32, alpha=0.0)),
}


def verify_all(cfg: ExperimentConfig) -> tuple[list[ExperimentReport], ExperimentReport]:
    """Run the full check suite at the configured path count.

    Returns (sub-reports, summary report); the summary's rows record one
    verdict per suite item.  Each check's wall time goes to stderr, one
    line per check in suite order, and never into a report.  File-level
    determinism (byte-identical output for identical seeds across worker
    counts) is a property of every report here, checked by rerunning the
    suite externally.
    """
    if cfg.times:
        raise ConfigError("verify-all sets each check's uniform grid; unset times")
    reports = {}
    for name, (run, overrides) in _SUITE.items():
        start = time.perf_counter()
        reports[name] = run(replace(cfg, **overrides))
        print(f"  {name}: {time.perf_counter() - start:.2f}s", file=sys.stderr)
    criteria = [{"check": name, "report": rep.basename(), "passed": bool(rep.passed)}
                for name, rep in reports.items()]

    deg_b0 = _compare_rows(reports["adjointness_bm"], reports["mixed_beta0"],
                           exact=True)
    criteria.append({"check": "degeneration_beta0", **deg_b0})
    deg_a0 = _compare_rows(reports["adjointness_h025"], reports["mixed_alpha0"],
                           exact=False)
    criteria.append({"check": "degeneration_alpha0", **deg_a0})

    summary = _report(cfg, "verify_all", cfg.grid_n)
    for row in criteria:
        summary.add(**row)
    failures = [row["check"] for row in criteria if not row["passed"]]
    summary.summary = {"checks": len(criteria), "failures": failures}
    summary.passed = not failures
    return list(reports.values()), summary
