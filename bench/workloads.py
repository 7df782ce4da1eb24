"""The three benchmark workloads: inputs, one timed pass, output checks.

Each workload turns the benchmark seed into config files (``prepare``),
runs one pass through the roughcalc command line in the current process
(``run``), and checks what the pass produced (``check``).  The reasons for
choosing each workload are in NOTES.md.

A check yields operations ``Op(name, ok, exact)``.  ``exact`` marks checks
whose outcome is fixed by the code and the seed (exit-code consistency,
reference residuals, the ensemble round trip, innovation orthogonality,
traced-vs-untraced report bytes); a failed exact check makes the run
incorrect.  Statistical verdicts (3 or 5 standard-error gates) are counted
as failed operations when they fail but do not make the run incorrect: at
some seeds they fail by chance (see NOTES.md).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# clark_sweep reads its roughcalc seed from this many stored references.
CLARK_REFERENCE_SEEDS = 32
# Relative tolerance of clark_sweep residuals against the stored values:
# wide enough for roundoff-level rewrites (see NOTES.md), far narrower than
# any change of the Clark integrand.
CLARK_RTOL = 1e-9
ORTHOGONALITY_TOL = 1e-10

SUITE_CHECKS = (
    "increment_identity", "projection_lemma", "adjointness_h025",
    "adjointness_h040", "adjointness_bm", "isometry_defect",
    "factorization_exact_bm", "factorization_refinement", "remainder_scaling",
    "gubinelli_bm_exact", "gubinelli_rough", "sampler_cross_h025",
    "sampler_cross_h040", "mixed_adjointness", "mixed_beta0", "mixed_alpha0",
    "degeneration_beta0", "degeneration_alpha0",
)

CLARK_CONFIG = {"model": "fbm", "hurst": "0.25", "functional": "integral_sin",
                "grid_sweep": "8,16,32", "paths": "5000"}
LARGE_N = 1024
LARGE_PATHS = 20000
LARGE_SIM_CONFIG = {"model": "fbm", "hurst": "0.25", "grid_n": str(LARGE_N),
                    "paths": str(LARGE_PATHS)}
LARGE_FAC_CONFIG = {"model": "fbm", "hurst": "0.25", "functional": "quadratic",
                    "grid_sweep": f"256,{LARGE_N}", "paths": "1000"}

REFERENCE_FILE = Path(__file__).with_name("clark_reference.json")


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    exact: bool


def _write_config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def _load_report(out_dir: str, prefix: str) -> dict | None:
    """The JSON report in out_dir whose name starts with prefix."""
    names = sorted(n for n in os.listdir(out_dir)
                   if n.startswith(prefix) and n.endswith(".json"))
    if len(names) != 1:
        return None
    with open(os.path.join(out_dir, names[0]), encoding="utf-8") as fh:
        return json.load(fh)


def verdict_ops(label: str, exit_code: int, report: dict | None) -> list[Op]:
    """Exit code 0 or 3 matching the report's verdict (exact), and the
    verdict itself (statistical)."""
    if report is None:
        return [Op(f"{label}.report", False, True)]
    passed = report.get("passed") is True
    consistent = exit_code == (0 if passed else 3)
    return [Op(f"{label}.exit_code", consistent, True),
            Op(f"{label}.verdict", passed, False)]


# --- suite -------------------------------------------------------------------


def check_suite(exit_code: int, summary: dict | None) -> list[Op]:
    if summary is None:
        return [Op("suite.report", False, True)]
    rows = summary.get("results", [])
    names = tuple(r.get("check") for r in rows)
    ops = verdict_ops("suite", exit_code, summary)[:1]
    ops.append(Op("suite.check_set", names == SUITE_CHECKS, True))
    ops += [Op(f"suite.{r.get('check')}", r.get("passed") is True, False)
            for r in rows]
    return ops


def _suite_prepare(seed: int, work: Path) -> dict:
    return {"config": _write_config(work / "suite.cfg", {"seed": seed})}


def _suite_run(cli, inputs: dict, out_dir: str, workers: int) -> dict:
    code = cli.main(["verify-all", "--config", inputs["config"],
                     "--workers", str(workers), "--out-dir", out_dir])
    return {"exit_code": code}


def _suite_check(inputs: dict, outcome: dict, out_dir: str) -> list[Op]:
    return check_suite(outcome["exit_code"], _load_report(out_dir, "verify_all_"))


# --- clark_sweep -------------------------------------------------------------


def clark_seed(seed: int) -> int:
    return seed % CLARK_REFERENCE_SEEDS


def load_clark_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def check_clark(exit_code: int, report: dict | None, reference: dict) -> list[Op]:
    """Verdict plus one exact op per grid size: the residual against the
    stored value at CLARK_RTOL."""
    ops = verdict_ops("clark_sweep", exit_code, report)
    if report is None:
        return ops
    got = {int(r["grid_n"]): float(r["residual"]) for r in report["results"]}
    want = {int(n): float(v) for n, v in reference.items()}
    ops.append(Op("clark_sweep.grid_set", set(got) == set(want), True))
    for n, ref in sorted(want.items()):
        ok = n in got and abs(got[n] - ref) <= CLARK_RTOL * abs(ref)
        ops.append(Op(f"clark_sweep.residual_n{n}", ok, True))
    return ops


def _clark_prepare(seed: int, work: Path) -> dict:
    values = dict(CLARK_CONFIG, seed=clark_seed(seed))
    return {"config": _write_config(work / "clark.cfg", values),
            "seed": clark_seed(seed)}


def _clark_run(cli, inputs: dict, out_dir: str, workers: int) -> dict:
    code = cli.main(["factorize", "--config", inputs["config"],
                     "--workers", str(workers), "--out-dir", out_dir])
    return {"exit_code": code}


def _clark_check(inputs: dict, outcome: dict, out_dir: str) -> list[Op]:
    reference = load_clark_reference()["residuals"][str(inputs["seed"])]
    return check_clark(outcome["exit_code"],
                       _load_report(out_dir, "factorization_"), reference)


# --- large_grid --------------------------------------------------------------


def check_roundtrip(read: tuple | None, expected: np.ndarray, seed: int) -> Op:
    """The read-back ensemble equals the sampled one bit for bit."""
    if read is None:
        return Op("large_grid.roundtrip", False, True)
    paths, read_seed = read
    ok = (read_seed == seed and paths.shape == expected.shape
          and paths.dtype == expected.dtype
          and paths.tobytes() == expected.tobytes())
    return Op("large_grid.roundtrip", bool(ok), True)


def check_orthogonality(w: np.ndarray, sigma: np.ndarray) -> Op:
    """Innovation w_s is energy-orthogonal to the first s coordinates:
    (w Sigma)[s, :s] = 0 to ORTHOGONALITY_TOL."""
    lower = np.tril(w @ sigma, k=-1)
    ok = bool(np.all(np.isfinite(lower))) and float(np.abs(lower).max()) <= ORTHOGONALITY_TOL
    return Op("large_grid.innovation_orthogonality", ok, True)


def _large_prepare(seed: int, work: Path) -> dict:
    return {
        "sim_config": _write_config(work / "simulate.cfg",
                                    dict(LARGE_SIM_CONFIG, seed=seed)),
        "fac_config": _write_config(work / "factorize.cfg",
                                    dict(LARGE_FAC_CONFIG, seed=seed)),
        "export": str(work / "ensemble.bin"),
        "seed": seed,
    }


def _large_run(cli, inputs: dict, out_dir: str, workers: int) -> dict:
    from roughcalc import gaussian

    sim_code = cli.main(["simulate", "--config", inputs["sim_config"],
                         "--export", inputs["export"], "--workers", str(workers),
                         "--out-dir", out_dir])
    read = gaussian.read_ensemble(inputs["export"]) if sim_code in (0, 3) else None
    fac_code = cli.main(["factorize", "--config", inputs["fac_config"],
                         "--workers", str(workers), "--out-dir", out_dir])
    return {"sim_code": sim_code, "read": read, "fac_code": fac_code}


def _large_check(inputs: dict, outcome: dict, out_dir: str) -> list[Op]:
    from roughcalc import (CovarianceModel, GramContext, TimeGrid,
                           innovation_directions, sample_ensemble)

    ops = verdict_ops("large_grid.simulate", outcome["sim_code"],
                      _load_report(out_dir, "simulate_"))
    ops += verdict_ops("large_grid.factorize", outcome["fac_code"],
                       _load_report(out_dir, "factorization_"))
    ctx = GramContext.build(CovarianceModel.fbm(0.25), TimeGrid.uniform_grid(LARGE_N))
    expected = sample_ensemble(ctx, LARGE_PATHS, inputs["seed"]).paths
    ops.append(check_roundtrip(outcome["read"], expected, inputs["seed"]))
    del expected
    ops.append(check_orthogonality(innovation_directions(ctx), ctx.sigma))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], dict]
    run: Callable[..., dict]
    check: Callable[[dict, dict, str], list[Op]]


WORKLOADS = {
    "suite": Workload("suite", _suite_prepare, _suite_run, _suite_check),
    "clark_sweep": Workload("clark_sweep", _clark_prepare, _clark_run, _clark_check),
    "large_grid": Workload("large_grid", _large_prepare, _large_run, _large_check),
}
