"""Regenerate clark_reference.json, the stored clark_sweep residuals.

    PYTHONPATH=src python3 bench/make_reference.py

Runs the clark_sweep factorization once per reference seed (two worker
processes) and records each grid size's residual and the verdict.  Only
regenerate when a change is meant to alter the residuals beyond the
tolerance in workloads.CLARK_RTOL, and say so in the change.
"""

from __future__ import annotations

import json
import multiprocessing

import workloads


def _residuals(seed: int) -> tuple[int, dict, bool]:
    from roughcalc.config import load_config
    from roughcalc.experiments import run_factorization

    report = run_factorization(load_config(None, dict(workloads.CLARK_CONFIG,
                                                      seed=str(seed))))
    return seed, {str(r["grid_n"]): r["residual"] for r in report.results}, report.passed


def main() -> None:
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        rows = pool.map(_residuals, range(workloads.CLARK_REFERENCE_SEEDS))
    payload = {
        "config": workloads.CLARK_CONFIG,
        "residuals": {str(seed): res for seed, res, _ in rows},
        "verdicts": {str(seed): passed for seed, _, passed in rows},
    }
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
