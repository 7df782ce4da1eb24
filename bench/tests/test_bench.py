"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- self time ---------------------------------------------------------------


def _span(i, name, start, end, parent=None):
    return tracer.Span(i, name, start, end, parent, "r")


def test_self_time_subtracts_union_of_children() -> None:
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),   # overlaps a (another thread)
        _span(3, "a.child", 2.0, 3.0, parent=1),
        _span(4, "late", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_recorder_nesting_and_layer_sums() -> None:
    ticks = iter(range(100))
    rec = tracer.Recorder("r", clock=lambda: float(next(ticks)))
    inner = rec.wrap(lambda: None, "gaussian.expect_scalar")

    def outer_body():
        inner()
        inner()

    outer = rec.wrap(outer_body, "malliavin.conditional_value")
    outer()  # outer 0..5, inner 1..2 and 3..4
    layers = tracer.layer_metrics(rec, wall_s=10.0)
    assert layers["malliavin.conditional_value.calls"] == 1
    assert layers["malliavin.conditional_value.incl_s"] == 5.0
    assert layers["malliavin.conditional_value.self_s"] == 3.0
    assert layers["gaussian.expect_scalar.calls"] == 2
    assert layers["gaussian.expect_scalar.self_s"] == 2.0
    assert layers["bench.trace_coverage"] == pytest.approx(0.5)
    parents = {s.name: s.parent for s in rec.spans}
    assert parents["malliavin.conditional_value"] is None
    assert parents["gaussian.expect_scalar"] is not None


# --- metric names ------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_unique() -> None:
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "wall_s",
                                                       "peak_rss_mb"}


def test_every_per_layer_metric_is_produced() -> None:
    produced = set(tracer.layer_metrics(tracer.Recorder("r"), wall_s=1.0))
    # added by child.py and run.py around the trace
    produced |= {"gaussian.sampler_w2_speedup", "cli.import_s",
                 "bench.trace_overhead_frac"}
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in produced]
    assert not missing


# --- inputs ------------------------------------------------------------------


def _inputs(name, seed, work):
    work.mkdir(parents=True, exist_ok=True)
    inputs = workloads.WORKLOADS[name].prepare(seed, work)
    return {p.name: p.read_text() for p in sorted(work.iterdir())}, inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name, tmp_path) -> None:
    first, _ = _inputs(name, 5, tmp_path / "a")
    again, _ = _inputs(name, 5, tmp_path / "b")
    other, _ = _inputs(name, 6, tmp_path / "c")
    assert first and first == again
    assert first != other


def test_clark_seeds_map_onto_stored_references(tmp_path) -> None:
    n = workloads.CLARK_REFERENCE_SEEDS
    _, inputs = _inputs("clark_sweep", n + 3, tmp_path)
    assert inputs["seed"] == 3
    reference = workloads.load_clark_reference()
    assert sorted(map(int, reference["residuals"])) == list(range(n))


# --- output checks fire on perturbed outputs ---------------------------------


def _failed(ops: list[Op]) -> set[str]:
    return {op.name for op in ops if not op.ok}


def _suite_summary(passed=True):
    rows = [{"check": c, "passed": True} for c in workloads.SUITE_CHECKS]
    return {"results": rows, "passed": passed}


def test_suite_check() -> None:
    assert not _failed(workloads.check_suite(0, _suite_summary()))
    assert _failed(workloads.check_suite(3, _suite_summary())) == {"suite.exit_code"}
    assert _failed(workloads.check_suite(None, _suite_summary())) == {"suite.exit_code"}
    failing = _suite_summary(passed=False)
    failing["results"][4]["passed"] = False
    ops = workloads.check_suite(3, failing)
    assert _failed(ops) == {"suite.adjointness_bm"}
    assert all(op.exact is False for op in ops if op.name == "suite.adjointness_bm")
    short = _suite_summary()
    short["results"].pop()
    assert "suite.check_set" in _failed(workloads.check_suite(0, short))
    assert _failed(workloads.check_suite(0, None)) == {"suite.report"}


def test_clark_check() -> None:
    reference = {"8": 4e-3, "16": 2e-3, "32": 1e-3}

    def report(scale=1.0, drop=None):
        rows = [{"grid_n": int(n), "residual": v * scale}
                for n, v in reference.items() if n != drop]
        return {"results": rows, "passed": True}

    assert not _failed(workloads.check_clark(0, report(), reference))
    # roundoff-level changes are admitted
    assert not _failed(workloads.check_clark(0, report(1 + 1e-12), reference))
    assert _failed(workloads.check_clark(0, report(1 + 1e-6), reference)) == {
        "clark_sweep.residual_n8", "clark_sweep.residual_n16",
        "clark_sweep.residual_n32"}
    assert {"clark_sweep.grid_set", "clark_sweep.residual_n16"} <= _failed(
        workloads.check_clark(0, report(drop="16"), reference))
    assert _failed(workloads.check_clark(2, report(), reference)) == {
        "clark_sweep.exit_code"}


def test_roundtrip_check() -> None:
    paths = np.random.default_rng(0).standard_normal((50, 8))
    assert workloads.check_roundtrip((paths.copy(), 7), paths, 7).ok
    flipped = paths.copy()
    flipped[3, 4] = np.nextafter(flipped[3, 4], np.inf)
    assert not workloads.check_roundtrip((flipped, 7), paths, 7).ok
    assert not workloads.check_roundtrip((paths.copy(), 8), paths, 7).ok
    assert not workloads.check_roundtrip(None, paths, 7).ok


def test_orthogonality_check() -> None:
    from roughcalc import (CovarianceModel, GramContext, TimeGrid,
                           innovation_directions)

    ctx = GramContext.build(CovarianceModel.fbm(0.25), TimeGrid.uniform_grid(32))
    w = innovation_directions(ctx)
    assert workloads.check_orthogonality(w, ctx.sigma).ok
    bent = w.copy()
    bent[9, 3] += 1e-8
    assert not workloads.check_orthogonality(bent, ctx.sigma).ok


# --- tracing leaves the package's behaviour alone ------------------------------


def test_install_wraps_every_importing_module_and_restores() -> None:
    from roughcalc import cli, experiments, functionals, gaussian, malliavin, models

    original = malliavin.clark_integrand
    original_run = experiments.run_factorization
    rec = tracer.Recorder("r")
    restore = tracer.install(rec)
    try:
        assert experiments.clark_integrand is malliavin.clark_integrand
        assert experiments.clark_integrand is not original
        assert cli._EXPERIMENTS["factorize"][1] is experiments.run_factorization
        assert experiments.run_factorization is not original_run
        grid = models.TimeGrid.uniform_grid(8)
        ctx = experiments.GramContext.build(models.CovarianceModel.fbm(0.25), grid)
        fn = functionals.make_functional("integral_sin", grid)
        field = experiments.clark_integrand(ctx, fn)
        paths = gaussian.sample_ensemble(ctx, 100, seed=1).paths
        field.coeff_fn(paths)
        field.grad_dot(paths, field.directions @ ctx.sigma)
    finally:
        restore()
    assert malliavin.clark_integrand is original
    assert experiments.clark_integrand is original
    assert cli._EXPERIMENTS["factorize"][1] is original_run
    names = {s.name for s in rec.spans}
    assert {"models.build_gram", "malliavin.clark_integrand",
            "gaussian.regression_coefficients", "energy.solve_leading",
            "malliavin.innovation_directions", "malliavin.clark_coeff",
            "malliavin.clark_grad_dot", "gaussian.expect_scalar",
            "gaussian.sample_ensemble"} <= names
    layers = tracer.layer_metrics(rec, wall_s=1.0)
    assert layers["gaussian.sample_ensemble.normals"] == 100 * 8
    assert layers["malliavin.clark_slot_evals"] == 2 * 100 * 8
    assert layers["gaussian.expect_scalar.node_evals"] == (
        layers["gaussian.expect_scalar.calls"] * 100 * gaussian.DEFAULT_NODES)
    assert layers["models.factor_flops"] == pytest.approx(8 ** 3 / 3)


def test_traced_reports_are_byte_identical(tmp_path) -> None:
    from roughcalc import cli

    argv = ["factorize", "--set", "functional=integral_sin", "--set",
            "grid_sweep=4,8", "--paths", "1000"]
    code = cli.main(argv + ["--out-dir", str(tmp_path / "plain")])
    rec = tracer.Recorder("r")
    restore = tracer.install(rec)
    try:
        assert cli.main(argv + ["--out-dir", str(tmp_path / "traced")]) == code
    finally:
        restore()
    plain = {p.name: p.read_bytes() for p in (tmp_path / "plain").iterdir()}
    traced = {p.name: p.read_bytes() for p in (tmp_path / "traced").iterdir()}
    assert plain and plain == traced
    assert any(s.name == "experiments.run_factorization" for s in rec.spans)
