"""The benchmark tracer wraps roughcalc functions by name; every name it
lists must still exist, or the traced benchmark pass crashes on start."""

from __future__ import annotations

import filecmp
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import roughcalc.cli  # noqa: F401  (loads every module the tracer patches)
from roughcalc import cli, malliavin

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations via sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_traced_name_and_restores(tracer) -> None:
    original = malliavin.divergence
    restore = tracer.install(tracer.Recorder("t"))
    try:
        assert malliavin.divergence is not original
    finally:
        restore()
    assert malliavin.divergence is original


def test_traced_factorize_times_the_slot_loop_and_keeps_reports(tracer, tmp_path) -> None:
    argv = ["factorize", "--set", "grid_sweep=8,32", "--paths", "1000", "--out-dir"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    rec = tracer.Recorder("t")
    restore = tracer.install(rec)
    try:
        assert cli.main(argv + [str(tmp_path / "traced")]) == 0
    finally:
        restore()
    calls = Counter(span.name for span in rec.spans)
    # one slot loop per grid size, under the field's own divergence rule,
    # which has no correction term to evaluate
    assert calls["malliavin.clark_coeff"] == 2
    assert calls["malliavin.clark_grad_dot"] == 0
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names and names == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for name in names:
        assert filecmp.cmp(tmp_path / "plain" / name, tmp_path / "traced" / name,
                           shallow=False), name
