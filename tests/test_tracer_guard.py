"""The benchmark tracer wraps roughcalc functions by name; every name it
lists must still exist, or the traced benchmark pass crashes on start."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import roughcalc.cli  # noqa: F401  (loads every module the tracer patches)
from roughcalc import malliavin

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_installs_every_traced_name_and_restores(monkeypatch) -> None:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations via sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    original = malliavin.divergence
    restore = tracer.install(tracer.Recorder("t"))
    try:
        assert malliavin.divergence is not original
    finally:
        restore()
    assert malliavin.divergence is original
