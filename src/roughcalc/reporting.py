"""Deterministic report serialization.

Reports are written as JSON (full structure) and CSV (result rows only).
The JSON is the standard library's ``json.dumps`` with sorted keys and a
two-space indent; floats in both formats are Python's ``repr``, the
shortest text that reads back to the same double, so a rerun with the
same seed produces byte-identical files.  Non-finite floats are written
as the strings ``"nan"``, ``"inf"`` and ``"-inf"``, never as bare JSON
``NaN``.  Wall-clock timings never enter a report; they go to stderr.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

SPEC_VERSION = "1.0"

__all__ = ["ExperimentReport", "render_json", "render_csv",
           "report_basename", "write_report", "SPEC_VERSION"]


def _normalize(obj):
    """Plain JSON types: numpy scalars and arrays unwrapped, tuples as
    lists, non-finite floats as the strings "nan", "inf" and "-inf"."""
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _normalize(obj.tolist())
    if isinstance(obj, np.floating):
        obj = float(obj)
    elif isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def render_json(payload: dict) -> str:
    return json.dumps(_normalize(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def render_csv(rows: list[dict]) -> str:
    """Rows share a column union; missing cells are empty."""
    if not rows:
        return "\n"
    cols: list[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for key in cols:
            v = row.get(key)
            if v is None:
                cells.append("")
            elif isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, (float, np.floating)):
                cells.append(repr(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass
class ExperimentReport:
    """One experiment run: config echo, result rows, summary, verdict.

    model/hurst_label/grid_label/seed name the output files; they reflect
    the run's effective values, which per-criterion sweeps may pin away
    from the config defaults.
    """

    experiment: str
    config: dict
    model: str = "fbm"
    hurst_label: str = "0.25"
    grid_label: int = 0
    seed: int = 0
    results: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    passed: bool = True

    def add(self, **row) -> dict:
        self.results.append(row)
        return row

    def payload(self) -> dict:
        return {
            "spec_version": SPEC_VERSION,
            "experiment": self.experiment,
            "config": self.config,
            "results": self.results,
            "summary": self.summary,
            "passed": self.passed,
        }

    def basename(self) -> str:
        return report_basename(self.experiment, self.model, self.hurst_label,
                               self.grid_label, self.seed)


def report_basename(experiment: str, model: str, hurst_label: str, n: int,
                    seed: int) -> str:
    return f"{experiment}_{model}_{hurst_label}_{n}_{seed}"


def write_report(report: ExperimentReport, out_dir: str) -> tuple[str, str]:
    """Write JSON + CSV; returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    base = report.basename()
    json_path = os.path.join(out_dir, base + ".json")
    csv_path = os.path.join(out_dir, base + ".csv")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(render_json(report.payload()))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(render_csv(report.results))
    return json_path, csv_path
